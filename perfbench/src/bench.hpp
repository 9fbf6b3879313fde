// Shared declarations of the tsched end-to-end benchmark (see ../README.md).
//
// The benchmark drives tsched only through its public functions.  Each
// workload builds its inputs from the seed, sets itself up several times,
// measures one timed window, checks every output outside that window, and
// fills a Result whose metrics main.cpp prints as one JSON line.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "platform/problem.hpp"
#include "sched/schedule.hpp"
#include "serve/request_trace.hpp"
#include "serve/serve_engine.hpp"

namespace perfbench {

/// Seed used when --seed is not given, and the seed held out for claims
/// that must hold "on a seed not used while the change was written".
inline constexpr std::uint64_t kDefaultSeed = 1;
inline constexpr std::uint64_t kHeldOutSeed = 20071;

struct Options {
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;  ///< per-layer run instead of the end-to-end one
    bool tiny = false;   ///< self-test sizes: short window, small inputs
};

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

struct Result {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;
    std::vector<std::string> errors;  ///< correctness findings, one line each

    void add(std::string name, double value, std::string unit);
    /// Record a correctness finding that is not tied to one request.
    void error(std::string message);
    [[nodiscard]] bool correct() const noexcept { return failed == 0 && errors.empty(); }
};

[[nodiscard]] Result run_wire(const Options& options, bool hot);
[[nodiscard]] Result run_offline(const Options& options);

// --- helpers (common.cpp) --------------------------------------------------

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}
[[nodiscard]] inline double us_since(Clock::time_point start) {
    return seconds_between(start, Clock::now()) * 1e6;
}

/// Deterministic 64-bit mixer (splitmix64 finalizer); derives every input
/// of a run from (seed, purpose, index).
[[nodiscard]] std::uint64_t mix(std::uint64_t a, std::uint64_t b = 0, std::uint64_t c = 0) noexcept;

/// Exact order statistic: the value at rank ceil(q * n) of the sorted
/// samples (q in (0, 1]); 0 for no samples.  Sorts `samples` in place.
[[nodiscard]] double percentile(std::vector<double>& samples, double q);
[[nodiscard]] double median(std::vector<double> samples);
[[nodiscard]] double mean(const std::vector<double>& samples);

/// Peak resident set size of this process (VmHWM), in MiB.
[[nodiscard]] double peak_rss_mb();

/// Cumulative CPU time of the machine from /proc/stat, in clock ticks.
/// `steal` is time the hypervisor ran other guests while this one wanted
/// to run; wall-clock metrics on a virtual machine move with its share, so
/// every run reports it next to its timings.
struct CpuTimes {
    std::uint64_t steal = 0;
    std::uint64_t total = 0;
};
[[nodiscard]] CpuTimes cpu_times();
/// Steal share of all CPU time between two snapshots (0 when unknown).
[[nodiscard]] double steal_share(const CpuTimes& before, const CpuTimes& after);

/// The layered-DAG descriptor every workload is built from: P = 8, uniform
/// network, CCR 1.  Distinct (seed, index) pairs give distinct instances.
[[nodiscard]] tsched::serve::TraceRequest descriptor(const std::string& algo, std::size_t tasks,
                                                     double beta, std::uint64_t seed,
                                                     std::uint64_t index);

/// Replay a schedule's decisions with sim::simulate.  DESIGN.md's invariant
/// is that the replayed makespan never exceeds the schedule's own (kExceeds
/// is a wrong output); it equals it for gap-free schedules (kExact) and is
/// lower when the scheduler left slack, a start later than its inputs allow
/// (kSlack: a valid schedule, reported but not counted as a failure).
enum class Replay { kExact, kSlack, kExceeds };
[[nodiscard]] Replay replay_makespan(const tsched::Schedule& schedule,
                                     const tsched::Problem& problem, double& simulated);

// --- per-layer replay (layers.cpp) -----------------------------------------

/// Per-request stage medians of one serial replay of a request stream
/// through the public functions on the wire path, in microseconds.
struct StageMedians {
    double client_encode = 0;    ///< encode_request + encode_frame (client side)
    double frame_decode = 0;     ///< FrameDecoder::feed + next (server side)
    double decode_request = 0;   ///< decode_request
    double materialize = 0;      ///< serve::materialize
    double fingerprint = 0;      ///< fingerprint_request (also inside the engine)
    double engine_hit = 0;       ///< ServeEngine::serve, answered from the cache
    double engine_miss = 0;      ///< ServeEngine::serve, computed
    double encode_response = 0;  ///< make_response + encode_response
    double encode_frame = 0;     ///< encode_frame of the response
    double client_decode = 0;    ///< FrameDecoder + decode_response (client side)
    double bytes_per_req = 0;    ///< request + response frame bytes
    std::size_t samples = 0;     ///< requests replayed per stage
    tsched::serve::EngineStats engine;  ///< the replay engine's counters at the end

    /// Sum of the stages one request passes through; the engine stage is
    /// the hit or the miss time (fingerprint is inside the engine stage).
    [[nodiscard]] double path_sum(bool hit) const noexcept;
};

/// Replay `stream` serially: one pass on a fresh engine (every distinct
/// request misses), then `hit_passes` passes that hit the cache.
[[nodiscard]] StageMedians replay_stages(const std::vector<tsched::serve::TraceRequest>& stream,
                                         std::size_t hit_passes);

/// Add the serve/net stage metrics, the residual of `rtt_p50_ms` over the
/// stage sum, and print the stage table.
void report_stages(Result& result, const StageMedians& stages, bool hit_path, double rtt_p50_ms,
                   std::size_t rtt_samples);

/// Time upward_rank and every offline scheduler on layered instances of
/// each benchmark size, add the sched.* / core.* metrics and print them.
/// `sched.slack_schedules` counts the slack schedules among these and
/// `window_slack`, the count among the workload's own schedules.
void report_scheduler_layers(Result& result, std::uint64_t seed, bool tiny,
                             std::size_t window_slack);

/// The scheduler set of the offline workload and of the sched.* metrics.
[[nodiscard]] const std::vector<std::string>& offline_algos();
/// Metric name of one scheduler at one size, e.g. "core.ils-d.n2000_ms".
[[nodiscard]] std::string scheduler_metric(const std::string& algo, std::size_t tasks);

}  // namespace perfbench
