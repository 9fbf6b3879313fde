// wire-hot and wire-miss: closed-loop clients against an in-process
// ServeServer on an ephemeral loopback port, driven by net::replay_net.
//
//   wire-hot   2 connections x 8 pipelined requests, HEFT n=100 P=8, each
//              chunk of the window a run of shuffled epochs over a working
//              set of 256 descriptors that fits the cache; warmed so the
//              window runs at ~100% cache hits.
//   wire-miss  2 connections x 1 request, every request a new descriptor,
//              rotating heft / ils / ils-d at n=100 P=8; the cache is
//              filled first, so every request misses, writes and evicts.
//
// The serving pool has 2 workers, so reactor + pool + clients fit 4 cores.
// The window is a sequence of fixed-size chunks, one replay_net call each,
// until the time is up, and nothing the benchmark keeps grows with the
// number of replies.  qps and rtt_p50_ms are means over the chunks' reports:
// the loop runs in phases lasting seconds with different medians, and the
// mean follows the mix of phases smoothly where a median of chunks flips
// between them.  rtt_p99_ms is the median of the chunks' p99, so one stall
// of the host moves one chunk rather than the tail.  Each chunk's accounting
// identity, payload consistency and schedule digest are checked against
// references computed by calling the schedulers directly; the server's own
// counters are checked against the client's tallies after the window.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <exception>
#include <memory>
#include <thread>
#include <unordered_map>

#include "bench.hpp"
#include "core/registry.hpp"
#include "metrics/metrics.hpp"
#include "net/codec.hpp"
#include "net/net_replay.hpp"
#include "net/server.hpp"
#include "serve/request.hpp"
#include "util/fingerprint.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

namespace {

namespace net = tsched::net;
namespace serve = tsched::serve;

constexpr std::size_t kConns = 2;
constexpr std::size_t kPoolThreads = 2;
constexpr std::size_t kTasks = 100;
constexpr double kBeta = 1.0;
constexpr std::uint64_t kWarmupBase = std::uint64_t{1} << 31;  ///< miss warm-up indices
const std::vector<std::string> kMissAlgos = {"heft", "ils", "ils-d"};

struct Plan {
    bool hot = true;
    std::size_t window = 8;
    std::size_t working_set = 256;   ///< hot: distinct descriptors
    std::size_t hot_epochs = 8;      ///< hot: shuffled epochs per chunk (2048 requests)
    std::size_t miss_chunk = 1024;   ///< miss: distinct requests per chunk
    std::size_t miss_warmup = 1024;  ///< miss: distinct warm-up requests (= cache capacity)
    std::size_t setups = 9;          ///< set-up repetitions (setup_s is their median)
    std::size_t replay_sample = 300; ///< traced run: requests replayed per pass
};

/// The reference answer of one descriptor, from a direct scheduler call.
struct Reference {
    std::uint64_t fingerprint = 0;
    std::uint64_t digest_term = 0;  ///< replay_net's fnv1a(fingerprint || payload)
    double slr = 0.0;
    Replay replay = Replay::kExact;
};

/// The reference answer of `trace`; `schedulers` caches one per algorithm.
Reference reference_of(const serve::TraceRequest& trace,
                       std::unordered_map<std::string, tsched::SchedulerPtr>& schedulers) {
    const serve::ScheduleRequest request = serve::materialize(trace);
    auto& scheduler = schedulers[trace.algo];
    if (!scheduler) scheduler = tsched::make_scheduler(trace.algo);
    const tsched::Schedule schedule = scheduler->schedule(*request.problem);
    Reference ref;
    ref.fingerprint = serve::fingerprint_request(request);
    tsched::Fnv1a hasher;
    hasher.u64(ref.fingerprint);
    hasher.str(net::encode_schedule(schedule));
    ref.digest_term = hasher.value();
    ref.slr = tsched::slr(schedule, *request.problem);
    double simulated = 0.0;
    ref.replay = replay_makespan(schedule, *request.problem, simulated);
    return ref;
}

/// Compute the reference of every descriptor in `traces` on a few threads.
std::vector<Reference> references(const std::vector<serve::TraceRequest>& traces) {
    std::vector<Reference> out(traces.size());
    std::atomic<std::size_t> cursor{0};
    const std::size_t workers = std::min<std::size_t>(4, std::max<std::size_t>(1, traces.size()));
    std::vector<std::exception_ptr> failures(workers);
    std::vector<std::thread> threads;
    for (std::size_t w = 0; w < workers; ++w) {
        threads.emplace_back([&, w] {
            std::unordered_map<std::string, tsched::SchedulerPtr> schedulers;
            try {
                for (std::size_t i = cursor++; i < traces.size(); i = cursor++) {
                    out[i] = reference_of(traces[i], schedulers);
                }
            } catch (...) {
                failures[w] = std::current_exception();
                cursor = traces.size();
            }
        });
    }
    for (auto& t : threads) t.join();
    for (const auto& failure : failures) {
        if (failure) std::rethrow_exception(failure);
    }
    return out;
}

/// replay_net's schedule_digest of a stream whose every request is answered
/// with its reference: XOR over distinct fingerprints.
std::uint64_t reference_digest(const std::vector<const Reference*>& refs) {
    std::unordered_map<std::uint64_t, std::uint64_t> terms;
    for (const Reference* ref : refs) terms.emplace(ref->fingerprint, ref->digest_term);
    std::uint64_t digest = 0;
    for (const auto& [fingerprint, term] : terms) digest ^= term;
    return digest;
}

/// A started server; stopped when this goes away.
struct Live {
    std::unique_ptr<tsched::ThreadPool> pool;
    std::unique_ptr<net::ServeServer> server;

    Live() = default;
    Live(const Live&) = delete;
    Live& operator=(const Live&) = delete;
    ~Live() {
        if (server) server->stop();
    }
};

net::NetReplayOptions replay_options(const Live& live, std::size_t window) {
    net::NetReplayOptions options;
    options.port = live.server->port();
    options.conns = kConns;
    options.window = window;
    options.client_name = "perfbench";
    return options;
}

/// Check one replay_net report that is expected to be all kOk; returns
/// how many of its requests count as failed (all of them when the report
/// as a whole is wrong).
std::uint64_t check_report(const net::NetReplayReport& report, const std::string& where,
                           Result& result) {
    bool whole = true;
    if (!report.accounting_ok()) {
        result.error(where + ": accounting identity broken");
        whole = false;
    }
    if (!report.payload_consistent) {
        result.error(where + ": one fingerprint, two payloads");
        whole = false;
    }
    if (report.ok != report.requests) {
        result.error(where + ": " + std::to_string(report.requests - report.ok) + " of " +
                     std::to_string(report.requests) + " replies not ok");
    }
    return whole ? report.requests - std::min(report.requests, report.ok) : report.requests;
}

/// Start a server and warm it: hot runs two epochs over the working set
/// (the first fills the cache, the second warms the hit path); miss fills
/// the cache with distinct requests.  Both pipeline 8 deep.
std::unique_ptr<Live> set_up(const Plan& plan, const std::vector<serve::TraceRequest>& warm,
                             Result& result) {
    auto live = std::make_unique<Live>();
    live->pool = std::make_unique<tsched::ThreadPool>(kPoolThreads);
    net::ServerConfig config;
    config.port = 0;
    live->server = std::make_unique<net::ServeServer>(config, *live->pool);
    live->server->start();
    net::NetReplayOptions options = replay_options(*live, 8);
    options.epochs = plan.hot ? 2 : 1;
    (void)check_report(net::replay_net(warm, options), "warm-up", result);
    return live;
}

/// Client-side totals over the window's chunks.
struct Tally {
    std::uint64_t requests = 0, replies = 0, ok = 0, shed = 0, degraded = 0, timed_out = 0,
                  draining = 0, cache_hits = 0;

    void add(const net::NetReplayReport& r) {
        requests += r.requests;
        replies += r.replies;
        ok += r.ok;
        shed += r.shed;
        degraded += r.degraded;
        timed_out += r.timed_out;
        draining += r.draining;
        cache_hits += r.cache_hits;
    }
};

/// The server's counters move after the reply leaves its socket, so the
/// client can finish first; wait (briefly) until they caught up.
void settle(const net::ServeServer& server, std::uint64_t responses) {
    const Clock::time_point give_up = Clock::now() + std::chrono::seconds(2);
    while (server.stats().responses < responses && Clock::now() < give_up) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
}

}  // namespace

Result run_wire(const Options& options, bool hot) {
    Plan plan;
    plan.hot = hot;
    plan.window = hot ? 8 : 1;
    if (options.tiny) {
        plan.working_set = 16;
        plan.miss_chunk = 24;
        plan.miss_warmup = 32;
        plan.setups = 1;
        plan.replay_sample = 12;
    }
    const std::uint64_t seed = options.seed;
    const auto desc_of = [hot, seed](std::uint64_t i) {
        return descriptor(hot ? "heft" : kMissAlgos[i % kMissAlgos.size()], kTasks, kBeta, seed, i);
    };
    Result result;

    // --- references of the hot working set, outside the timed set-up -------
    std::vector<serve::TraceRequest> working;
    for (std::size_t i = 0; i < plan.working_set; ++i) working.push_back(desc_of(i));
    std::vector<Reference> hot_refs;
    std::uint64_t hot_digest = 0;
    if (hot) {
        hot_refs = references(working);
        std::vector<const Reference*> all;
        for (const Reference& ref : hot_refs) all.push_back(&ref);
        hot_digest = reference_digest(all);
    }

    // --- set-up, repeated; the last one serves the window ------------------
    std::vector<serve::TraceRequest> warm;
    if (hot) {
        warm = working;
    } else {
        for (std::size_t i = 0; i < plan.miss_warmup; ++i) warm.push_back(desc_of(kWarmupBase + i));
    }
    std::vector<double> setup_s;
    std::unique_ptr<Live> live;
    for (std::size_t rep = 0; rep < plan.setups; ++rep) {
        live.reset();
        const Clock::time_point t = Clock::now();
        live = set_up(plan, warm, result);
        setup_s.push_back(seconds_between(t, Clock::now()));
    }
    warm = {};

    // --- timed window: fixed-size chunks until the time is up --------------
    const net::NetReplayOptions chunk_options = replay_options(*live, plan.window);
    const std::size_t chunk_size = hot ? plan.hot_epochs * plan.working_set : plan.miss_chunk;
    std::vector<serve::TraceRequest> chunk(chunk_size);
    std::vector<double> chunk_qps, chunk_p50, chunk_p99;
    std::vector<std::uint64_t> chunk_digest;  // miss: checked after the window
    std::vector<std::uint64_t> chunk_failed;
    Tally tally;
    const serve::EngineStats engine_before = live->server->engine_stats();
    const net::NetServerStats net_before = live->server->stats();
    const CpuTimes cpu_before = cpu_times();
    const Clock::time_point start = Clock::now();
    const Clock::time_point deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(options.seconds));
    std::uint64_t next_desc = 0;
    while (Clock::now() < deadline) {
        const std::size_t k = chunk_qps.size();
        if (hot) {
            for (std::size_t e = 0; e < plan.hot_epochs; ++e) {
                const std::size_t base = e * plan.working_set;
                for (std::size_t i = 0; i < plan.working_set; ++i) chunk[base + i] = working[i];
                for (std::size_t i = plan.working_set - 1; i > 0; --i) {
                    const std::uint64_t pick = mix(seed, k * plan.hot_epochs + e, i) % (i + 1);
                    std::swap(chunk[base + i], chunk[base + pick]);
                }
            }
        } else {
            for (auto& trace : chunk) trace = desc_of(next_desc++);
        }
        const net::NetReplayReport report = net::replay_net(chunk, chunk_options);
        tally.add(report);
        chunk_failed.push_back(check_report(report, "chunk " + std::to_string(k), result));
        if (hot && report.schedule_digest != hot_digest) {
            result.error("chunk " + std::to_string(k) +
                         ": schedule_digest differs from the reference");
            chunk_failed.back() = report.requests;
        }
        chunk_digest.push_back(report.schedule_digest);
        chunk_qps.push_back(report.qps);
        chunk_p50.push_back(report.latency_p50_ms);
        chunk_p99.push_back(report.latency_p99_ms);
    }
    const double window_s = seconds_between(start, Clock::now());
    const double steal = steal_share(cpu_before, cpu_times());
    const double peak_rss = peak_rss_mb();
    settle(*live->server, net_before.responses + tally.replies);
    const serve::EngineStats engine_after = live->server->engine_stats();
    const net::NetServerStats net_after = live->server->stats();
    live.reset();

    // --- checks, outside the window -----------------------------------------
    // Every request is one attempt.  One not answered kOk is a failure, and
    // so is every request of a chunk whose replies as a whole were wrong.
    result.attempted = tally.requests;
    // The server's own counters must tell the story the client's tell; a
    // difference is that many requests one side cannot account for.
    struct Count {
        const char* what;
        std::uint64_t server, client;
    };
    const Count counts[] = {
        {"engine requests", engine_after.requests - engine_before.requests, tally.requests},
        {"ok", engine_after.ok - engine_before.ok, tally.ok},
        {"shed", engine_after.shed - engine_before.shed, tally.shed},
        {"degraded", engine_after.degraded - engine_before.degraded, tally.degraded},
        {"timed_out", engine_after.timed_out - engine_before.timed_out, tally.timed_out},
        {"draining", engine_after.draining - engine_before.draining, tally.draining},
        {"engine failures", engine_after.failed - engine_before.failed, 0},
        {"cache hits", engine_after.cache_hits - engine_before.cache_hits, tally.cache_hits},
        {"request frames", net_after.requests - net_before.requests, tally.requests},
        {"response frames", net_after.responses - net_before.responses, tally.replies},
        {"error frames", net_after.errors_sent - net_before.errors_sent, 0},
    };
    std::uint64_t unaccounted = 0;
    for (const Count& c : counts) {
        if (c.server == c.client) continue;
        result.error(std::string("server ") + c.what + " " + std::to_string(c.server) +
                     " != client " + std::to_string(c.client));
        const std::uint64_t gap = std::max(c.server, c.client) - std::min(c.server, c.client);
        unaccounted = std::max(unaccounted, gap);
    }

    std::vector<Reference> refs = std::move(hot_refs);
    if (!hot) {
        std::vector<serve::TraceRequest> used;
        for (std::uint64_t i = 0; i < next_desc; ++i) used.push_back(desc_of(i));
        refs = references(used);
        for (std::size_t k = 0; k < chunk_digest.size(); ++k) {
            std::vector<const Reference*> in_chunk;
            for (std::size_t i = 0; i < chunk_size; ++i) {
                in_chunk.push_back(&refs[k * chunk_size + i]);
            }
            if (chunk_digest[k] != reference_digest(in_chunk)) {
                result.error("chunk " + std::to_string(k) +
                             ": schedule_digest differs from the reference");
                chunk_failed[k] = chunk_size;
            }
        }
    }
    for (const std::uint64_t failed : chunk_failed) result.failed += failed;
    result.failed = std::min(result.attempted, std::max(result.failed, unaccounted));
    double slr_sum = 0.0;
    std::size_t slack = 0;
    for (const Reference& ref : refs) {
        slr_sum += ref.slr;
        slack += ref.replay == Replay::kSlack ? 1 : 0;
        if (ref.replay == Replay::kExceeds) {
            result.error("reference schedule: simulated makespan exceeds the schedule's");
        }
    }

    const std::uint64_t window_requests = engine_after.requests - engine_before.requests;
    const std::uint64_t window_hits = engine_after.cache_hits - engine_before.cache_hits;
    const double hit_rate = window_requests > 0 ? static_cast<double>(window_hits) /
                                                      static_cast<double>(window_requests)
                                                : 0.0;
    if (hot && hit_rate < 0.99) {
        result.error("wire-hot: window hit rate " + std::to_string(hit_rate) + " < 0.99");
    }
    if (!hot && window_hits > 0) {
        result.error("wire-miss: " + std::to_string(window_hits) + " cache hits in the window");
    }

    // --- metrics ------------------------------------------------------------
    const double qps = mean(chunk_qps);
    const double rtt_p50 = mean(chunk_p50);
    const double rtt_p99 = median(chunk_p99);
    std::printf("%s: %zu conns x window %zu, %llu requests in %zu chunks of %zu over %.2f s,"
                " %zu distinct descriptors\n",
                hot ? "wire-hot" : "wire-miss", kConns, plan.window,
                static_cast<unsigned long long>(tally.requests), chunk_qps.size(), chunk_size,
                window_s, refs.size());
    std::printf("  over chunks: mean qps %.1f  mean rtt p50 %.3f ms  median p99 %.3f ms"
                "  hit rate %.4f\n",
                qps, rtt_p50, rtt_p99, hit_rate);
    const auto [qps_lo, qps_hi] = std::minmax_element(chunk_qps.begin(), chunk_qps.end());
    const auto [p99_lo, p99_hi] = std::minmax_element(chunk_p99.begin(), chunk_p99.end());
    std::printf("  chunk range: qps %.1f..%.1f  rtt p99 %.3f..%.3f ms  host steal %.1f%%\n",
                *qps_lo, *qps_hi, *p99_lo, *p99_hi, 100.0 * steal);
    std::printf("  %zu of %zu reference schedules replay shorter than stated (slack)\n", slack,
                refs.size());
    const auto [setup_lo, setup_hi] = std::minmax_element(setup_s.begin(), setup_s.end());
    std::printf("  set-up: median %.4f s of %zu (%.4f..%.4f)\n", median(setup_s), setup_s.size(),
                *setup_lo, *setup_hi);

    if (!options.trace) {
        const double attempted = static_cast<double>(std::max<std::uint64_t>(1, result.attempted));
        result.add("qps", qps, "1/s");
        result.add("rtt_p50_ms", rtt_p50, "ms");
        result.add("ok_frac", 1.0 - static_cast<double>(result.failed) / attempted, "ratio");
        result.add("tasks_per_s", qps * static_cast<double>(kTasks), "1/s");
        result.add("slr_mean", refs.empty() ? 0.0 : slr_sum / static_cast<double>(refs.size()),
                   "ratio");
        result.add("setup_s", median(setup_s), "s");
        result.add("peak_rss_mb", peak_rss, "MB");
        return result;
    }

    // --- traced run: per-layer replay of the same stream --------------------
    std::vector<serve::TraceRequest> stream;
    for (std::size_t i = 0; i < std::min<std::size_t>(refs.size(), plan.replay_sample); ++i) {
        stream.push_back(desc_of(i));
    }
    const StageMedians stages = replay_stages(stream, hot ? 3 : 1);
    report_stages(result, stages, hot, rtt_p50, tally.replies);
    result.add("rtt_p99_ms", rtt_p99, "ms");
    result.add("host.steal_frac", steal, "ratio");
    const double reqs = static_cast<double>(std::max<std::uint64_t>(1, window_requests));
    result.add("serve.hit_rate", hit_rate, "ratio");
    result.add("serve.computed",
               static_cast<double>(engine_after.computed - engine_before.computed), "count");
    result.add("serve.evictions",
               static_cast<double>(engine_after.cache.evictions - engine_before.cache.evictions),
               "count");
    result.add("serve.shed", static_cast<double>(engine_after.shed - engine_before.shed), "count");
    result.add("net.bytes_per_req",
               static_cast<double>((net_after.bytes_in - net_before.bytes_in) +
                                   (net_after.bytes_out - net_before.bytes_out)) /
                   reqs,
               "B");
    result.add("net.backpressure_pauses",
               static_cast<double>(net_after.backpressure_pauses - net_before.backpressure_pauses),
               "count");
    report_scheduler_layers(result, seed, options.tiny, slack);
    return result;
}

}  // namespace perfbench
