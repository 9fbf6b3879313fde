// offline: library use with no serving.  One thread calls schedule()
// directly on pre-generated layered DAGs (n in {400, 2000, 10000}, P = 8,
// CCR 1, four DAGs per point) at two heterogeneity levels, beta = 1
// (heterogeneous machine) and beta = 0 (homogeneous machine), with heft,
// ils, ils-d, dsh and btdh.
//
// A request is one instance scheduled by every algorithm, the comparison the
// paper makes; its round trip is the sum of those five calls.  The three
// sizes come in equal counts, so the median request is a mid-size instance
// and rtt_p50_ms stays inside one cluster of similar requests; the median
// of single calls would sit between clusters of different algorithms and
// jump when their order changes.  The window runs whole rounds (every
// instance once), so the mix is the same in every run.  rtt_p50_ms is the
// mean of the rounds' medians: the host runs in phases lasting seconds, at
// speeds up to 1.6x apart, and the mean follows their mix smoothly where
// one median over all requests flips between them.  Outputs are checked
// after the window: each schedule is lint-clean, its sim::simulate replay
// does not exceed its makespan, and every call of a pair returned the
// schedule a fresh call returns.
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <stdexcept>

#include "analysis/schedule_lints.hpp"
#include "bench.hpp"
#include "core/registry.hpp"
#include "metrics/metrics.hpp"
#include "net/codec.hpp"

namespace perfbench {

namespace {

namespace serve = tsched::serve;

struct Instance {
    serve::TraceRequest trace;
    std::shared_ptr<const tsched::Problem> problem;
};

/// Instances per (size, beta) point: averaging several DAGs keeps the
/// run-to-run spread of slr_mean and tasks_per_s small.
constexpr std::size_t kInstancesPerPoint = 4;

/// One (instance, algorithm) pair and what its timed calls returned.
struct Pair {
    std::size_t instance = 0;
    std::size_t algo = 0;
    std::optional<tsched::Schedule> last;  ///< the window's last schedule
    std::vector<double> makespans;         ///< one per timed call
    double call_ms_sum = 0.0;              ///< traced reconciliation
};


}  // namespace

Result run_offline(const Options& options) {
    const std::vector<std::size_t> sizes =
        options.tiny ? std::vector<std::size_t>{40, 80, 160}
                     : std::vector<std::size_t>{400, 2000, 10000};
    const auto& algos = offline_algos();
    std::vector<tsched::SchedulerPtr> schedulers;
    for (const auto& algo : algos) schedulers.push_back(tsched::make_scheduler(algo));

    // --- set-up: generate the instances and warm each scheduler up on one
    // instance per size; repeated, the last repetition's instances are kept.
    std::vector<double> setup_s;
    std::vector<Instance> instances;
    for (std::size_t rep = 0; rep < (options.tiny ? 1 : 5); ++rep) {
        const Clock::time_point t = Clock::now();
        instances.clear();
        std::uint64_t index = 0;
        for (const std::size_t tasks : sizes) {
            for (const double beta : {1.0, 0.0}) {
                for (std::size_t k = 0; k < kInstancesPerPoint; ++k) {
                    Instance instance;
                    instance.trace =
                        descriptor("heft", tasks, beta, mix(options.seed, 0x0FF1), index++);
                    instance.problem = serve::materialize(instance.trace).problem;
                    instances.push_back(std::move(instance));
                }
            }
        }
        for (std::size_t i = 0; i < instances.size(); i += 2 * kInstancesPerPoint) {
            for (const auto& scheduler : schedulers) {
                if (!(scheduler->schedule(*instances[i].problem).makespan() > 0.0)) {
                    throw std::runtime_error("warm-up: empty schedule");
                }
            }
        }
        setup_s.push_back(seconds_between(t, Clock::now()));
    }
    std::vector<Pair> pairs;
    for (std::size_t i = 0; i < instances.size(); ++i) {
        for (std::size_t a = 0; a < algos.size(); ++a) pairs.push_back(Pair{i, a, {}, {}, 0.0});
    }

    // --- timed window: whole rounds until the time is up --------------------
    std::vector<double> round_ms(instances.size());  // this round's requests
    std::vector<double> round_p50, round_p99;
    double tasks_done = 0.0;
    const CpuTimes cpu_before = cpu_times();
    const Clock::time_point start = Clock::now();
    Clock::time_point end = start;
    std::size_t rounds = 0;
    // Sizes alternate within a round, so the requests of each size are spread
    // over the whole window rather than bunched in one stretch of it.
    const std::size_t per_size = instances.size() / sizes.size();
    do {
        for (std::size_t j = 0; j < instances.size(); ++j) {
            const std::size_t i = (j % sizes.size()) * per_size + j / sizes.size();
            const tsched::Problem& problem = *instances[i].problem;
            double ms_sum = 0.0;
            for (std::size_t a = 0; a < algos.size(); ++a) {
                Pair& pair = pairs[i * algos.size() + a];
                const Clock::time_point t = Clock::now();
                pair.last = schedulers[a]->schedule(problem);
                const double ms = seconds_between(t, Clock::now()) * 1e3;
                ms_sum += ms;
                pair.call_ms_sum += ms;
                pair.makespans.push_back(pair.last->makespan());
            }
            round_ms[j] = ms_sum;
            tasks_done += static_cast<double>(problem.num_tasks() * algos.size());
        }
        ++rounds;
        round_p50.push_back(percentile(round_ms, 0.50));
        round_p99.push_back(percentile(round_ms, 0.99));
        end = Clock::now();
    } while (seconds_between(start, end) < options.seconds);
    const double steal = steal_share(cpu_before, cpu_times());
    const double peak_rss = peak_rss_mb();
    const double wall_s = seconds_between(start, end);

    // --- checks, outside the window ------------------------------------------
    // The reference is a fresh call of the same scheduler: every timed call of
    // a pair must have returned exactly that schedule.  A request fails when
    // one of its calls did.
    Result result;
    result.attempted = rounds * instances.size();
    std::vector<char> bad(instances.size() * rounds, 0);  // [instance][round]
    double slr_sum = 0.0;
    std::size_t slack = 0;
    for (const Pair& pair : pairs) {
        const tsched::Problem& problem = *instances[pair.instance].problem;
        const tsched::Schedule& last = *pair.last;
        const tsched::Schedule reference = schedulers[pair.algo]->schedule(problem);
        const std::string where = algos[pair.algo] + " on n=" +
                                  std::to_string(problem.num_tasks()) + " instance " +
                                  std::to_string(pair.instance);
        bool good = true;
        tsched::analysis::Diagnostics diags;
        tsched::analysis::ScheduleLintOptions lint;
        lint.quality = false;
        tsched::analysis::lint_schedule(last, problem, diags, lint);
        if (diags.has_errors()) {
            result.error(where + ": schedule is not lint-clean");
            good = false;
        }
        double simulated = 0.0;
        const Replay replay = replay_makespan(last, problem, simulated);
        if (replay != Replay::kExact) {
            std::fprintf(stderr, "%s: %s: simulated makespan %.6f, schedule makespan %.6f\n",
                         replay == Replay::kSlack ? "slack" : "check failed", where.c_str(),
                         simulated, last.makespan());
        }
        slack += replay == Replay::kSlack ? 1 : 0;
        if (replay == Replay::kExceeds) {
            result.error(where + ": simulated makespan exceeds the schedule's");
            good = false;
        }
        if (tsched::net::encode_schedule(last) != tsched::net::encode_schedule(reference)) {
            result.error(where + ": schedule differs from a fresh call");
            good = false;
        }
        for (std::size_t r = 0; r < rounds; ++r) {
            if (!good || pair.makespans[r] != reference.makespan()) {
                bad[pair.instance * rounds + r] = 1;
            }
        }
        slr_sum += tsched::slr(reference, problem);
    }

    for (const char b : bad) result.failed += b != 0 ? 1 : 0;

    const double qps = static_cast<double>(result.attempted) / wall_s;
    const double rtt_p50 = mean(round_p50);
    const double rtt_p99 = median(round_p99);
    std::printf("offline: %zu rounds x %zu requests of %zu calls in %.3f s; over rounds: mean"
                " p50 %.3f ms, median p99 %.3f ms (%zu samples)\n",
                rounds, instances.size(), algos.size(), wall_s, rtt_p50, rtt_p99,
                static_cast<std::size_t>(result.attempted));
    std::printf("  %zu of %zu schedules replay shorter than stated (slack); host steal %.1f%%\n",
                slack, pairs.size(), 100.0 * steal);

    if (!options.trace) {
        result.add("qps", qps, "1/s");
        result.add("rtt_p50_ms", rtt_p50, "ms");
        result.add("ok_frac",
                   1.0 - static_cast<double>(result.failed) / static_cast<double>(result.attempted),
                   "ratio");
        result.add("tasks_per_s", tasks_done / wall_s, "1/s");
        result.add("slr_mean", slr_sum / static_cast<double>(pairs.size()), "ratio");
        result.add("setup_s", median(setup_s), "s");
        result.add("peak_rss_mb", peak_rss, "MB");
        return result;
    }

    // --- traced run ----------------------------------------------------------
    // Per-algorithm span totals of the window must add back up to its wall.
    std::printf("per-algorithm time in the window (%zu rounds)\n", rounds);
    double covered_ms = 0.0;
    for (std::size_t a = 0; a < algos.size(); ++a) {
        double total = 0.0;
        for (const Pair& pair : pairs) total += pair.algo == a ? pair.call_ms_sum : 0.0;
        covered_ms += total;
        std::printf("  %-8s %12.1f ms  %5.1f%%\n", algos[a].c_str(), total,
                    100.0 * total / (wall_s * 1e3));
    }
    const double coverage = covered_ms / (wall_s * 1e3);
    std::printf("  %-8s %12.1f ms  %5.1f%% of the %.1f ms wall\n", "sum", covered_ms,
                100.0 * coverage, wall_s * 1e3);
    if (std::fabs(1.0 - coverage) > 0.05) {
        result.error("per-algorithm times cover " + std::to_string(100.0 * coverage) +
                     "% of the window wall, not within 5%");
    }

    // The serve/net stages on this workload's instances as wire requests.
    std::vector<serve::TraceRequest> stream;
    for (const Pair& pair : pairs) {
        serve::TraceRequest trace = instances[pair.instance].trace;
        trace.algo = algos[pair.algo];
        stream.push_back(trace);
    }
    const StageMedians stages = replay_stages(stream, 1);
    report_stages(result, stages, false, rtt_p50, result.attempted);
    result.add("rtt_p99_ms", rtt_p99, "ms");
    result.add("host.steal_frac", steal, "ratio");
    result.add("serve.hit_rate", stages.engine.hit_rate(), "ratio");
    result.add("serve.computed", static_cast<double>(stages.engine.computed), "count");
    result.add("serve.evictions", static_cast<double>(stages.engine.cache.evictions), "count");
    result.add("serve.shed", static_cast<double>(stages.engine.shed), "count");
    result.add("net.bytes_per_req", stages.bytes_per_req, "B");
    result.add("net.backpressure_pauses", 0.0, "count");
    report_scheduler_layers(result, options.seed, options.tiny, slack);
    return result;
}

}  // namespace perfbench
