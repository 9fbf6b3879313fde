// Per-layer replay: the traced run's stage spans.
//
// Spans are taken here, around each public call, never inside the program:
// the stream is replayed serially through the same functions the server and
// the client run for one request, so each stage's median is its self time.
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "bench.hpp"
#include "core/registry.hpp"
#include "net/codec.hpp"
#include "net/frame.hpp"
#include "sched/ranks.hpp"
#include "serve/serve_engine.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

namespace {

namespace net = tsched::net;
namespace serve = tsched::serve;

/// Frame cap of the replay: large enough for an n = 10000 schedule.
constexpr std::size_t kReplayFrameCap = std::size_t{1} << 28;

constexpr std::size_t kLayerSizes[] = {100, 400, 2000, 10000};

}  // namespace

double StageMedians::path_sum(bool hit) const noexcept {
    return client_encode + frame_decode + decode_request + materialize +
           (hit ? engine_hit : engine_miss) + encode_response + encode_frame + client_decode;
}

StageMedians replay_stages(const std::vector<serve::TraceRequest>& stream,
                           std::size_t hit_passes) {
    tsched::ThreadPool pool(2);
    serve::ServeEngine engine(serve::ServeConfig{}, pool);
    std::vector<double> client_encode, frame_decode, decode_request, materialize, fingerprint,
        engine_hit, engine_miss, encode_response, encode_frame, client_decode;
    double bytes = 0.0;

    for (std::size_t pass = 0; pass <= hit_passes; ++pass) {
        for (std::size_t i = 0; i < stream.size(); ++i) {
            const std::uint64_t id = i + 1;

            auto t = Clock::now();
            net::WireRequest wire;
            wire.id = id;
            wire.trace = stream[i];
            const std::string request_frame = net::encode_frame(
                net::FrameType::kRequest, net::encode_request(wire), kReplayFrameCap);
            client_encode.push_back(us_since(t));

            t = Clock::now();
            net::FrameDecoder server_decoder(kReplayFrameCap);
            server_decoder.feed(request_frame);
            const std::optional<net::Frame> frame = server_decoder.next();
            frame_decode.push_back(us_since(t));
            if (!frame) throw std::runtime_error("replay: request frame did not decode");

            t = Clock::now();
            const net::WireRequest decoded = net::decode_request(frame->payload);
            decode_request.push_back(us_since(t));

            t = Clock::now();
            serve::ScheduleRequest request = serve::materialize(decoded.trace);
            materialize.push_back(us_since(t));

            t = Clock::now();
            const std::uint64_t fp = serve::fingerprint_request(request);
            fingerprint.push_back(us_since(t));

            t = Clock::now();
            const serve::ServeResult result = engine.serve(std::move(request));
            (result.cache_hit ? engine_hit : engine_miss).push_back(us_since(t));
            if (result.outcome != serve::ServeOutcome::kOk || result.fingerprint != fp) {
                throw std::runtime_error("replay: engine answer does not match the request");
            }

            t = Clock::now();
            const std::string response_payload =
                net::encode_response(net::make_response(id, result));
            encode_response.push_back(us_since(t));

            t = Clock::now();
            const std::string response_frame =
                net::encode_frame(net::FrameType::kResponse, response_payload, kReplayFrameCap);
            encode_frame.push_back(us_since(t));

            t = Clock::now();
            net::FrameDecoder client_decoder(kReplayFrameCap);
            client_decoder.feed(response_frame);
            const std::optional<net::Frame> reply = client_decoder.next();
            if (!reply) throw std::runtime_error("replay: response frame did not decode");
            const net::WireResponse response = net::decode_response(reply->payload);
            client_decode.push_back(us_since(t));
            if (response.id != id) throw std::runtime_error("replay: response id mismatch");

            bytes += static_cast<double>(request_frame.size() + response_frame.size());
        }
    }

    StageMedians out;
    out.client_encode = median(client_encode);
    out.frame_decode = median(frame_decode);
    out.decode_request = median(decode_request);
    out.materialize = median(materialize);
    out.fingerprint = median(fingerprint);
    out.engine_hit = median(engine_hit);
    out.engine_miss = median(engine_miss);
    out.encode_response = median(encode_response);
    out.encode_frame = median(encode_frame);
    out.client_decode = median(client_decode);
    out.samples = client_encode.size();
    out.engine = engine.stats();
    out.bytes_per_req = out.samples > 0 ? bytes / static_cast<double>(out.samples) : 0.0;
    return out;
}

void report_stages(Result& result, const StageMedians& stages, bool hit_path, double rtt_p50_ms,
                   std::size_t rtt_samples) {
    const double sum = stages.path_sum(hit_path);
    const double residual = rtt_p50_ms * 1e3 - sum;
    const std::pair<const char*, double> rows[] = {
        {"net.client_encode_us", stages.client_encode},
        {"net.frame_decode_us", stages.frame_decode},
        {"net.decode_request_us", stages.decode_request},
        {"serve.materialize_us", stages.materialize},
        {"serve.fingerprint_us", stages.fingerprint},
        {"serve.engine_hit_us", stages.engine_hit},
        {"serve.engine_miss_us", stages.engine_miss},
        {"net.encode_response_us", stages.encode_response},
        {"net.encode_frame_us", stages.encode_frame},
        {"net.client_decode_us", stages.client_decode},
    };
    std::printf("stage medians, serial replay of %zu requests (%s path)\n", stages.samples,
                hit_path ? "cache-hit" : "cache-miss");
    for (const auto& [name, value] : rows) {
        const bool off_path = std::string_view(name) ==
                                  (hit_path ? "serve.engine_miss_us" : "serve.engine_hit_us") ||
                              std::string_view(name) == "serve.fingerprint_us";
        std::printf("  %-26s %12.2f%s\n", name, value,
                    off_path ? "   (not in sum)" : "");
        result.add(name, value, "us");
    }
    std::printf("  %-26s %12.2f\n", "net.stage_sum_us", sum);
    std::printf("  %-26s %12.2f   (untraced window, %zu samples)\n", "rtt_p50", rtt_p50_ms * 1e3,
                rtt_samples);
    std::printf("  %-26s %12.2f\n", "net.rtt_residual_us", residual);
    result.add("net.stage_sum_us", sum, "us");
    result.add("net.rtt_residual_us", residual, "us");
}

const std::vector<std::string>& offline_algos() {
    static const std::vector<std::string> algos = {"heft", "ils", "ils-d", "dsh", "btdh"};
    return algos;
}

std::string scheduler_metric(const std::string& algo, std::size_t tasks) {
    const char* layer = algo.rfind("ils", 0) == 0 ? "core." : "sched.";
    return layer + algo + ".n" + std::to_string(tasks) + "_ms";
}

void report_scheduler_layers(Result& result, std::uint64_t seed, bool tiny,
                             std::size_t window_slack) {
    const auto& algos = offline_algos();
    std::vector<tsched::SchedulerPtr> schedulers;
    for (const auto& algo : algos) schedulers.push_back(tsched::make_scheduler(algo));

    std::printf("scheduler layer, median per call (layered DAGs, P=8, CCR 1, beta 0 and 1)\n");
    std::size_t slack = 0;  // schedules whose replay finishes earlier than stated
    std::size_t schedules = 0;
    std::printf("  %7s %12s", "n", "rank_us");
    for (const auto& algo : algos) std::printf(" %10s", (algo + "_ms").c_str());
    std::printf("\n");
    for (const std::size_t tasks : kLayerSizes) {
        const std::size_t reps =
            tiny ? 1 : (tasks <= 100 ? 10 : tasks <= 400 ? 5 : tasks <= 2000 ? 3 : 2);
        std::vector<double> rank_us;
        std::vector<std::vector<double>> call_ms(algos.size());
        std::uint64_t index = 0;
        for (std::size_t rep = 0; rep < reps; ++rep) {
            for (const double beta : {1.0, 0.0}) {
                const serve::ScheduleRequest instance =
                    serve::materialize(descriptor("heft", tasks, beta, mix(seed, 0x1A7E5),
                                                  index++));
                auto t = Clock::now();
                const std::vector<double> rank = tsched::upward_rank(*instance.problem);
                rank_us.push_back(us_since(t));
                if (rank.size() != tasks) throw std::runtime_error("upward_rank: wrong size");
                for (std::size_t a = 0; a < algos.size(); ++a) {
                    t = Clock::now();
                    const tsched::Schedule schedule = schedulers[a]->schedule(*instance.problem);
                    call_ms[a].push_back(us_since(t) / 1e3);
                    ++schedules;
                    double simulated = 0.0;
                    const Replay replay = replay_makespan(schedule, *instance.problem, simulated);
                    slack += replay == Replay::kSlack ? 1 : 0;
                    if (replay == Replay::kExceeds || !(schedule.makespan() > 0.0)) {
                        result.error(algos[a] + " at n=" + std::to_string(tasks) +
                                     ": makespan " + std::to_string(schedule.makespan()) +
                                     ", simulated " + std::to_string(simulated));
                    }
                }
            }
        }
        const double rank = median(rank_us);
        result.add("sched.rank.n" + std::to_string(tasks) + "_us", rank, "us");
        std::printf("  %7zu %12.1f", tasks, rank);
        for (std::size_t a = 0; a < algos.size(); ++a) {
            const double ms = median(call_ms[a]);
            result.add(scheduler_metric(algos[a], tasks), ms, "ms");
            std::printf(" %10.3f", ms);
        }
        std::printf("\n");
    }
    std::printf("  %zu of %zu schedules replay shorter than stated (slack); %zu more in the"
                " workload's own\n",
                slack, schedules, window_slack);
    result.add("sched.slack_schedules", static_cast<double>(slack + window_slack), "count");
}

}  // namespace perfbench
