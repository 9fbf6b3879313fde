// tsched_perfbench: one workload of the tsched benchmark per invocation.
//
//   tsched_perfbench --workload wire-hot|wire-miss|offline [--seed N]
//                    [--seconds S] [--trace 0|1] [--tiny 0|1]
//
// Human-readable tables go to stdout first; the last stdout line is one JSON
// object {"correct", "attempted", "failed", "metrics"} holding the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
// Correctness findings go to stderr; any of them makes the exit code 1.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hpp"

namespace {

using perfbench::Options;
using perfbench::Result;

[[noreturn]] void usage(const char* why) {
    std::fprintf(stderr,
                 "tsched_perfbench: %s\n"
                 "usage: tsched_perfbench --workload wire-hot|wire-miss|offline [--seed N]\n"
                 "                        [--seconds S] [--trace 0|1] [--tiny 0|1]\n"
                 "default seed %llu; held-out seed %llu\n",
                 why, static_cast<unsigned long long>(perfbench::kDefaultSeed),
                 static_cast<unsigned long long>(perfbench::kHeldOutSeed));
    std::exit(2);
}

bool parse_flag(const std::string& value) {
    if (value == "1") return true;
    if (value == "0") return false;
    usage("flag values are 0 or 1");
}

Options parse(int argc, char** argv) {
    Options options;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (key == "--help" || key == "-h") usage("help");
        if (i + 1 >= argc) usage(("missing value for " + key).c_str());
        const std::string value = argv[++i];
        try {
            if (key == "--workload") {
                options.workload = value;
            } else if (key == "--seed") {
                options.seed = std::stoull(value);
            } else if (key == "--seconds") {
                options.seconds = std::stod(value);
            } else if (key == "--trace") {
                options.trace = parse_flag(value);
            } else if (key == "--tiny") {
                options.tiny = parse_flag(value);
            } else {
                usage(("unknown option " + key).c_str());
            }
        } catch (const std::logic_error&) {
            usage(("bad value for " + key).c_str());
        }
    }
    if (!(options.seconds > 0.0 && options.seconds <= 120.0)) {
        usage("--seconds must be in (0, 120]");
    }
    return options;
}

void print_json(const Result& result) {
    std::string out = "{\"correct\": ";
    out += result.correct() ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(result.attempted);
    out += ", \"failed\": " + std::to_string(result.failed);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < result.metrics.size(); ++i) {
        const auto& m = result.metrics[i];
        char value[64];
        std::snprintf(value, sizeof value, "%.17g", m.value);
        out += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
               m.unit + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
}

}  // namespace

int main(int argc, char** argv) {
    const Options options = parse(argc, argv);
    Result result;
    try {
        if (options.workload == "wire-hot" || options.workload == "wire-miss") {
            result = perfbench::run_wire(options, options.workload == "wire-hot");
        } else if (options.workload == "offline") {
            result = perfbench::run_offline(options);
        } else {
            usage("--workload must be wire-hot, wire-miss or offline");
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "tsched_perfbench: %s\n", e.what());
        return 1;
    }
    for (const auto& m : result.metrics) {
        if (!std::isfinite(m.value)) result.error("metric " + m.name + " is not finite");
    }
    for (const auto& e : result.errors) std::fprintf(stderr, "check failed: %s\n", e.c_str());
    if (result.failed > 0) {
        std::fprintf(stderr, "check failed: %llu of %llu requests\n",
                     static_cast<unsigned long long>(result.failed),
                     static_cast<unsigned long long>(result.attempted));
    }
    std::fflush(stdout);
    print_json(result);
    return result.correct() ? 0 : 1;
}
