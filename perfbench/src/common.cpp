#include <algorithm>
#include <cmath>
#include <fstream>
#include <string>

#include "bench.hpp"
#include "sim/event_sim.hpp"

namespace perfbench {

void Result::add(std::string name, double value, std::string unit) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
}

void Result::error(std::string message) { errors.push_back(std::move(message)); }

std::uint64_t mix(std::uint64_t a, std::uint64_t b, std::uint64_t c) noexcept {
    std::uint64_t z = a;
    for (const std::uint64_t part : {b, c}) {
        z += 0x9E3779B97F4A7C15ull + part;
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
        z ^= z >> 31;
    }
    return z;
}

double percentile(std::vector<double>& samples, double q) {
    if (samples.empty()) return 0.0;
    std::sort(samples.begin(), samples.end());
    const auto n = static_cast<double>(samples.size());
    const auto rank = static_cast<std::size_t>(std::max(1.0, std::ceil(q * n)));
    return samples[std::min(rank, samples.size()) - 1];
}

double median(std::vector<double> samples) { return percentile(samples, 0.5); }

double mean(const std::vector<double>& samples) {
    if (samples.empty()) return 0.0;
    double sum = 0.0;
    for (const double x : samples) sum += x;
    return sum / static_cast<double>(samples.size());
}

double peak_rss_mb() {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
    }
    return 0.0;
}

CpuTimes cpu_times() {
    std::ifstream stat("/proc/stat");
    std::string cpu;
    stat >> cpu;
    CpuTimes times;
    // user nice system idle iowait irq softirq steal (guest time is inside user)
    for (int field = 0; field < 8; ++field) {
        std::uint64_t ticks = 0;
        if (!(stat >> ticks)) return CpuTimes{};
        times.total += ticks;
        if (field == 7) times.steal = ticks;
    }
    return times;
}

double steal_share(const CpuTimes& before, const CpuTimes& after) {
    const std::uint64_t total = after.total - before.total;
    return total > 0 ? static_cast<double>(after.steal - before.steal) / static_cast<double>(total)
                     : 0.0;
}

Replay replay_makespan(const tsched::Schedule& schedule, const tsched::Problem& problem,
                       double& simulated) {
    simulated = tsched::sim::simulate(schedule, problem).makespan;
    const double stated = schedule.makespan();
    const double eps = 1e-9 * std::max(1.0, stated);
    if (simulated > stated + eps) return Replay::kExceeds;
    return simulated < stated - eps ? Replay::kSlack : Replay::kExact;
}

tsched::serve::TraceRequest descriptor(const std::string& algo, std::size_t tasks, double beta,
                                       std::uint64_t seed, std::uint64_t index) {
    tsched::serve::TraceRequest request;
    request.algo = algo;
    request.shape = tsched::workload::Shape::kLayered;
    request.size = tasks;
    request.procs = 8;
    request.net = tsched::workload::Net::kUniform;
    request.ccr = 1.0;
    request.beta = beta;
    // Seeds (seed, index) map one-to-one onto instance seeds for index < 2^32.
    request.seed = (seed << 32) ^ index;
    return request;
}

}  // namespace perfbench
