#include "bench.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "faults/fault.hpp"
#include "faults/screen.hpp"
#include "paths/enumerate.hpp"
#include "runtime/metrics.hpp"
#include "sim/backend.hpp"

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double peak_rss_mib() {
  // VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss across
  // execve, so a child of a larger parent would report the parent's peak.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  // splitmix64 finalizer over (seed, stream).
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream * 0xbf58476d1ce4e5b9ULL +
                    0x94d049bb133111ebULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void EndToEnd::set_latencies(const std::vector<double>& latencies_ms) {
  latency_p50_ms = quantile(latencies_ms, 0.50);
  latency_p99_ms = quantile(latencies_ms, 0.99);
}

void EndToEnd::emit(RunResult& r) const {
  r.set("setup_s", setup_s, "s");
  r.set("peak_rss_mib", peak_rss_mib(), "MiB");
  r.set("campaign_s", campaign_s, "s");
  r.set("jobs_per_s", jobs_per_s, "jobs/s");
  r.set("job_latency_p50_ms", latency_p50_ms, "ms");
  r.set("p01_detected", p01_detected, "faults");
  r.set("enriched_tests", enriched_tests, "tests");
}

void EndToEnd::emit_traced(RunResult& r) const {
  r.traced_campaign_s = campaign_s;
  r.set("job_latency_p99_ms", latency_p99_ms, "ms");
}

void emit_self_times(const Tracer& tracer, RunResult& r) {
  const auto times = tracer.layer_times();
  for (const std::string& layer : kLayers) {
    const auto it = times.find(layer);
    const double ms =
        it == times.end() ? 0.0 : static_cast<double>(it->second.self_ns) / 1e6;
    r.set("self." + layer + "_ms", ms, "ms");
  }
}

CounterDeltas::CounterDeltas()
    : scratch_grows_(std::string("sim.") + pdf::sim::selected_backend().name() +
                     ".scratch_grows") {
  for (const std::string& name :
       {std::string("runtime.chunks"), std::string("runtime.steals"),
        std::string("store.hits"), std::string("store.misses"),
        std::string("store.bytes_read"), scratch_grows_}) {
    start_[name] = pdf::runtime::Metrics::global().counter(name).read();
  }
}

std::uint64_t CounterDeltas::delta(const std::string& name) const {
  return pdf::runtime::Metrics::global().counter(name).read() - start_.at(name);
}

void CounterDeltas::emit(RunResult& r) const {
  const auto d = [&](const std::string& name) {
    return static_cast<double>(delta(name));
  };
  r.set("runtime.chunks", d("runtime.chunks"), "count");
  r.set("runtime.steals", d("runtime.steals"), "count");
  r.set("sim.scratch_grows", d(scratch_grows_), "count");
  r.set("store.hits", d("store.hits"), "count");
  r.set("store.misses", d("store.misses"), "count");
}

double sum_ns(const Tracer& tracer, const std::string& name) {
  double total = 0;
  for (const std::uint64_t ns : tracer.durations(name)) {
    total += static_cast<double>(ns);
  }
  return total;
}

double median_ns(const Tracer& tracer, const std::string& name) {
  const std::vector<std::uint64_t> ns = tracer.durations(name);
  return median(std::vector<double>(ns.begin(), ns.end()));
}

void FrontEndTimes::time_circuit(Tracer& tracer, const pdf::Netlist& nl,
                                 std::size_t n_p, std::uint64_t op_id) {
  const pdf::LineDelayModel dm(nl);
  pdf::EnumerationConfig ecfg;
  ecfg.max_faults = n_p;
  ecfg.faults_per_path = 2;
  auto t0 = Clock::now();
  pdf::EnumerationResult enumerated;
  {
    const Span s(tracer, "paths.enumerate", op_id);
    enumerated = pdf::enumerate_longest_paths(dm, ecfg);
  }
  enumerate_ms += seconds_since(t0) * 1e3;
  paths += static_cast<double>(enumerated.paths.size());
  t0 = Clock::now();
  pdf::ScreenStats stats;
  {
    const Span s(tracer, "faults.screen", op_id);
    (void)pdf::screen_faults(nl, pdf::faults_for_paths(enumerated.paths), &stats);
  }
  screen_ms += seconds_since(t0) * 1e3;
  kept += static_cast<double>(stats.kept);
}

void FrontEndTimes::emit(RunResult& r) const {
  r.set("paths.enumerate_ms", enumerate_ms, "ms");
  r.set("paths.enumerated_paths", paths, "paths");
  r.set("faults.screen_ms", screen_ms, "ms");
  r.set("faults.screen_kept", kept, "faults");
}

bool write_trace(const Tracer& tracer, const Options& o) {
  if (tracer.write_chrome_trace(o.trace_out)) return true;
  std::fprintf(stderr, "cannot write %s\n", o.trace_out.c_str());
  return false;
}

}  // namespace perfbench
