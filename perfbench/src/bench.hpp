// Shared plumbing of the perfbench workloads: options, the result record
// every run prints, a monotonic clock and order statistics.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "netlist/netlist.hpp"
#include "trace.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Fresh scratch directory for stores; removed by the caller afterwards.
  std::filesystem::path tmp_dir;
  /// Chrome-trace output of the traced run.
  std::filesystem::path trace_out;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one run reports. `metrics` holds the end-to-end metrics of an
/// untraced run, or the per-layer metrics of a traced run.
struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Output checks that failed on operations that did complete.
  std::vector<std::string> check_failures;
  std::map<std::string, Metric> metrics;
  /// Traced runs only: the end-to-end round time measured with spans on,
  /// which run.py compares with the untraced run of the same seed.
  double traced_campaign_s = 0.0;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
};

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Linear-interpolated quantile q in [0, 1] of `v` (copied; empty -> 0).
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Peak resident set size of this process, MiB.
double peak_rss_mib();

/// Deterministic 64-bit mix of the run seed with a stream index, so every
/// input a workload generates derives from --seed alone.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

/// The end-to-end metrics every workload reports (see README.md).
struct EndToEnd {
  double setup_s = 0.0;
  double campaign_s = 0.0;
  double jobs_per_s = 0.0;
  double latency_p50_ms = 0.0;
  double latency_p99_ms = 0.0;
  double p01_detected = 0.0;
  double enriched_tests = 0.0;

  /// p50/p99 over every completed operation's latency.
  void set_latencies(const std::vector<double>& latencies_ms);
  /// Untraced run: every end-to-end metric.
  void emit(RunResult& r) const;
  /// Traced run: what run.py compares against the untraced run, and the
  /// latency tail, which is too unsteady run to run to carry a bound.
  void emit_traced(RunResult& r) const;
};

/// Runs whole rounds of a workload's fixed operation list, round(0),
/// round(1), ..., until the next round would end after `seconds` (judged by
/// the last round's duration). At least one round always runs.
template <typename Round>
void run_rounds(double seconds, Round&& round) {
  const auto t0 = Clock::now();
  std::size_t n = 0;
  double last = 0.0;
  do {
    const auto tr = Clock::now();
    round(n++);
    last = seconds_since(tr);
  } while (seconds_since(t0) + last <= seconds);
}

/// Metrics-registry counters sampled at construction; emit() records their
/// deltas since then as the runtime/sim/store per-layer metrics.
class CounterDeltas {
 public:
  CounterDeltas();
  std::uint64_t delta(const std::string& name) const;
  void emit(RunResult& r) const;

 private:
  std::map<std::string, std::uint64_t> start_;
  std::string scratch_grows_;  // sim.<selected backend>.scratch_grows
};

/// Sum / median of the durations of every span named `name`, in ns.
double sum_ns(const Tracer& tracer, const std::string& name);
double median_ns(const Tracer& tracer, const std::string& name);

/// Traced runs: enumeration and screening — the front end of
/// build_target_sets — called alone, summed over circuits.
struct FrontEndTimes {
  double enumerate_ms = 0.0;
  double paths = 0.0;
  double screen_ms = 0.0;
  double kept = 0.0;

  void time_circuit(Tracer& tracer, const pdf::Netlist& nl, std::size_t n_p,
                    std::uint64_t op_id);
  void emit(RunResult& r) const;
};

/// Writes the traced run's span file to o.trace_out; false on failure.
bool write_trace(const Tracer& tracer, const Options& o);

int run_enrich_cold(const Options& o, RunResult& r);
int run_serve_warm(const Options& o, RunResult& r);
int run_fault_sim(const Options& o, RunResult& r);

/// Records the layer's self time from the tracer into `r` as
/// `self.<layer>_ms`, for every layer named in kLayers.
void emit_self_times(const Tracer& tracer, RunResult& r);

/// Layers whose self time a traced run reports.
inline const std::vector<std::string> kLayers = {
    "gen", "paths", "faults", "enrich", "atpg", "faultsim", "store", "serve"};

}  // namespace perfbench
