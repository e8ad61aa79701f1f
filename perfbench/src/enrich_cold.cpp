// enrich_cold: the paper's Table-6 flow, cold (no artifact store), on a
// 1-thread pool. For each circuit: target sets, run_enriched, coverage_of,
// run_basic, simulate_union — the operation whose latency is reported. ATPG
// is more than 99% of the work; b04_like is probe-bound (millions of
// necessary-value probes), s1488_like is selection-bound (few probes, tens of
// thousands of rejected secondaries) and s1196_like sits between, so a
// probing change and a selection change each move a different circuit.
#include <cstdio>
#include <optional>

#include "atpg/justify.hpp"
#include "bench.hpp"
#include "checks.hpp"
#include "enrich/enrichment.hpp"
#include "gen/registry.hpp"
#include "runtime/thread_pool.hpp"

namespace perfbench {
namespace {

const std::vector<std::string> kCircuits = {"b04_like", "s1488_like",
                                            "s1196_like"};
constexpr std::size_t kNp = 4000;
constexpr std::size_t kNp0 = 300;
constexpr int kSetupReps = 25;

pdf::TargetSetConfig target_config() {
  pdf::TargetSetConfig tc;
  tc.n_p = kNp;
  tc.n_p0 = kNp0;
  return tc;
}

/// Everything one circuit's operation produced, kept for the checks.
struct CircuitRun {
  pdf::TargetSets targets;
  pdf::GenerationResult enriched;
  pdf::UnionCoverage enriched_cov;
  pdf::GenerationResult basic;
  pdf::UnionCoverage basic_cov;
};

CircuitRun run_circuit(Tracer& tracer, const pdf::Netlist& nl,
                       std::uint64_t gen_seed, std::uint64_t op_id) {
  const Span root(tracer, "bench.circuit", op_id);
  std::optional<pdf::EnrichmentWorkbench> wb;
  {
    const Span s(tracer, "enrich.target_sets");
    wb.emplace(nl, target_config());
  }
  pdf::GeneratorConfig g;
  g.heuristic = pdf::CompactionHeuristic::Value;
  g.seed = gen_seed;
  CircuitRun out;
  {
    const Span s(tracer, "atpg.enriched");
    out.enriched = wb->run_enriched(g);
  }
  {
    const Span s(tracer, "enrich.coverage_of");
    out.enriched_cov = wb->coverage_of(out.enriched);
  }
  {
    const Span s(tracer, "atpg.basic");
    out.basic = wb->run_basic(g);
  }
  {
    const Span s(tracer, "enrich.simulate_union");
    out.basic_cov = wb->simulate_union(out.basic.tests);
  }
  out.targets = wb->targets();
  return out;
}

void check_circuit(const pdf::Netlist& nl, const CircuitRun& c,
                   const std::string& name, Failures& out) {
  check_target_sets(nl, c.targets, name + " target sets", out);
  const OracleFlags enriched = oracle_flags(nl, c.enriched.tests, c.targets);
  check_detection_flags(c.enriched, enriched, name + " enriched", out);
  check_primary_targets(nl, c.enriched, c.targets.p0, name + " enriched", out);
  check_coverage(c.enriched_cov, enriched, name + " coverage_of", out);
  const OracleFlags basic = oracle_flags(nl, c.basic.tests, c.targets);
  check_detection_flags(c.basic, basic, name + " basic", out);
  check_primary_targets(nl, c.basic, c.targets.p0, name + " basic", out);
  check_coverage(c.basic_cov, basic, name + " simulate_union", out);
}

/// Traced run only: the layers below EnrichmentWorkbench called one at a
/// time, outside the timed rounds — enumeration, screening, and the
/// justifier alone on every target fault's requirements.
void isolated_layers(Tracer& tracer, const std::vector<pdf::Netlist>& nls,
                     const std::vector<std::optional<CircuitRun>>& runs, std::uint64_t seed,
                     RunResult& r) {
  FrontEndTimes front;
  for (std::size_t i = 0; i < nls.size(); ++i) {
    const pdf::Netlist& nl = nls[i];
    {
      const Span s(tracer, "gen.benchmark_circuit", i + 1);
      (void)pdf::benchmark_circuit(kCircuits[i]);
    }
    front.time_circuit(tracer, nl, kNp, i + 1);

    pdf::JustificationEngine engine(nl, derive_seed(seed, 100 + i));
    std::uint64_t calls = 0;
    const auto t0 = Clock::now();
    for (const auto* set : {&runs[i]->targets.p0, &runs[i]->targets.p1}) {
      for (const pdf::TargetFault& tf : *set) {
        const Span s(tracer, "atpg.justify", i + 1);
        (void)engine.justify(tf.requirements);
        ++calls;
      }
    }
    const double ns = seconds_since(t0) * 1e9;
    r.set("atpg.justify_us." + kCircuits[i], ns / 1e3 / static_cast<double>(calls), "us");
    const auto probes = static_cast<double>(engine.stats().probes);
    r.set("atpg.ns_per_probe." + kCircuits[i], probes > 0 ? ns / probes : 0.0, "ns");
    std::fprintf(stderr, "%s: justify alone %.1f us/call, %.0f probes/call\n",
                 kCircuits[i].c_str(), ns / 1e3 / static_cast<double>(calls),
                 probes / static_cast<double>(calls));
  }
  front.emit(r);
}

/// Counts come from the last round's results; span times are per round.
void generation_metrics(const Tracer& tracer,
                        const std::vector<std::optional<CircuitRun>>& runs,
                        double rounds, RunResult& r) {
  pdf::JustifyStats j;
  double accepted = 0, rejected = 0, primary_failures = 0;
  for (const auto& c : runs) {
    if (!c) continue;
    for (const auto* g : {&c->enriched, &c->basic}) {
      const pdf::JustifyStats& s = g->stats.justify;
      j.attempts += s.attempts;
      j.probes += s.probes;
      j.passes += s.passes;
      j.decisions += s.decisions;
      j.successes += s.successes;
      j.failures += s.failures;
      accepted += static_cast<double>(g->stats.secondary_accepted);
      rejected += static_cast<double>(g->stats.secondary_rejected);
      primary_failures += static_cast<double>(g->stats.primary_failures);
    }
  }
  r.set("atpg.justify_calls", static_cast<double>(j.successes + j.failures), "count");
  r.set("atpg.probes", static_cast<double>(j.probes), "count");
  r.set("atpg.passes", static_cast<double>(j.passes), "count");
  r.set("atpg.decisions", static_cast<double>(j.decisions), "count");
  r.set("atpg.justify_success_ratio",
        j.attempts ? static_cast<double>(j.successes) / static_cast<double>(j.attempts) : 0.0,
        "ratio");
  r.set("atpg.secondary_accepted", accepted, "count");
  r.set("atpg.secondary_rejected", rejected, "count");
  r.set("atpg.secondary_accept_ratio",
        accepted + rejected > 0 ? accepted / (accepted + rejected) : 0.0, "ratio");
  r.set("atpg.primary_failures", primary_failures, "count");
  const auto per_round = [&](const char* span) {
    return sum_ns(tracer, span) / rounds;
  };
  r.set("atpg.enriched_s", per_round("atpg.enriched") / 1e9, "s");
  r.set("atpg.basic_s", per_round("atpg.basic") / 1e9, "s");
  r.set("enrich.target_sets_ms", per_round("enrich.target_sets") / 1e6, "ms");
  r.set("enrich.coverage_ms",
        (per_round("enrich.coverage_of") + per_round("enrich.simulate_union")) / 1e6,
        "ms");
}

}  // namespace

int run_enrich_cold(const Options& o, RunResult& r) {
  pdf::runtime::set_global_threads(1);
  Tracer tracer(o.trace);

  // Set-up: materialize the netlists (the only work before the first timed
  // operation), several times for a steady median.
  std::vector<pdf::Netlist> nls;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const auto t0 = Clock::now();
    nls.clear();
    for (std::size_t i = 0; i < kCircuits.size(); ++i) {
      const Span s(tracer, "gen.benchmark_circuit", i + 1);
      nls.push_back(pdf::benchmark_circuit(kCircuits[i]));
    }
    setup_s.push_back(seconds_since(t0));
  }

  EndToEnd e2e;
  e2e.setup_s = median(setup_s);
  const CounterDeltas counters;
  std::vector<std::optional<CircuitRun>> runs(nls.size());
  std::vector<double> round_s, latencies_ms;
  run_rounds(o.seconds, [&](std::size_t round) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < nls.size(); ++i) {
      const auto op0 = Clock::now();
      ++r.attempted;
      runs[i].reset();
      try {
        runs[i] = run_circuit(tracer, nls[i], derive_seed(o.seed, i),
                              round * nls.size() + i + 1);
        latencies_ms.push_back(seconds_since(op0) * 1e3);
      } catch (const std::exception& ex) {
        ++r.failed;
        std::fprintf(stderr, "%s failed: %s\n", kCircuits[i].c_str(), ex.what());
      }
    }
    round_s.push_back(seconds_since(t0));
    for (std::size_t i = 0; i < nls.size(); ++i) {
      if (!runs[i]) continue;
      check_circuit(nls[i], *runs[i], kCircuits[i], r.check_failures);
      const pdf::GenerationStats& st = runs[i]->enriched.stats;
      std::fprintf(stderr,
                   "%s: enriched %zu tests in %.2f s (%llu justify calls, %llu "
                   "probes, %zu/%zu secondaries accepted/rejected), basic %zu "
                   "tests in %.2f s\n",
                   kCircuits[i].c_str(), runs[i]->enriched.tests.size(), st.seconds,
                   static_cast<unsigned long long>(st.justify.attempts),
                   static_cast<unsigned long long>(st.justify.probes),
                   st.secondary_accepted, st.secondary_rejected,
                   runs[i]->basic.tests.size(), runs[i]->basic.stats.seconds);
    }
  });
  e2e.campaign_s = median(round_s);
  double busy_s = 0;
  for (const double s : round_s) busy_s += s;
  e2e.jobs_per_s = static_cast<double>(latencies_ms.size()) / busy_s;
  e2e.set_latencies(latencies_ms);
  for (const auto& c : runs) {
    if (!c) continue;
    e2e.p01_detected += static_cast<double>(c->enriched_cov.union_detected());
    e2e.enriched_tests += static_cast<double>(c->enriched.tests.size());
  }

  if (!o.trace) {
    e2e.emit(r);
    return 0;
  }
  e2e.emit_traced(r);
  counters.emit(r);
  generation_metrics(tracer, runs, static_cast<double>(round_s.size()), r);
  if (r.failed == 0) isolated_layers(tracer, nls, runs, o.seed, r);
  r.set("gen.circuit_us", median_ns(tracer, "gen.benchmark_circuit") / 1e3, "us");
  emit_self_times(tracer, r);
  return write_trace(tracer, o) ? 0 : 1;
}

}  // namespace perfbench
