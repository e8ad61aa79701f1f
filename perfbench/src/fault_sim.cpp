// fault_sim: BatchSimulator::detection_matrix on the largest registry
// circuits, one-shot and after prepare(), with the process-default sim
// backend on a 1-thread pool. The batch per circuit is
// kBatch tests: ATPG tests for a seeded sample of P0 faults, filled up with
// random tests (random tests alone detect almost nothing on these circuits).
// The sim backends, PreparedBatch and the runtime pool do all the work here
// and almost none elsewhere, which makes this the workload that judges
// backend and scratch-arena changes.
#include <algorithm>
#include <cstdio>
#include <optional>

#include "base/rng.hpp"
#include "bench.hpp"
#include "checks.hpp"
#include "faultsim/batch_sim.hpp"
#include "gen/registry.hpp"
#include "runtime/thread_pool.hpp"
#include "sim/prepared.hpp"

namespace perfbench {
namespace {

const std::vector<std::string> kCircuits = {"s9234r_like", "s13207_like"};
constexpr std::size_t kNp = 10000;
constexpr std::size_t kNp0 = 300;
constexpr std::size_t kAtpgTargets = 64;  // sampled P0 faults per circuit
constexpr std::size_t kBatch = 8192;      // tests per circuit
constexpr std::size_t kOracleSample = 4;  // oracle-checked test columns
constexpr int kSetupReps = 3;

struct Batch {
  std::optional<pdf::Netlist> nl;
  std::vector<pdf::TargetFault> faults;  // P = P0 then P1
  std::vector<pdf::TwoPatternTest> tests;
  std::size_t atpg_tests = 0;  // tests[0, atpg_tests) come from the ATPG
  std::optional<pdf::BatchSimulator> sim;
  pdf::sim::PreparedBatch prep;
  pdf::DetectionMatrix reference;  // the first one-shot matrix
};

pdf::TwoPatternTest random_test(std::size_t inputs, pdf::Rng& rng) {
  pdf::TwoPatternTest t;
  t.pi_values.resize(inputs);
  for (pdf::Triple& v : t.pi_values) {
    const pdf::V3 v1 = rng.coin() ? pdf::V3::One : pdf::V3::Zero;
    const pdf::V3 v3 = rng.coin() ? pdf::V3::One : pdf::V3::Zero;
    v = pdf::Triple{v1, v1 == v3 ? v1 : pdf::V3::X, v3};
  }
  return t;
}

void build_batch(Tracer& tracer, const std::string& name, std::uint64_t seed,
                 std::uint64_t op_id, Batch& b) {
  {
    const Span s(tracer, "gen.benchmark_circuit", op_id);
    b.nl.emplace(pdf::benchmark_circuit(name));
  }
  pdf::TargetSetConfig tc;
  tc.n_p = kNp;
  tc.n_p0 = kNp0;
  pdf::TargetSets ts;
  {
    const Span s(tracer, "enrich.build_target_sets", op_id);
    ts = pdf::build_target_sets(*b.nl, tc);
  }
  b.faults = ts.p0;
  b.faults.insert(b.faults.end(), ts.p1.begin(), ts.p1.end());

  pdf::Rng rng(seed);
  std::vector<pdf::TargetFault> sample = ts.p0;
  for (std::size_t i = sample.size(); i > 1; --i) {
    std::swap(sample[i - 1], sample[rng.below(i)]);
  }
  sample.resize(std::min(sample.size(), kAtpgTargets));
  pdf::GeneratorConfig g;
  g.heuristic = pdf::CompactionHeuristic::None;
  g.seed = rng.next();
  {
    const Span s(tracer, "atpg.basic", op_id);
    b.tests = pdf::generate_tests(*b.nl, sample, {}, g).tests;
  }
  b.atpg_tests = b.tests.size();
  while (b.tests.size() < kBatch) {
    b.tests.push_back(random_test(b.nl->inputs().size(), rng));
  }
  b.sim.emplace(*b.nl);
}

double popcount(const pdf::DetectionMatrix& m) {
  double n = 0;
  for (const std::uint64_t w : m.words()) n += __builtin_popcountll(w);
  return n;
}

}  // namespace

int run_fault_sim(const Options& o, RunResult& r) {
  // One thread: on a 4-core host a 4-thread pool gave round times 51-61 ms
  // for one seed from run to run, wider than any bound; one thread stays
  // within a few percent. See README.md.
  pdf::runtime::set_global_threads(1);
  Tracer tracer(o.trace);

  std::vector<Batch> batches;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const auto t0 = Clock::now();
    batches = std::vector<Batch>(kCircuits.size());
    for (std::size_t i = 0; i < kCircuits.size(); ++i) {
      build_batch(tracer, kCircuits[i], derive_seed(o.seed, i), i + 1, batches[i]);
    }
    setup_s.push_back(seconds_since(t0));
  }

  EndToEnd e2e;
  e2e.setup_s = median(setup_s);
  std::vector<double> round_s, latencies_ms;
  double pairs_per_round = 0;
  const CounterDeltas counters;
  run_rounds(o.seconds, [&](std::size_t round) {
    double busy = 0;
    for (std::size_t i = 0; i < batches.size(); ++i) {
      Batch& b = batches[i];
      const std::uint64_t op = round * batches.size() + i + 1;
      if (round == 0) {
        pairs_per_round += 2.0 * static_cast<double>(b.faults.size() * b.tests.size());
      }
      // One-shot matrix, then prepare + prepared matrix: two operations.
      r.attempted += 2;
      try {
        auto t0 = Clock::now();
        pdf::DetectionMatrix m;
        {
          const Span s(tracer, "faultsim.matrix", op);
          m = b.sim->detection_matrix(b.tests, b.faults);
        }
        double ms = seconds_since(t0) * 1e3;
        latencies_ms.push_back(ms);
        busy += ms;
        if (round == 0) b.reference = m;
        check_same_matrix(m, b.reference, kCircuits[i] + " one-shot", r.check_failures);

        t0 = Clock::now();
        {
          const Span s(tracer, "faultsim.prepare", op);
          b.sim->prepare(b.tests, b.faults, b.prep);
        }
        const double prep_ms = seconds_since(t0) * 1e3;
        t0 = Clock::now();
        {
          const Span s(tracer, "faultsim.matrix_prepared", op);
          m = b.sim->detection_matrix(b.tests, b.faults, b.prep);
        }
        ms = seconds_since(t0) * 1e3;
        latencies_ms.push_back(prep_ms + ms);
        busy += prep_ms + ms;
        check_same_matrix(m, b.reference, kCircuits[i] + " prepared", r.check_failures);
      } catch (const std::exception& ex) {
        ++r.failed;
        std::fprintf(stderr, "%s matrix failed: %s\n", kCircuits[i].c_str(), ex.what());
      }
    }
    round_s.push_back(busy / 1e3);
  });
  e2e.campaign_s = median(round_s);
  e2e.set_latencies(latencies_ms);
  e2e.jobs_per_s = 2.0 * static_cast<double>(batches.size()) / e2e.campaign_s;

  for (std::size_t i = 0; i < batches.size(); ++i) {
    const Batch& b = batches[i];
    for (std::size_t f = 0; f < b.reference.fault_count(); ++f) {
      if (b.reference.any(f)) e2e.p01_detected += 1;
    }
    e2e.enriched_tests += static_cast<double>(b.atpg_tests);
    // Oracle columns: half from the ATPG tests, half random ones.
    pdf::Rng rng(derive_seed(o.seed, 500 + i));
    std::vector<std::size_t> sample;
    for (std::size_t k = 0; k < kOracleSample; ++k) {
      const bool atpg = k % 2 == 0 && b.atpg_tests > 0;
      sample.push_back(atpg ? rng.below(b.atpg_tests)
                            : b.atpg_tests + rng.below(b.tests.size() - b.atpg_tests));
    }
    check_matrix_columns(*b.nl, b.tests, b.faults, b.reference, sample,
                         kCircuits[i] + " oracle columns", r.check_failures);
  }

  if (!o.trace) {
    e2e.emit(r);
    return 0;
  }
  e2e.emit_traced(r);
  counters.emit(r);
  r.set("faultsim.matrix_ms", median_ns(tracer, "faultsim.matrix") / 1e6, "ms");
  r.set("faultsim.prepare_ms", median_ns(tracer, "faultsim.prepare") / 1e6, "ms");
  r.set("faultsim.matrix_prepared_ms",
        median_ns(tracer, "faultsim.matrix_prepared") / 1e6, "ms");
  double pairs = 0;
  for (const Batch& b : batches) pairs += popcount(b.reference);
  r.set("faultsim.detected_pairs", pairs, "count");
  r.set("faultsim.mpairs_per_s", pairs_per_round / median(round_s) / 1e6, "Mpairs/s");
  r.set("gen.circuit_us", median_ns(tracer, "gen.benchmark_circuit") / 1e3, "us");
  FrontEndTimes front;
  for (std::size_t i = 0; i < batches.size(); ++i) {
    front.time_circuit(tracer, *batches[i].nl, kNp, i + 1);
  }
  front.emit(r);
  emit_self_times(tracer, r);
  return write_trace(tracer, o) ? 0 : 1;
}

}  // namespace perfbench
