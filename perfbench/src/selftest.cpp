// Corruption tests of the perfbench output checks: each case runs the real
// pipeline on a small circuit, verifies the untouched output passes, then
// corrupts one thing (a detection flag, a test bit, a result byte, a matrix
// bit, ...) and requires the matching check to report it. Exit 0 when every
// case behaves. Run through `python3 perfbench/run.py --selftest`.
#include <cstdio>
#include <functional>
#include <string>

#include "checks.hpp"
#include "enrich/enrichment.hpp"
#include "faultsim/batch_sim.hpp"
#include "gen/registry.hpp"
#include "runtime/thread_pool.hpp"
#include "serve/job.hpp"

using namespace perfbench;

namespace {

int failures = 0;

void expect(const std::string& name, bool want_caught,
            const std::function<void(Failures&)>& check) {
  Failures out;
  check(out);
  const bool caught = !out.empty();
  const bool ok = caught == want_caught;
  std::printf("%-44s %s%s%s\n", name.c_str(), ok ? "ok" : "FAIL",
              caught ? "  (caught: " : "", caught ? (out.front() + ")").c_str() : "");
  if (!ok) ++failures;
}

std::size_t input_index(const pdf::Netlist& nl, pdf::NodeId id) {
  for (std::size_t i = 0; i < nl.inputs().size(); ++i) {
    if (nl.inputs()[i] == id) return i;
  }
  throw std::runtime_error("path source is not a primary input");
}

}  // namespace

int main() {
  pdf::runtime::set_global_threads(1);
  const pdf::Netlist nl = pdf::benchmark_circuit("s641_like");
  pdf::TargetSetConfig tc;
  tc.n_p = 300;
  tc.n_p0 = 40;
  const pdf::EnrichmentWorkbench wb(nl, tc);
  const pdf::TargetSets& ts = wb.targets();
  pdf::GeneratorConfig g;
  g.seed = 7;
  const pdf::GenerationResult enriched = wb.run_enriched(g);
  const pdf::UnionCoverage cov = wb.coverage_of(enriched);
  const OracleFlags oracle = oracle_flags(nl, enriched.tests, ts);

  // Untouched outputs pass.
  expect("target sets", false, [&](Failures& f) { check_target_sets(nl, ts, "ts", f); });
  expect("detection flags", false,
         [&](Failures& f) { check_detection_flags(enriched, oracle, "enriched", f); });
  expect("primary targets", false,
         [&](Failures& f) { check_primary_targets(nl, enriched, ts.p0, "enriched", f); });
  expect("coverage", false, [&](Failures& f) { check_coverage(cov, oracle, "cov", f); });

  // One flipped detection flag, in P0 and in P1.
  {
    pdf::GenerationResult bad = enriched;
    bad.detected_p0[0] = !bad.detected_p0[0];
    expect("flipped P0 detection flag", true,
           [&](Failures& f) { check_detection_flags(bad, oracle, "bad", f); });
  }
  {
    pdf::GenerationResult bad = enriched;
    bad.detected_p1.back() = !bad.detected_p1.back();
    expect("flipped P1 detection flag", true,
           [&](Failures& f) { check_detection_flags(bad, oracle, "bad", f); });
  }
  // One flipped test bit: the second pattern of the launch input of test 0's
  // primary target, which removes the launch transition.
  {
    pdf::GenerationResult bad = enriched;
    const pdf::PathDelayFault& target = ts.p0[bad.primary_targets[0]].fault;
    pdf::Triple& v = bad.tests[0].pi_values[input_index(nl, target.path.source())];
    v = pdf::steady(v.a1);
    expect("flipped test bit", true,
           [&](Failures& f) { check_primary_targets(nl, bad, ts.p0, "bad", f); });
  }
  {
    pdf::GenerationResult bad = enriched;
    bad.primary_targets.back() = bad.primary_targets.front();
    expect("repeated primary target", true,
           [&](Failures& f) { check_primary_targets(nl, bad, ts.p0, "bad", f); });
  }
  {
    pdf::UnionCoverage bad = cov;
    bad.p1_detected += 1;
    expect("coverage count off by one", true,
           [&](Failures& f) { check_coverage(bad, oracle, "bad", f); });
  }
  {
    pdf::TargetSets bad = ts;
    bad.p0.push_back(bad.p1.front());
    expect("P1 fault moved into P0", true,
           [&](Failures& f) { check_target_sets(nl, bad, "bad", f); });
  }
  {
    pdf::TargetSets bad = ts;
    bad.p1.back().fault.length -= 1;
    expect("fault length off by one", true,
           [&](Failures& f) { check_target_sets(nl, bad, "bad", f); });
  }

  // One altered result byte on the wire.
  {
    pdf::serve::Request req;
    req.circuit = "s641_like";
    req.target = tc;
    req.gen = g;
    const pdf::serve::JobContext uncached{nullptr, "", "", ""};
    const pdf::serve::Response resp = pdf::serve::run_job(req, uncached);
    const std::string expected = resp.result.dump();
    const std::string line = resp.to_line();
    expect("serve response", false, [&](Failures& f) {
      check_response(pdf::serve::parse_response(line), expected, "job", f);
    });
    std::string bad = line;
    const std::size_t at = bad.find("\"test_count\":") + 13;
    bad[at] = bad[at] == '9' ? '8' : static_cast<char>(bad[at] + 1);
    expect("altered result byte", true, [&](Failures& f) {
      check_response(pdf::serve::parse_response(bad), expected, "job", f);
    });
  }

  // Detection matrix: one flipped bit against the reference, and a flipped
  // bit in an oracle-sampled column.
  {
    std::vector<pdf::TargetFault> faults = ts.p0;
    faults.insert(faults.end(), ts.p1.begin(), ts.p1.end());
    const pdf::BatchSimulator sim(nl);
    const pdf::DetectionMatrix m = sim.detection_matrix(enriched.tests, faults);
    const std::vector<std::size_t> sample = {0, enriched.tests.size() - 1};
    expect("matrix oracle columns", false, [&](Failures& f) {
      check_matrix_columns(nl, enriched.tests, faults, m, sample, "m", f);
    });
    pdf::DetectionMatrix bad = m;
    bad.word(0, 0) ^= 1;  // fault 0, test 0
    expect("flipped matrix bit vs reference", true,
           [&](Failures& f) { check_same_matrix(bad, m, "m", f); });
    expect("flipped matrix bit vs oracle", true, [&](Failures& f) {
      check_matrix_columns(nl, enriched.tests, faults, bad, sample, "m", f);
    });
  }

  std::printf("%s\n", failures == 0 ? "selftest: all cases ok"
                                    : "selftest: FAILED");
  return failures == 0 ? 0 : 1;
}
