#include "checks.hpp"

#include <algorithm>

#include "obs/json.hpp"
#include "oracle/oracle.hpp"

namespace perfbench {
namespace {

std::vector<pdf::PathDelayFault> faults_of(
    std::span<const pdf::TargetFault> tfs) {
  std::vector<pdf::PathDelayFault> out;
  out.reserve(tfs.size());
  for (const auto& tf : tfs) out.push_back(tf.fault);
  return out;
}

std::size_t count_true(const std::vector<bool>& v) {
  return static_cast<std::size_t>(std::count(v.begin(), v.end(), true));
}

void compare_flags(const std::vector<bool>& got, const std::vector<bool>& want,
                   const std::string& what, Failures& out) {
  if (got.size() != want.size()) {
    out.push_back(what + ": " + std::to_string(got.size()) + " flags, oracle has " +
                  std::to_string(want.size()));
    return;
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i] != want[i]) {
      out.push_back(what + ": fault " + std::to_string(i) + " flagged " +
                    (got[i] ? "detected" : "undetected") +
                    ", oracle disagrees");
      return;
    }
  }
}

}  // namespace

OracleFlags oracle_flags(const pdf::Netlist& nl,
                         std::span<const pdf::TwoPatternTest> tests,
                         const pdf::TargetSets& ts) {
  return {pdf::oracle::detects_any(nl, tests, faults_of(ts.p0)),
          pdf::oracle::detects_any(nl, tests, faults_of(ts.p1))};
}

void check_target_sets(const pdf::Netlist& nl, const pdf::TargetSets& ts,
                       const std::string& what, Failures& out) {
  if (ts.p0.empty()) out.push_back(what + ": P0 is empty");
  const auto check_length = [&](const pdf::TargetFault& tf, bool in_p0) {
    const int len = pdf::oracle::complete_path_length(nl, tf.fault.path.nodes);
    if (len != tf.fault.length) {
      out.push_back(what + ": fault length " + std::to_string(tf.fault.length) +
                    ", oracle counts " + std::to_string(len) + " lines");
      return false;
    }
    if (in_p0 != (tf.fault.length >= ts.cutoff_length)) {
      out.push_back(what + ": " + (in_p0 ? "P0" : "P1") + " fault of length " +
                    std::to_string(tf.fault.length) + " on the wrong side of " +
                    "cutoff " + std::to_string(ts.cutoff_length));
      return false;
    }
    return true;
  };
  for (const auto& tf : ts.p0) {
    if (!check_length(tf, true)) return;
  }
  for (const auto& tf : ts.p1) {
    if (!check_length(tf, false)) return;
  }
}

void check_detection_flags(const pdf::GenerationResult& r,
                           const OracleFlags& oracle, const std::string& what,
                           Failures& out) {
  compare_flags(r.detected_p0, oracle.p0, what + " P0 flags", out);
  if (!r.detected_p1.empty() || oracle.p1.empty()) {
    compare_flags(r.detected_p1, oracle.p1, what + " P1 flags", out);
  }
}

void check_primary_targets(const pdf::Netlist& nl,
                           const pdf::GenerationResult& r,
                           std::span<const pdf::TargetFault> p0,
                           const std::string& what, Failures& out) {
  if (r.primary_targets.size() != r.tests.size()) {
    out.push_back(what + ": " + std::to_string(r.tests.size()) + " tests but " +
                  std::to_string(r.primary_targets.size()) + " primary targets");
    return;
  }
  if (r.tests.size() > p0.size()) {
    out.push_back(what + ": more tests than P0 faults");
  }
  std::vector<bool> used(p0.size(), false);
  for (std::size_t i = 0; i < r.tests.size(); ++i) {
    const std::size_t target = r.primary_targets[i];
    if (target >= p0.size() || used[target]) {
      out.push_back(what + ": primary target " + std::to_string(target) +
                    " of test " + std::to_string(i) +
                    " is out of P0 or repeated");
      return;
    }
    used[target] = true;
    if (!pdf::oracle::detects(nl, r.tests[i], p0[target].fault)) {
      out.push_back(what + ": test " + std::to_string(i) +
                    " does not robustly detect its primary target");
      return;
    }
  }
}

void check_coverage(const pdf::UnionCoverage& c, const OracleFlags& oracle,
                    const std::string& what, Failures& out) {
  if (c.p0_total != oracle.p0.size() || c.p1_total != oracle.p1.size() ||
      c.p0_detected != count_true(oracle.p0) ||
      c.p1_detected != count_true(oracle.p1)) {
    out.push_back(what + ": coverage " + std::to_string(c.p0_detected) + "+" +
                  std::to_string(c.p1_detected) + " detected, oracle " +
                  std::to_string(count_true(oracle.p0)) + "+" +
                  std::to_string(count_true(oracle.p1)));
  }
}

void check_response(const pdf::serve::Response& resp,
                    const std::string& expected_result,
                    const std::string& what, Failures& out) {
  if (resp.status != pdf::serve::Status::Ok) {
    out.push_back(what + ": status " + pdf::serve::status_name(resp.status) +
                  " (" + resp.error.message + ")");
    return;
  }
  if (resp.result.dump() != expected_result) {
    out.push_back(what + ": result bytes differ from the cold uncached run");
    return;
  }
  try {
    const auto field = [&](const char* key) {
      return resp.result.at(key).as_int();
    };
    if (field("union_detected") != field("p0_detected") + field("p1_detected") ||
        field("union_detected") > field("union_total")) {
      out.push_back(what + ": inconsistent union counts");
    }
  } catch (const std::exception& e) {
    out.push_back(what + ": malformed result (" + e.what() + ")");
  }
}

void check_same_matrix(const pdf::DetectionMatrix& got,
                       const pdf::DetectionMatrix& want,
                       const std::string& what, Failures& out) {
  if (!(got == want)) out.push_back(what + ": matrix differs from the reference");
}

void check_matrix_columns(const pdf::Netlist& nl,
                          std::span<const pdf::TwoPatternTest> tests,
                          std::span<const pdf::TargetFault> faults,
                          const pdf::DetectionMatrix& m,
                          std::span<const std::size_t> sample,
                          const std::string& what, Failures& out) {
  if (m.fault_count() != faults.size() || m.test_count() != tests.size()) {
    out.push_back(what + ": matrix shape does not match the batch");
    return;
  }
  const std::vector<pdf::PathDelayFault> fs = faults_of(faults);
  for (const std::size_t t : sample) {
    const std::vector<bool> want =
        pdf::oracle::detects_any(nl, tests.subspan(t, 1), fs);
    for (std::size_t f = 0; f < fs.size(); ++f) {
      if (m.bit(f, t) != want[f]) {
        out.push_back(what + ": bit (fault " + std::to_string(f) + ", test " +
                      std::to_string(t) + ") disagrees with the oracle");
        return;
      }
    }
  }
}

}  // namespace perfbench
