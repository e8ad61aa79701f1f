// Output checks of the perfbench workloads.
//
// Every check compares a library output with a computation made apart from
// the library's engines (the brute-force oracle in src/oracle/, which shares
// no code with them) or with a property the paper's method must have. A
// check appends one line per violation to `Failures`; an empty list means
// the output passed. selftest.cpp feeds each check a deliberately
// corrupted result and requires the corruption to be reported.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "atpg/generator.hpp"
#include "enrich/enrichment.hpp"
#include "enrich/target_sets.hpp"
#include "faultsim/detection_matrix.hpp"
#include "netlist/netlist.hpp"
#include "serve/protocol.hpp"

namespace perfbench {

using Failures = std::vector<std::string>;

/// Oracle detection flags of a test set over P0 and P1.
struct OracleFlags {
  std::vector<bool> p0;
  std::vector<bool> p1;
};
OracleFlags oracle_flags(const pdf::Netlist& nl,
                         std::span<const pdf::TwoPatternTest> tests,
                         const pdf::TargetSets& ts);

/// Every P0 fault is at least `cutoff_length` long and every P1 fault is
/// shorter; every fault's length equals the oracle's line count of its path.
void check_target_sets(const pdf::Netlist& nl, const pdf::TargetSets& ts,
                       const std::string& what, Failures& out);

/// The generator's `detected` flags equal the oracle's over P0, and over P1
/// when the run carried P1 bookkeeping (enrichment runs do, basic runs not).
void check_detection_flags(const pdf::GenerationResult& r,
                           const OracleFlags& oracle, const std::string& what,
                           Failures& out);

/// Each tests[i] robustly detects P0 fault primary_targets[i] (by the
/// oracle); primary targets are distinct indices into P0, so the test count
/// never exceeds |P0| and no P1 fault is a primary.
void check_primary_targets(const pdf::Netlist& nl,
                           const pdf::GenerationResult& r,
                           std::span<const pdf::TargetFault> p0,
                           const std::string& what, Failures& out);

/// Coverage counts (coverage_of / simulate_union) equal the oracle's.
void check_coverage(const pdf::UnionCoverage& c, const OracleFlags& oracle,
                    const std::string& what, Failures& out);

/// A serve response is ok, its `result` bytes equal `expected_result` (the
/// same job's cold, uncached run_job), and its union count is consistent.
void check_response(const pdf::serve::Response& resp,
                    const std::string& expected_result,
                    const std::string& what, Failures& out);

/// Two matrices of one batch are byte-identical.
void check_same_matrix(const pdf::DetectionMatrix& got,
                       const pdf::DetectionMatrix& want,
                       const std::string& what, Failures& out);

/// For each sampled test column, the matrix's bits over all faults equal
/// oracle::detects_any of that test alone.
void check_matrix_columns(const pdf::Netlist& nl,
                          std::span<const pdf::TwoPatternTest> tests,
                          std::span<const pdf::TargetFault> faults,
                          const pdf::DetectionMatrix& m,
                          std::span<const std::size_t> sample,
                          const std::string& what, Failures& out);

}  // namespace perfbench
