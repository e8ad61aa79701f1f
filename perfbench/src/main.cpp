// perfbench: one workload of the stage-attributed enrichment benchmark per
// invocation. run.py builds this binary and drives it; see README.md.
//
//   perfbench --workload enrich_cold|serve_warm|fault_sim --seed N
//             --seconds S --trace 0|1 --tmp DIR [--trace-out FILE]
//
// Prints one JSON object as its last stdout line:
//   {"correct", "attempted", "failed", "metrics": {name: {value, unit}},
//    "check_failures": [...], "traced_campaign_s"}
// and exits 1 when an output check failed, 2 on bad arguments.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "bench.hpp"
#include "obs/json.hpp"

namespace {

using perfbench::Options;
using perfbench::RunResult;

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload enrich_cold|serve_warm|fault_sim "
               "--seed N --seconds S --trace 0|1 --tmp DIR [--trace-out FILE]\n");
  return 2;
}

void print_result(const RunResult& r) {
  pdf::obs::Json metrics{pdf::obs::Json::Object{}};
  for (const auto& [name, m] : r.metrics) {
    pdf::obs::Json entry;
    entry["value"] = m.value;
    entry["unit"] = m.unit;
    metrics[name] = std::move(entry);
  }
  pdf::obs::Json failures{pdf::obs::Json::Array{}};
  for (const std::string& f : r.check_failures) failures.push_back(f);
  pdf::obs::Json out;
  out["correct"] = r.check_failures.empty();
  out["attempted"] = r.attempted;
  out["failed"] = r.failed;
  out["metrics"] = std::move(metrics);
  out["check_failures"] = std::move(failures);
  out["traced_campaign_s"] = r.traced_campaign_s;
  std::printf("%s\n", out.dump().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (i + 1 >= argc) return usage();
    const char* v = argv[++i];
    char* end = nullptr;
    if (std::strcmp(a, "--workload") == 0) {
      o.workload = v;
    } else if (std::strcmp(a, "--seed") == 0) {
      o.seed = std::strtoull(v, &end, 10);
      have_seed = *v != '\0' && *end == '\0';
    } else if (std::strcmp(a, "--seconds") == 0) {
      o.seconds = std::strtod(v, &end);
      have_seconds = *v != '\0' && *end == '\0' && o.seconds > 0;
    } else if (std::strcmp(a, "--trace") == 0) {
      have_trace = std::strcmp(v, "0") == 0 || std::strcmp(v, "1") == 0;
      o.trace = std::strcmp(v, "1") == 0;
    } else if (std::strcmp(a, "--tmp") == 0) {
      o.tmp_dir = v;
    } else if (std::strcmp(a, "--trace-out") == 0) {
      o.trace_out = v;
    } else {
      return usage();
    }
  }
  if (!have_seed || !have_seconds || !have_trace || o.tmp_dir.empty() ||
      !std::filesystem::is_directory(o.tmp_dir)) {
    return usage();
  }
  if (o.trace_out.empty()) o.trace_out = o.tmp_dir / (o.workload + ".trace.json");

  int (*run)(const Options&, RunResult&) = nullptr;
  if (o.workload == "enrich_cold") run = perfbench::run_enrich_cold;
  if (o.workload == "serve_warm") run = perfbench::run_serve_warm;
  if (o.workload == "fault_sim") run = perfbench::run_fault_sim;
  if (run == nullptr) return usage();

  RunResult r;
  int rc = 0;
  try {
    rc = run(o, r);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  for (const std::string& f : r.check_failures) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", f.c_str());
  }
  print_result(r);
  return rc != 0 ? rc : (r.check_failures.empty() ? 0 : 1);
}
