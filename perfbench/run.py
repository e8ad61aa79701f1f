#!/usr/bin/env python3
"""Stage-attributed enrichment benchmark: build, run, check, report.

Run from the repository root:

  python3 perfbench/run.py --workload enrich_cold --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --workload fault_sim --seed 1 --trace 1
  python3 perfbench/run.py --steadiness 10 [--workload W] [--record FILE]
  python3 perfbench/run.py --selftest

Every invocation first builds perfbench/ with optimisation into
.bench_build/perfbench against the repository's src/ (a no-op when up to
date). A workload run prints progress on stderr and, as its last stdout
line, one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 the run is made twice with the same seed, untraced and then
traced, and the metrics are the per-layer metrics of BENCHMARK.json, with
obs.trace_overhead_pct comparing the two. The exit code is 0 only when
every output check passed.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
BUILD_ROOT = ROOT / ".bench_build"
BUILD_DIR = BUILD_ROOT / "perfbench"
TRACE_DIR = BUILD_ROOT / "traces"
RUN_TIMEOUT_S = 170  # per binary invocation; a whole run must end in 180 s


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    try:
        return json.loads(SPEC_PATH.read_text())
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read {SPEC_PATH.name}: {e}")


def build(target):
    jobs = str(min(4, os.cpu_count() or 1))
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=Release", *generator]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            raise BenchError("configuring the benchmark failed")
    cmd = ["cmake", "--build", str(BUILD_DIR), "-j", jobs, "--target", target]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        raise BenchError("building the benchmark failed")
    return BUILD_DIR / target


def run_binary(binary, workload, seed, seconds, trace):
    """One perfbench process; returns its parsed result object."""
    (BUILD_ROOT / "tmp").mkdir(parents=True, exist_ok=True)
    TRACE_DIR.mkdir(parents=True, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{workload}-", dir=BUILD_ROOT / "tmp")
    trace_out = TRACE_DIR / f"{workload}-seed{seed}.trace.json"
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--tmp", tmp, "--trace-out", str(trace_out)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} did not finish in {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise BenchError(f"{workload} exited with code {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        raise BenchError(f"{workload} printed no result line")
    if trace:
        log(f"span file: {trace_out.relative_to(ROOT)}")
    return result


def checked_metrics(result, wanted, fill_missing):
    """Validates names and units against BENCHMARK.json."""
    spec = {m["name"]: m["unit"] for m in wanted}
    out = {}
    for name, m in result["metrics"].items():
        if name not in spec:
            raise BenchError(f"metric {name} is not in BENCHMARK.json")
        if m["unit"] != spec[name]:
            raise BenchError(f"metric {name} has unit {m['unit']}, "
                             f"BENCHMARK.json says {spec[name]}")
        if not math.isfinite(m["value"]):
            raise BenchError(f"metric {name} is not finite")
        out[name] = {"value": m["value"], "unit": m["unit"]}
    for name, unit in spec.items():
        if name not in out:
            if not fill_missing:
                raise BenchError(f"metric {name} was not measured")
            # A layer the workload does not exercise did no work here.
            out[name] = {"value": 0.0, "unit": unit}
    return out


def run_workload(spec, workload, seed, seconds, trace):
    binary = build("perfbench")
    base = run_binary(binary, workload, seed, seconds, False)
    runs = [base]
    if trace:
        traced = run_binary(binary, workload, seed, seconds, True)
        runs.append(traced)
        metrics = checked_metrics(traced, spec["per_layer"], True)
        untraced_s = base["metrics"]["campaign_s"]["value"]
        metrics["obs.trace_overhead_pct"] = {
            "value": (traced["traced_campaign_s"] - untraced_s) / untraced_s * 100.0,
            "unit": "%"}
    else:
        metrics = checked_metrics(base, spec["end_to_end"], False)
        zero = [n for n, m in metrics.items() if m["value"] == 0]
        if zero:
            raise BenchError(f"end-to-end metrics read 0: {', '.join(zero)}")
    for r in runs:
        for failure in r["check_failures"]:
            log(f"CHECK FAILED: {failure}")
    return {
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }


def steadiness(spec, workloads, seeds, seconds, record):
    """Runs each workload once per seed, as separate processes exactly like
    a normal invocation, and reports the quartile spread of every
    end-to-end metric as a share of its median against the metric's bound."""
    report = {"seconds": seconds, "seeds": seeds, "workloads": {}}
    for w in workloads:
        runs = []
        for seed in seeds:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  timeout=RUN_TIMEOUT_S + 10)
            if proc.returncode != 0:
                raise BenchError(f"{w} seed {seed} exited with {proc.returncode}")
            runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
            log(f"{w} seed {seed}: done")
        rows = {}
        print(f"\n{w}: {len(runs)} runs, seeds {seeds[0]}..{seeds[-1]}, "
              f"{seconds} s each")
        print(f"  {'metric':<22}{'median':>14}{'q1':>14}{'q3':>14}"
              f"{'spread':>9}{'bound':>7}")
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            rows[m["name"]] = {"values": values, "median": med, "q1": q1,
                               "q3": q3, "spread": spread, "bound": m["bound"]}
            print(f"  {m['name']:<22}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}"
                  f"{spread:>9.4f}{m['bound']:>7}")
        failed = [r["failed"] / r["attempted"] for r in runs]
        report["workloads"][w] = {"metrics": rows, "failed_share": failed}
    if record:
        Path(record).write_text(json.dumps(report, indent=1) + "\n")
        log(f"wrote {record}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steadiness", type=int, metavar="N",
                    help="run each workload with N seeds and print the spread")
    ap.add_argument("--first-seed", type=int, default=1,
                    help="first of the N consecutive steadiness seeds")
    ap.add_argument("--record", help="steadiness: write the runs as JSON here")
    ap.add_argument("--selftest", action="store_true",
                    help="run the corruption tests of the output checks")
    args = ap.parse_args()
    try:
        spec = load_spec()
        seconds = args.seconds or spec["run_seconds"]
        names = [w["name"] for w in spec["workloads"]]
        if args.selftest:
            return subprocess.run([str(build("perfbench_selftest"))]).returncode
        if args.steadiness:
            workloads = [args.workload] if args.workload else names
            seeds = list(range(args.first_seed, args.first_seed + args.steadiness))
            steadiness(spec, workloads, seeds, seconds, args.record)
            return 0
        if args.workload not in names:
            raise BenchError(f"--workload must be one of {', '.join(names)}")
        result = run_workload(spec, args.workload, args.seed, seconds,
                              args.trace == 1)
    except BenchError as e:
        log(f"perfbench: {e}")
        return 2
    for name, m in sorted(result["metrics"].items()):
        log(f"  {name:<34} {m['value']:>16.6g} {m['unit']}")
    log(f"  attempted {result['attempted']}, failed {result['failed']}, "
        f"correct {str(result['correct']).lower()}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
