#!/usr/bin/env python3
"""End-to-end benchmark of the entangled-transaction engine.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --steady <k> [--seed <n>] [--workload <name>] [--seconds <s>]

The first form builds the engine from source (CMake, Release, into
$CARGO_TARGET_DIR or .bench_build), runs one workload once in a fresh
process, checks its results, and prints a report whose last line is one
JSON object {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics with --trace 0, the per-layer metrics of a separate traced pass
with --trace 1. A failed check prints no JSON and exits non-zero.

The second form is the steadiness self-check: it runs each workload k
times with seeds n..n+k-1 (--seed, default 1), seed by seed across the
workloads, and prints, per end-to-end
metric, the median and the spread (interquartile range / median) against
the bound that BENCHMARK.json fixes, naming every metric whose spread
exceeds it.

Workloads, metrics and the flush policy are described in perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["entangled_travel", "sql_transfer", "travel_read_mostly"]
RUN_TIMEOUT_S = 175


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(d):
        d = os.path.join(ROOT, d)
    return os.path.join(d, "perfbench")


def source_id():
    """The commit when the checkout is a git repository, else "unknown"."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def build():
    """Configures and builds the perfbench binary; returns its path."""
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            log("perfbench: %s is missing: run from a full checkout" % needed)
            sys.exit(2)
    bdir = build_dir()
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        try:
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                 timeout=880)
        except (OSError, subprocess.SubprocessError) as e:
            log("perfbench: build step failed: %s" % e)
            sys.exit(2)
        if out.returncode != 0:
            log(out.stdout[-4000:])
            log(out.stderr[-4000:])
            log("perfbench: build failed: %s" % " ".join(cmd))
            sys.exit(2)
    return os.path.join(bdir, "perfbench")


def run_once(binary, workload, seed, seconds, trace, echo=True):
    """Runs one workload in a fresh process. Returns the parsed result
    object, or None when the run failed (checks, crash or timeout)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--data-dir", os.path.join(build_dir(), "data")]
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: %s seed %d did not finish in %d s" % (workload, seed, RUN_TIMEOUT_S))
        return None
    if out.stderr:
        log(out.stderr.rstrip())
    lines = out.stdout.rstrip("\n").split("\n")
    if out.returncode != 0 or not lines:
        if echo:
            log(out.stdout.rstrip())
        log("perfbench: %s seed %d failed (exit %d)" % (workload, seed, out.returncode))
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log("perfbench: no result line from %s" % workload)
        return None
    if set(result) != {"correct", "attempted", "failed", "metrics"} or not result["correct"]:
        log("perfbench: malformed or incorrect result from %s" % workload)
        return None
    if echo:
        print("\n".join(lines[:-1]))
    return (result, lines[-1])


def steady(binary, workloads, runs, seconds, first_seed):
    """Runs seeds first_seed.. on every workload, seed by seed, so a slow
    spell of the host spreads over the workloads instead of landing on
    consecutive runs of one."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    failing = []
    seeds = range(first_seed, first_seed + runs)
    values = {w: {} for w in workloads}
    for seed in seeds:
        for w in workloads:
            got = run_once(binary, w, seed, seconds, 0, echo=False)
            if got is None:
                failing.append("%s: run with seed %d failed" % (w, seed))
                continue
            for name, m in got[0]["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            log("  %s seed %d done" % (w, seed))
    for w in workloads:
        print("== %s: %d runs, seeds %d..%d ==" % (w, runs, seeds[0], seeds[-1]))
        print("  %-22s %14s %10s %8s  %s" % ("metric", "median", "IQR/med", "bound", ""))
        for name, vals in values[w].items():
            med = statistics.median(vals)
            q = statistics.quantiles(vals, n=4) if len(vals) >= 2 else [med, med, med]
            spread = (q[2] - q[0]) / med if med else 0.0
            bound = bounds.get(name)
            verdict = ""
            if bound is not None:
                if spread > bound:
                    verdict = "FAIL (over bound)"
                    failing.append("%s %s: spread %.3f > bound %.3f" % (w, name, spread, bound))
                elif spread > bound / 3:
                    verdict = "ok (above bound/3)"
                else:
                    verdict = "ok"
            print("  %-22s %14.6g %10.4f %8s  %s" % (
                name, med, spread, "-" if bound is None else bound, verdict))
            print("  %-22s %s" % ("", " ".join("%.4g" % v for v in vals)))
    if failing:
        print("metrics outside their bounds:")
        for f in failing:
            print("  " + f)
        return 1
    print("every end-to-end spread is within its bound")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--steady", type=int, metavar="K",
                    help="steadiness self-check: K runs per workload")
    args = ap.parse_args()
    if args.steady is None and args.workload is None:
        ap.error("--workload is required")

    binary = build()
    print("perfbench: commit %s, nproc %d" % (source_id(), os.cpu_count() or 0))
    if args.steady is not None:
        workloads = [args.workload] if args.workload else WORKLOADS
        return steady(binary, workloads, args.steady, args.seconds, args.seed)
    got = run_once(binary, args.workload, args.seed, args.seconds, args.trace)
    if got is None:
        return 1
    print(got[1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
