#!/usr/bin/env python3
"""The repository benchmark: build perfbench, run one workload, check it.

Run from the root of the repository:

    python3 perfbench/run.py --workload batch_local --seed 1 --seconds 20 --trace 0

builds the benchmark (CMake, Release) into .bench_build/perfbench, runs
the workload and prints its report; the last line of standard output
is one JSON object with the keys correct, attempted, failed and
metrics. --trace 0 reports the end-to-end metrics, --trace 1 the
per-layer metrics (plus the tracing overhead and span self times in
the lines above). The exit code is 0 only for a run whose checked
answers were all correct.

Two self-checks reuse the same runs:

    python3 perfbench/run.py --aa [--runs 10] [--sets 2] [--workloads a,b]
        A/A steadiness: runs every workload --runs times per set, each
        with another seed, and prints each end-to-end metric's median,
        quartiles and spread (IQR / median) against the metric's bound
        in BENCHMARK.json. Fails when a spread (setup_s excepted) exceeds
        its bound, or when a later set's median is worse than the first
        set's by more than the bound.

    python3 perfbench/run.py --repeat [--seed 7] [--workloads a,b]
        Same-seed repeatability: two traced runs per workload with one
        seed. Fails unless their results digests and input-determined
        counts are identical.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "perfbench-work")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ["batch_local", "serve_read", "serve_ingest"]
# Counts that the inputs determine: two traced runs with one seed must
# agree on them exactly. The dist.* and mutable.* ones are layer figures
# (lines "figure <name> <value> <unit>" above the result line).
# mutable.merges, mutable.trees and mutable.buffered_points depend on
# thread timing and are sampled.
EXACT_COUNTS = [
    "core.nodes_per_query",
    "core.leaves_per_query",
    "core.points_per_query",
    "dist.request_msgs",
    "dist.request_bytes",
    "mutable.seals",
]
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; output to stderr."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr)


def run_once(workload, seed, seconds, trace, echo=True):
    """Runs the benchmark binary; returns (exit code, stdout lines)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--work-dir", WORK_DIR]
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            log(f"perfbench: {workload} exceeded {RUN_TIMEOUT_S} s; killed")
            return 1, []
    lines = out.splitlines()
    if echo:
        for line in lines:
            print(line)
    return proc.returncode, lines


def parse_result(lines):
    """The JSON result line and the digest printed above it."""
    result = json.loads(lines[-1]) if lines else None
    digest = None
    for line in lines:
        if " digest " in line and line.startswith("workload "):
            digest = line.split(" digest ")[1].split(",")[0]
    return result, digest


def parse_figures(lines):
    """The layer figures of a traced run: name -> value."""
    figures = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 4 and parts[0] == "figure":
            figures[parts[1]] = float(parts[2])
    return figures


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def load_bounds():
    return {m["name"]: m for m in load_benchmark()["end_to_end"]}


def missing_metrics(result, trace):
    """Declared metrics of this mode (end_to_end, or per_layer when
    traced) that the result line lacks or holds in another unit."""
    declared = load_benchmark()["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    return [m["name"] for m in declared
            if m["name"] not in got or got[m["name"]]["unit"] != m["unit"]]


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3, (q3 - q1) / statistics.median(values)


def worse_by(metric, first, later):
    """Share by which `later` is worse than `first` (negative: better)."""
    if metric["better"] == "lower":
        return later / first - 1.0
    return first / later - 1.0


def aa_check(args):
    metrics = load_bounds()
    ok = True
    for workload in args.workloads:
        sets = []
        for s in range(args.sets):
            values = {}
            for r in range(args.runs):
                seed = 1000 * (s + 1) + r + 1
                start = time.monotonic()
                code, lines = run_once(workload, seed, args.seconds, False,
                                       echo=False)
                log(f"{workload} seed {seed}: {time.monotonic() - start:.1f} s, "
                    f"{lines[-1] if lines else 'no result'}")
                result, _ = parse_result(lines) if code == 0 else (None, None)
                if code != 0 or not result or not result["correct"]:
                    log(f"{workload} seed {seed}: run failed (exit {code})")
                    ok = False
                    continue
                for name, m in result["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
            sets.append(values)
        print(f"== {workload}: {args.sets} set(s) of {args.runs} runs, "
              f"{args.seconds} s each")
        for name in sorted(sets[0]):
            bound = metrics[name]["bound"]
            for s, values in enumerate(sets):
                if len(values.get(name, [])) < 2:
                    continue
                q1, med, q3, sp = spread(values[name])
                verdict = "ok"
                if name != "setup_s" and sp > bound:
                    verdict, ok = "SPREAD > BOUND", False
                elif sp > bound / 3:
                    verdict = "ok (above bound/3)"
                drift = ""
                if s > 0:
                    first = statistics.median(sets[0][name])
                    w = worse_by(metrics[name], first, med)
                    drift = f"  vs set 1: {w * 100:+.1f}% worse"
                    if w > bound:
                        verdict, ok = "MEDIAN DRIFT > BOUND", False
                print(f"  {name:14s} set {s + 1}: median {med:.6g} "
                      f"q1 {q1:.6g} q3 {q3:.6g} spread {sp * 100:.1f}% "
                      f"(bound {bound * 100:.0f}%){drift}  {verdict}")
    print("A/A steadiness: " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def repeat_check(args):
    ok = True
    for workload in args.workloads:
        digests, counts = set(), []
        for _ in range(2):
            code, lines = run_once(workload, args.seed, args.seconds, True,
                                   echo=False)
            result, digest = parse_result(lines) if code == 0 else (None, None)
            if code != 0 or not result or not result["correct"]:
                log(f"{workload}: run failed (exit {code})")
                ok = False
                continue
            digests.add(digest)
            values = {k: v["value"] for k, v in result["metrics"].items()}
            values.update(parse_figures(lines))
            counts.append({k: v for k, v in values.items()
                           if k in EXACT_COUNTS})
        same_digest = len(digests) == 1
        same_counts = len(counts) == 2 and counts[0] == counts[1]
        ok = ok and same_digest and same_counts
        print(f"== {workload} seed {args.seed}: digests {sorted(digests)} "
              f"{'identical' if same_digest else 'DIFFER'}; exact counts "
              f"{counts[0] if counts else {}} "
              f"{'identical' if same_counts else 'DIFFER'}")
    print("same-seed repeatability: " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--aa", action="store_true")
    parser.add_argument("--repeat", action="store_true")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    args = parser.parse_args()
    args.workloads = args.workloads.split(",")

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"perfbench: build failed: {e}")
        return 1
    os.makedirs(WORK_DIR, exist_ok=True)
    if args.aa:
        return aa_check(args)
    if args.repeat:
        return repeat_check(args)
    if args.workload is None:
        parser.error("--workload is required")
    trace = args.trace == 1
    code, lines = run_once(args.workload, args.seed, args.seconds, trace,
                           echo=False)
    try:
        result, _ = parse_result(lines)
    except (ValueError, IndexError):
        result = None
    if code != 0 or result is None:
        for line in lines:
            print(line)
        log(f"perfbench: {args.workload} failed (exit {code})")
        return code or 1
    for line in lines[:-1]:
        print(line)
    missing = missing_metrics(result, trace)
    if missing:
        log(f"perfbench: {args.workload} did not report {', '.join(missing)}")
        return 1
    print(lines[-1])
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
