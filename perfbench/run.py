#!/usr/bin/env python3
"""Builds and runs the libcalculon search benchmark.

Run from the repository root:

  python3 perfbench/run.py --workload exec_search --seed 1 --seconds 40 --trace 0

builds `perfbench` (and libcalculon from src/) into .bench_build/perfbench
when needed, then runs one workload; the last line of standard output is
the result JSON. Build output goes to standard error.

Steadiness check: run one workload k times back to back (seeds 1..k) and
print, per end-to-end metric, the median, the quartiles and the spread
(interquartile range over the median) as a share of the metric's bound in
BENCHMARK.json:

  python3 perfbench/run.py --workload exec_search --steadiness 5 --seconds 40
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
HERE = os.path.dirname(os.path.abspath(__file__))


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def git_rev():
    # Only this checkout's own history; never a repository further up.
    if not os.path.exists(".git"):
        return "none"
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def run(workload, seed, seconds, trace, echo=True):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--rev", git_rev()]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if echo:
        sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        sys.exit(proc.returncode)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def steadiness(workload, k, seconds):
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    results = [run(workload, seed, seconds, 0, echo=False)
               for seed in range(1, k + 1)]
    print(f"steadiness of {workload}: {k} runs, seeds 1..{k}")
    print(f"  {'metric':26} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6} {'spread/bound':>12}")
    for m in bench["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / statistics.median(values)
        print(f"  {m['name']:26} {statistics.median(values):12.6g} {q1:12.6g} "
              f"{q3:12.6g} {spread:8.4f} {m['bound']:6.3f} "
              f"{spread / m['bound']:12.3f}")
    for m in bench["end_to_end"]:
        values = " ".join(f"{r['metrics'][m['name']]['value']:.6g}" for r in results)
        print(f"  {m['name']}: {values}")
    failed = sum(r["failed"] for r in results)
    attempted = sum(r["attempted"] for r in results)
    print(f"  queries attempted {attempted}, failed {failed}")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=40)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steadiness", type=int, default=0, metavar="K")
    a = p.parse_args()
    build()
    if a.steadiness:
        steadiness(a.workload, a.steadiness, a.seconds)
    else:
        run(a.workload, a.seed, a.seconds, a.trace)


if __name__ == "__main__":
    main()
