#!/usr/bin/env python3
"""Build and run the p5sim host-speed benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload cpu_matrix --seed 1 --seconds 25 --trace 0

Builds perfbench/ (which compiles the p5sim library from ../src) into
.bench_build/ on first use, runs one workload, and prints the benchmark's
JSON result as the last line of standard output. Exits non-zero, without
a result, when the build fails or the run produces no valid result.

An untraced run (--trace 0) is made of PARTS processes in a row, each
set up once and timed for an equal share of --seconds, each starting the
seeded order at a different point. Host speed on a shared VM shifts from
process to process as well as over time, so sampling several processes
steadies sim_mips. sim_mips sums instructions and timed seconds over the
parts; setup_s is the median of the parts' set-ups; peak_rss_mb is the
highest part's peak.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("cpu_matrix", "mem_matrix", "chip_alloc", "sweep_store")
RUN_TIMEOUT_S = 170
PARTS = 3


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the benchmark binary; return its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("p5sim sources (src/) not found next to perfbench/")
        return None
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            log("configure failed")
            return None
    cmd = ["cmake", "--build", BUILD_DIR, "--target", "p5bench",
           "-j", str(os.cpu_count() or 1)]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        log("build failed")
        return None
    return os.path.join(BUILD_DIR, "p5bench")


def valid(result):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return False
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return False
    if not isinstance(result["failed"], int):
        return False
    return all(isinstance(m.get("value"), (int, float)) and "unit" in m
               for m in result["metrics"].values())


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    exe = build()
    if exe is None:
        return 1

    work_root = os.path.join(ROOT, ".bench_work")
    work_dir = os.path.join(work_root, str(os.getpid()))
    parts = 1 if args.trace == "1" else PARTS
    deadline = time.monotonic() + RUN_TIMEOUT_S
    results = []
    try:
        for k in range(parts):
            cmd = [exe, "--workload", args.workload,
                   "--seed", str(args.seed),
                   "--seconds", repr(args.seconds / parts),
                   "--trace", args.trace, "--part", "%d/%d" % (k, parts),
                   "--golden-dir", os.path.join(HERE, "golden"),
                   "--work-dir", work_dir]
            result = run_part(cmd, deadline - time.monotonic())
            if result is None:
                return 1
            results.append(result)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:
            pass

    result = results[0] if parts == 1 else combine(results)
    print(json.dumps(result))
    return 0


def run_part(cmd, timeout):
    """Run one benchmark process; return its parsed result or None."""
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        log("benchmark exceeded %d s" % RUN_TIMEOUT_S)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log("benchmark failed with exit code %d" % proc.returncode)
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log("benchmark printed no JSON result")
        return None
    if not valid(result):
        log("benchmark result is malformed: " + lines[-1])
        return None
    return result


def combine(results):
    """One run's result from its parts."""
    def values(name):
        return [r["metrics"][name]["value"] for r in results]

    instrs = sum(values("sim_instrs"))
    timed = sum(values("timed_s"))
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            "sim_mips": {"value": instrs / timed / 1e6, "unit": "MIPS"},
            "setup_s": {"value": statistics.median(values("setup_s")),
                        "unit": "s"},
            "peak_rss_mb": {"value": max(values("peak_rss_mb")),
                            "unit": "MB"},
        },
    }


if __name__ == "__main__":
    sys.exit(main())
