#!/usr/bin/env python3
# Copyright 2026 The AmnesiaDB Authors
"""Builds and runs the end-to-end amnesia benchmark.

    python3 e2e_bench/run.py --workload <name|all> --seed <n> \
        --seconds <s> --trace <0|1>

Run from anywhere inside a source checkout. The first run configures and
builds the engine plus the driver under .bench_build/ (Release); later
runs rebuild only what changed. Each workload runs in its own process.
The last line of standard output is one JSON object: correct, attempted,
failed and metrics (end-to-end with --trace 0, per-layer with --trace 1).
The exit status is 1 when a run fails an operation or a correctness check.
Build output goes to standard error. Chrome traces of --trace 1 runs land
in .bench_build/traces/.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ["durable-fifo", "paper-uniform", "recent-rot"]
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")
BINARY = os.path.join(CMAKE_DIR, "amnesia_e2e")
RUN_TIMEOUT_S = 170


def build():
    """Configures once, then builds the driver; returns False on failure."""
    steps = []
    if not os.path.exists(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", CMAKE_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", CMAKE_DIR, "--target", "amnesia_e2e",
                  "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            sys.stderr.write("build failed: %s\n" % " ".join(cmd))
            return False
    return True


def run_one(workload, args):
    """Runs one workload in its own process; returns its result object."""
    workdir = os.path.join(BUILD, "work", "%s-%d" % (workload, os.getpid()))
    shutil.rmtree(workdir, ignore_errors=True)
    cmd = [BINARY, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir,
           "--trace-dir", os.path.join(BUILD, "traces")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("%s: timed out after %d s\n" %
                         (workload, RUN_TIMEOUT_S))
        return None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        for line in lines:
            sys.stderr.write(line + "\n")
        sys.stderr.write("%s: exited with %d\n" % (workload, proc.returncode))
        return None
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    if not build():
        return 1
    if args.workload != "all":
        result = run_one(args.workload, args)
        if result is None:
            return 1
        print(json.dumps(result))
        return 0 if result["correct"] else 1

    # Every workload in turn; the last line folds them together with the
    # metric names prefixed by the workload.
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        result = run_one(workload, args)
        if result is None:
            return 1
        print(json.dumps(dict(result, workload=workload)))
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            total["metrics"]["%s/%s" % (workload, name)] = metric
    print(json.dumps(total))
    return 0 if total["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
