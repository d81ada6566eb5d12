#!/usr/bin/env python3
# Copyright 2026 The AmnesiaDB Authors
"""Collects alternating pairs of benchmark runs and compares two sides.

Collect ten pairs from two source checkouts (or one checkout twice, to
see the benchmark's own noise), on every workload of the parent's
BENCHMARK.json. Pair i runs both sides on seed i+1; even pairs run the
parent first, odd pairs the change first:

    python3 e2e_bench/compare.py collect --parent-root ../parent \\
        --change-root . --out runs.jsonl [--trace 0]

Compare the two sides of a collected file:

    python3 e2e_bench/compare.py compare runs.jsonl

Rules, per workload and metric (bounds and directions from the parent's
BENCHMARK.json):
  better      the change wins at least 9 in 10 of the pairs (ties count
              for neither side) and the medians differ by more than the
              parent's interquartile spread.
  worse       the change's median is worse than the parent's by more than
              the metric's bound.
  unresolved  neither, and the parent's own spread is wider than the
              bound, unless every change run reads better than every
              parent run.
  unchanged   otherwise.
Per-layer metrics have no bound: they read better or worse by the pairs
rule (mirrored for worse) and unresolved otherwise. The share of failed
operations must be equal on both sides. A run that is not correct stops
`collect`, and `compare` refuses a file that holds one. Exit status 1 when
any end-to-end metric is worse, the failed shares differ or a run is not
correct.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

PAIRS = 10

def load_bench(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def run_side(root, bench, workload, seed, trace):
    cmd = list(bench["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit("%s: %s seed %d failed (exit %d)" %
                         (root, workload, seed, proc.returncode))
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit("%s: %s seed %d is not correct" %
                         (root, workload, seed))
    return result


def collect(args):
    parent = os.path.abspath(args.parent_root)
    change = os.path.abspath(args.change_root)
    bench = load_bench(parent)
    workloads = [w["name"] for w in bench["workloads"]]
    with open(args.out, "a") as out:
        for i in range(PAIRS):
            seed = i + 1
            order = [("parent", parent), ("change", change)]
            if i % 2 == 1:
                order.reverse()
            for workload in workloads:
                for side, root in order:
                    result = run_side(root, bench, workload, seed, args.trace)
                    record = dict(result, side=side, pair=i, seed=seed,
                                  workload=workload, trace=args.trace)
                    out.write(json.dumps(record) + "\n")
                    out.flush()
                    print("pair %d %s %s seed %d done" %
                          (i, workload, side, seed), file=sys.stderr)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, better, bound):
    """Applies the module docstring's rules to paired value lists."""
    def is_better(c, p):
        return c > p if better == "higher" else c < p

    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if is_better(c, p))
    losses = sum(1 for p, c in pairs if is_better(p, c))
    p1, pmed, p3 = quartiles(parent)
    cmed = statistics.median(change)
    spread = p3 - p1
    gap = abs(cmed - pmed)
    if wins >= PAIRS - 1 and gap > spread and is_better(cmed, pmed):
        return "better"
    if bound is None:
        if losses >= PAIRS - 1 and gap > spread:
            return "worse"
        return "unresolved"
    if is_better(pmed, cmed) and gap > bound * abs(pmed):
        return "worse"
    all_better = all(is_better(c, p) for c in change for p in parent)
    if pmed != 0 and spread / abs(pmed) > bound and not all_better:
        return "unresolved"
    return "unchanged"


def compare(args):
    records = []
    with open(args.runs) as f:
        for line in f:
            if line.strip():
                records.append(json.loads(line))
    wrong = [r for r in records if not r["correct"]]
    for r in wrong:
        print("not correct: %s %s seed %d" % (r["side"], r["workload"],
                                              r["seed"]))
    if wrong:
        return 1
    bench = load_bench(args.bench_root)
    specs = {m["name"]: (m["better"], m.get("bound"))
             for m in bench["end_to_end"] + bench["per_layer"]}
    failing = False
    print("%-14s %-34s %14s %14s %9s %5s  %s" %
          ("workload", "metric", "parent_p50", "change_p50", "p_iqr%",
           "wins", "verdict"))
    for workload in sorted({r["workload"] for r in records}):
        sides = {}
        for r in records:
            if r["workload"] == workload:
                sides.setdefault(r["side"], {})[r["pair"]] = r
        pairs = sorted(set(sides.get("parent", {})) &
                       set(sides.get("change", {})))
        if not pairs:
            continue
        par = [sides["parent"][i] for i in pairs]
        chg = [sides["change"][i] for i in pairs]
        share = [sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs)
                 for rs in (par, chg)]
        if share[0] != share[1]:
            failing = True
        print("%-14s %-34s %14.6g %14.6g %9s %5s  %s" %
              (workload, "failed_share", share[0], share[1], "", "",
               "unchanged" if share[0] == share[1] else "DIFFERS"))
        for name in par[0]["metrics"]:
            if name not in specs or name not in chg[0]["metrics"]:
                continue
            better, bound = specs[name]
            p = [r["metrics"][name]["value"] for r in par]
            c = [r["metrics"][name]["value"] for r in chg]
            v = verdict(p, c, better, bound)
            q1, pmed, q3 = quartiles(p)
            wins = sum(1 for a, b in zip(p, c)
                       if (b > a if better == "higher" else b < a))
            print("%-14s %-34s %14.6g %14.6g %9.2f %2d/%-2d  %s" %
                  (workload, name, pmed, statistics.median(c),
                   100.0 * (q3 - q1) / abs(pmed) if pmed else 0.0,
                   wins, len(pairs), v))
            if v == "worse" and bound is not None:
                failing = True
    return 1 if failing else 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    sub = parser.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("--parent-root", required=True)
    c.add_argument("--change-root", required=True)
    c.add_argument("--trace", type=int, choices=[0, 1], default=0)
    c.add_argument("--out", required=True)
    m = sub.add_parser("compare")
    m.add_argument("runs")
    m.add_argument("--bench-root", default=".",
                   help="checkout whose BENCHMARK.json gives the bounds")
    args = parser.parse_args()
    if args.cmd == "collect":
        collect(args)
        return 0
    return compare(args)


if __name__ == "__main__":
    sys.exit(main())
