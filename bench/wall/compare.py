#!/usr/bin/env python3
"""Compares two sets of wall_bench result files, parent against change.

    python3 bench/wall/compare.py [--benchmark BENCHMARK.json] PARENT_DIR CHANGE_DIR

Each directory holds the result files (*.json, not *.trace.json) of ten or
more runs per workload, made alternately on the two commits with identical
benchmark code and --seconds. For every workload and end-to-end metric of
BENCHMARK.json this prints both medians and quartiles, the pairs the change
won, and a verdict against the metric's bound:

  improved    the change wins at least 9/10 of the pairs (ties count for
              neither) and the medians differ by more than the parent's
              quartile spread, in the better direction;
  unresolved  either side's quartile spread, as a share of its median, is
              wider than the bound, and not every change run beats every
              parent run;
  regressed   the change's median is worse than the parent's by more than
              the bound;
  unchanged   otherwise.

Runs are paired by seed when both sides ran the same seeds, else in time
order. The failed share of attempted operations is compared per workload
too; any increase is a regression. Exits 1 when anything regressed or is
unresolved.
"""

import argparse
import glob
import json
import os
import statistics
import sys


def load_runs(directory):
    """{workload: [(seed, run, metrics, attempted, failed)]} of trace-0 runs."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        if path.endswith(".trace.json"):
            continue
        with open(path) as f:
            doc = json.load(f)
        if doc.get("schema") != "tl-wall-result-1" or doc.get("trace") != 0:
            continue
        if doc.get("smoke"):
            continue
        for workload, result in doc["workloads"].items():
            metrics = {k: v["value"] for k, v in result["metrics"].items()}
            runs.setdefault(workload, []).append(
                (doc["seed"], doc["run"], metrics, doc["attempted"],
                 doc["failed"]))
    for entries in runs.values():
        entries.sort(key=lambda e: e[1])
    return runs


def spread(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def pair_up(parent, change):
    by_seed_p = {e[0]: e for e in parent}
    by_seed_c = {e[0]: e for e in change}
    if len(by_seed_p) == len(parent) and set(by_seed_p) == set(by_seed_c):
        return [(by_seed_p[s], by_seed_c[s]) for s in sorted(by_seed_p)]
    return list(zip(parent, change))


def verdict(metric, parent_vals, change_vals, pairs):
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    p_q1, p_med, p_q3 = spread(parent_vals)
    c_q1, c_med, c_q3 = spread(change_vals)

    def better(a, b):  # is a better than b
        return a < b if lower else a > b

    won = sum(1 for p, c in pairs if better(c, p))
    worse_by = (c_med - p_med) / p_med if lower else (p_med - c_med) / p_med
    if (pairs and won >= 0.9 * len(pairs) and better(c_med, p_med)
            and abs(c_med - p_med) > p_q3 - p_q1):
        return won, "improved"
    all_better = all(better(c, p) for c in change_vals for p in parent_vals)
    wide = max((p_q3 - p_q1) / p_med, (c_q3 - c_q1) / c_med) > bound
    if wide and not all_better:
        return won, "unresolved"
    if worse_by > bound:
        return won, "regressed"
    return won, "unchanged"


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--benchmark",
                    default=os.path.join(here, "..", "..", "BENCHMARK.json"))
    ap.add_argument("parent")
    ap.add_argument("change")
    args = ap.parse_args()

    with open(args.benchmark) as f:
        metrics = json.load(f)["end_to_end"]
    parent = load_runs(args.parent)
    change = load_runs(args.change)
    if not parent or not change:
        print("compare: no trace-0 result files in one of the directories",
              file=sys.stderr)
        return 2

    bad = False
    fmt = "{:20s} {:11s} {:>34s} {:>34s} {:>8s} {:>6s}  {}"
    print(fmt.format("workload", "metric", "parent median [q1, q3]",
                     "change median [q1, q3]", "change", "won", "verdict"))
    for workload in sorted(set(parent) | set(change)):
        p_runs, c_runs = parent.get(workload, []), change.get(workload, [])
        if not p_runs or not c_runs:
            print(f"{workload:20s} missing on one side")
            bad = True
            continue
        pairs = pair_up(p_runs, c_runs)
        for m in metrics:
            name = m["name"]
            pv = [e[2][name] for e in p_runs if name in e[2]]
            cv = [e[2][name] for e in c_runs if name in e[2]]
            if not pv or not cv:
                continue
            won, v = verdict(
                m, pv, cv, [(p[2][name], c[2][name]) for p, c in pairs])
            p_q1, p_med, p_q3 = spread(pv)
            c_q1, c_med, c_q3 = spread(cv)
            bad = bad or v in ("regressed", "unresolved")
            print(fmt.format(
                workload, name,
                f"{p_med:.5g} [{p_q1:.5g}, {p_q3:.5g}]",
                f"{c_med:.5g} [{c_q1:.5g}, {c_q3:.5g}]",
                f"{c_med / p_med - 1:+.2%}", f"{won}/{len(pairs)}", v))
        p_fail = sum(e[4] for e in p_runs) / max(1, sum(e[3] for e in p_runs))
        c_fail = sum(e[4] for e in c_runs) / max(1, sum(e[3] for e in c_runs))
        fv = ("regressed" if c_fail > p_fail else
              "improved" if c_fail < p_fail else "unchanged")
        bad = bad or fv == "regressed"
        print(fmt.format(workload, "failed_frac", f"{p_fail:.3g}",
                         f"{c_fail:.3g}", "", "", fv))
        if min(len(p_runs), len(c_runs)) < 10:
            print(f"{workload:20s} note: fewer than 10 runs on a side "
                  f"({len(p_runs)} / {len(c_runs)})")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
