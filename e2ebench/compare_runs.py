#!/usr/bin/env python3
"""Summarise and compare sets of confnet_e2e runs (standard library only).

    python3 e2ebench/compare_runs.py RUNS_A [RUNS_B] [--bench BENCHMARK.json]

Each RUNS directory holds one file per run, named <workload>-<seed>.json,
containing the run's standard output (the last line is the JSON result),
e.g. from
    python3 e2ebench/run.py --workload intra_churn --seed 3 --seconds 10 \\
        --trace 0 > runs/a/intra_churn-3.json

For one side it prints, per workload and metric, the median, the quartiles
(statistics.quantiles(n=4)) and the spread (q3 - q1) / median against the
metric's bound from BENCHMARK.json, flagging spreads above the bound.

For two sides it also prints B's median and its change against A in the
metric's "worse" direction, flags a change worse than the bound, and
applies the gain rule to runs paired by seed: B wins at least 9 of 10
pairs (ties count for neither) and the medians differ by more than A's
quartile distance. Exit status is 1 when any run failed or any flag was
raised.
"""
import argparse
import json
import os
import statistics
import sys
from collections import defaultdict


def load_side(directory):
    """{workload: {seed: result}} from one directory of run outputs."""
    runs = defaultdict(dict)
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".json"):
            continue
        workload, _, seed = name[:-len(".json")].rpartition("-")
        with open(os.path.join(directory, name)) as f:
            lines = [line for line in f.read().splitlines() if line.strip()]
        if not workload or not lines:
            continue
        try:
            runs[workload][seed] = json.loads(lines[-1])
        except json.JSONDecodeError:
            runs[workload][seed] = None
    return runs


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else float("nan")
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def worse_change(a, b, better):
    """Relative change from a to b, positive when b is worse."""
    if a == 0:
        return 0.0 if b == 0 else float("inf")
    rel = (b - a) / abs(a)
    return -rel if better == "higher" else rel


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("side_a")
    ap.add_argument("side_b", nargs="?")
    ap.add_argument("--bench", default=os.path.join(
        os.path.dirname(os.path.abspath(__file__)), os.pardir,
        "BENCHMARK.json"))
    args = ap.parse_args()

    with open(args.bench) as f:
        bench = json.load(f)
    spec = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}

    sides = [load_side(args.side_a)]
    if args.side_b:
        sides.append(load_side(args.side_b))
    flagged = False

    workloads = [w["name"] for w in bench["workloads"]]
    for workload in workloads:
        per_side = [side.get(workload, {}) for side in sides]
        if not any(per_side):
            continue
        print("== %s" % workload)
        for label, runs in zip("AB", per_side):
            bad = [s for s, r in runs.items()
                   if r is None or not r.get("correct") or r.get("failed")]
            print("  side %s: %d runs, %d failed or incorrect%s" % (
                label, len(runs), len(bad),
                " (seeds %s)" % ",".join(sorted(bad)) if bad else ""))
            flagged = flagged or bool(bad)
        names = []
        for runs in per_side:
            for r in runs.values():
                for name in (r or {}).get("metrics", {}):
                    if name not in names:
                        names.append(name)
        header = "  %-34s %12s %12s %12s %7s %6s" % (
            "metric", "median", "q1", "q3", "spread", "bound")
        if len(sides) == 2:
            header += " %12s %8s %7s %s" % ("B median", "B worse", "wins", "")
        print(header)
        for name in names:
            m = spec.get(name, {"better": "lower"})
            bound = m.get("bound")
            values = [[r["metrics"][name]["value"]
                       for s, r in sorted(runs.items())
                       if r and name in r.get("metrics", {})]
                      for runs in per_side]
            a = values[0]
            if not a:
                continue
            q1, med, q3 = quartiles(a)
            sp = spread(a)
            flags = []
            if bound is not None and sp > bound:
                flags.append("SPREAD>BOUND")
            line = "  %-34s %12.6g %12.6g %12.6g %6.1f%% %6s" % (
                name, med, q1, q3, 100 * sp,
                "-" if bound is None else "%.0f%%" % (100 * bound))
            if len(sides) == 2 and values[1]:
                b_med = statistics.median(values[1])
                change = worse_change(med, b_med, m["better"])
                runs_a, runs_b = per_side
                pairs = [(runs_a[s]["metrics"][name]["value"],
                          runs_b[s]["metrics"][name]["value"])
                         for s in sorted(set(runs_a) & set(runs_b))
                         if runs_a[s] and runs_b[s]
                         and name in runs_a[s].get("metrics", {})
                         and name in runs_b[s].get("metrics", {})]
                wins = sum(1 for x, y in pairs
                           if worse_change(x, y, m["better"]) < 0)
                if bound is not None and change > bound:
                    flags.append("WORSE>BOUND")
                if (pairs and wins >= 0.9 * len(pairs)
                        and abs(b_med - med) > (q3 - q1)):
                    flags.append("GAIN")
                line += " %12.6g %+7.1f%% %3d/%-3d" % (
                    b_med, 100 * change, wins, len(pairs))
            flagged = flagged or any(f != "GAIN" for f in flags)
            print(line + ("  " + " ".join(flags) if flags else ""))
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
