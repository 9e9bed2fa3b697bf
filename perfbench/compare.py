#!/usr/bin/env python3
"""Summarise or compare sets of MLKV benchmark results.

    python3 perfbench/compare.py SET            # spread of one set
    python3 perfbench/compare.py BASE NEW       # BASE vs NEW, per metric

A set is a directory of result files written by perfbench/run.py (see
perfbench/sweep.py, which runs many seeds into one directory). Runs are
grouped by workload and by traced/untraced. To compare two commits, run the
same seeds on both, alternating which commit runs first.

One set: each metric's median and quartiles and the spread (quartile
distance over median). End-to-end metrics are marked "ok" when the spread
is below a third of their BENCHMARK.json bound.

Two sets: each side's median and quartiles, the ratio NEW/BASE and a
verdict. Runs pair up by seed. For the gated end-to-end metrics:
  better        NEW wins at least 9 in 10 pairs and the medians differ by
                more than BASE's quartile distance;
  worse         NEW's median is worse than BASE's by more than the bound
                and the spread of both sides is within the bound (or every
                NEW run is worse than every BASE run);
  unresolved    the spread of either side is wider than the bound, or the
                median moved beyond the bound without the spread to show it;
  within-bound  otherwise: no change larger than the bound.
Per-layer metrics have no bound; they show the ratio only.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def load_set(path):
    """-> {(workload, trace): {seed: result}}"""
    runs = {}
    for name in sorted(os.listdir(path)):
        if not name.endswith(".json"):
            continue
        with open(os.path.join(path, name)) as f:
            r = json.load(f)
        runs.setdefault((r["workload"], r["trace"]), {})[r["seed"]] = r
    if not runs:
        sys.exit("compare: no result files in %s" % path)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def metric_values(runs, name):
    return [r["metrics"][name]["value"] for r in runs.values()
            if name in r["metrics"]]


def summarize(path):
    spec = load_spec()
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    ok_all = True
    for (workload, trace), runs in sorted(load_set(path).items()):
        print("\n%s  trace=%d  runs=%d" % (workload, trace, len(runs)))
        print("  %-34s %12s %12s %12s %8s %8s" %
              ("metric", "q1", "median", "q3", "spread", "limit"))
        names = sorted({n for r in runs.values() for n in r["metrics"]})
        for name in names:
            vals = metric_values(runs, name)
            q1, med, q3 = quartiles(vals)
            s = spread(vals)
            limit, mark = "", ""
            if name in bounds and not trace:
                lim = bounds[name]["bound"] / 3
                limit = "%.3f" % lim
                ok = s < lim or name == "setup_s"
                mark = "ok" if ok else "WIDE"
                ok_all &= ok
            print("  %-34s %12.5g %12.5g %12.5g %8.3f %8s %s" %
                  (name, q1, med, q3, s, limit, mark))
    return ok_all


def verdict(base, new, better, bound, paired):
    """Pair rule of the benchmark: see the module docstring. Unpaired sets
    (no common seeds) count as won only if every NEW run beats every BASE
    run."""
    b1, bmed, b3 = quartiles(base)
    n1, nmed, n3 = quartiles(new)
    sign = 1 if better == "higher" else -1
    gain = sign * (nmed - bmed)
    worsening = -gain / abs(bmed) if bmed else 0.0
    all_better = all(sign * (n - b) > 0 for n in new for b in base)
    all_worse = all(sign * (n - b) < 0 for n in new for b in base)
    if paired:
        wins = sum(1 for b, n in zip(base, new) if sign * (n - b) > 0)
        won = wins >= 0.9 * len(base)
    else:
        won = all_better
    if won and gain > (b3 - b1):
        return "better"
    wide = spread(base) > bound or spread(new) > bound
    if worsening > bound:
        return "worse" if (not wide or all_worse) else "unresolved"
    if wide and not all_worse:
        return "unresolved"
    return "within-bound"


def compare(base_path, new_path):
    spec = load_spec()
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    base_all, new_all = load_set(base_path), load_set(new_path)
    worse = False
    for key in sorted(set(base_all) & set(new_all)):
        workload, trace = key
        base, new = base_all[key], new_all[key]
        seeds = sorted(set(base) & set(new)) or None
        print("\n%s  trace=%d  base runs=%d  new runs=%d" %
              (workload, trace, len(base), len(new)))
        print("  %-34s %26s %26s %8s  %s" %
              ("metric", "base q1/median/q3", "new q1/median/q3", "ratio",
               "verdict"))
        names = sorted({n for r in base.values() for n in r["metrics"]} &
                       {n for r in new.values() for n in r["metrics"]})
        for name in names:
            if seeds:
                bv = [base[s]["metrics"][name]["value"] for s in seeds]
                nv = [new[s]["metrics"][name]["value"] for s in seeds]
            else:
                bv, nv = metric_values(base, name), metric_values(new, name)
            b1, bmed, b3 = quartiles(bv)
            n1, nmed, n3 = quartiles(nv)
            ratio = nmed / bmed if bmed else float("nan")
            v = "-"
            if name in e2e and not trace:
                v = verdict(bv, nv, e2e[name]["better"], e2e[name]["bound"],
                            seeds is not None)
                worse |= v == "worse"
            print("  %-34s %8.4g/%8.4g/%8.4g %8.4g/%8.4g/%8.4g %8.3f  %s" %
                  (name, b1, bmed, b3, n1, nmed, n3, ratio, v))
    return not worse


def main(argv):
    if len(argv) == 1:
        return 0 if summarize(argv[0]) else 1
    if len(argv) == 2:
        return 0 if compare(argv[0], argv[1]) else 1
    sys.exit(__doc__)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
