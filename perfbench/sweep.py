#!/usr/bin/env python3
"""Run the MLKV benchmark over several seeds and collect the results.

    python3 perfbench/sweep.py --out DIR [--workloads train-ooc,kv-mem,serve-zipf]
        [--seeds 1-10] [--seconds S] [--trace 0|1] [--read-latency-us US]

Each (workload, seed) is one perfbench/run.py run; its full result file is
copied into DIR, and the spread table of perfbench/compare.py is printed at
the end. --seconds defaults to BENCHMARK.json's run_seconds. Exits 1 if a
run fails or a spread is wider than a third of its bound.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

import compare
import run


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def sweep(out, workloads, seeds, seconds, trace, read_latency_us):
    """Runs every (workload, seed) into `out`; returns False on a failed run."""
    os.makedirs(out, exist_ok=True)
    ok = True
    for workload in workloads:
        for seed in seeds:
            cmd = [sys.executable, os.path.join(run.BENCH_DIR, "run.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace),
                   "--read-latency-us", str(read_latency_us)]
            r = subprocess.run(cmd, cwd=run.ROOT, stdout=subprocess.PIPE,
                               text=True)
            last = r.stdout.strip().splitlines()[-1] if r.stdout.strip() else ""
            print("%s seed=%d exit=%d %s" % (workload, seed, r.returncode, last),
                  flush=True)
            if r.returncode != 0:
                ok = False
                continue
            name = "%s-seed%d-trace%d-lat%d.json" % (workload, seed, trace,
                                                    read_latency_us)
            shutil.copy(os.path.join(run.OUT_DIR, "results", name),
                        os.path.join(out, name))
    return ok


def main(argv):
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    p = argparse.ArgumentParser(prog="perfbench/sweep.py", allow_abbrev=False)
    p.add_argument("--out", required=True)
    p.add_argument("--workloads", default=",".join(run.WORKLOADS))
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--read-latency-us", type=int, default=30)
    args = p.parse_args(argv)
    workloads = args.workloads.split(",")
    unknown = [w for w in workloads if w not in run.WORKLOADS]
    if unknown:
        p.error("unknown workload(s) %s; known: %s" %
                (", ".join(unknown), ", ".join(run.WORKLOADS)))
    ok = sweep(args.out, workloads, parse_seeds(args.seeds), args.seconds,
               args.trace, args.read_latency_us)
    ok &= compare.summarize(args.out)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
