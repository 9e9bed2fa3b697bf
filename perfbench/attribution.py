#!/usr/bin/env python3
"""Layer-attribution check for the MLKV benchmark.

    python3 perfbench/attribution.py [--seeds 1-3] [--out DIR]

Reruns every workload with the simulated NVMe read latency doubled (30 ->
60 us) and compares with the 30 us runs. The workload -> layer map says:
  train-ooc   is carried by the disk path, so keys_per_s and
              train_samples_per_s must fall, backend.get.busy_s must rise
              and the io.* counters must move;
  kv-mem,     do no disk reads, so every end-to-end metric must stay within
  serve-zipf  its BENCHMARK.json bound.
Exits 1 when any of these fails. Results land in DIR (default
.bench_build/attribution) as four result sets readable by compare.py.
"""

import argparse
import json
import os
import sys

import compare
import run
import sweep

IO_METRICS = ("io.disk_reads_per_key", "io.read_bytes_per_sample",
              "io.write_bytes_per_sample", "io.pages_flushed",
              "io.pages_evicted")


def median(runs, name):
    return compare.quartiles(compare.metric_values(runs, name))[1]


def main(argv):
    p = argparse.ArgumentParser(prog="perfbench/attribution.py",
                                allow_abbrev=False)
    p.add_argument("--seeds", default="1-3")
    p.add_argument("--out", default=os.path.join(run.OUT_DIR, "attribution"))
    args = p.parse_args(argv)
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seeds = sweep.parse_seeds(args.seeds)
    seconds = spec["run_seconds"]

    # Each seed runs at both latencies back to back, alternating which goes
    # first, so drift in the host's speed hits both sides alike.
    runs = [(w, 0) for w in run.WORKLOADS] + [("train-ooc", 1)]
    for i, seed in enumerate(seeds):
        for workload, trace in runs:
            for lat in ((30, 60) if i % 2 == 0 else (60, 30)):
                out = os.path.join(args.out, "lat%d-trace%d" % (lat, trace))
                if not sweep.sweep(out, [workload], [seed], seconds, trace, lat):
                    sys.exit("attribution: a run failed")
    return evaluate(args.out, spec)


def evaluate(out, spec):
    """Checks the result sets under `out`; returns the exit code."""
    sets = {(lat, trace): compare.load_set(
                os.path.join(out, "lat%d-trace%d" % (lat, trace)))
            for lat in (30, 60) for trace in (0, 1)}

    failures = []

    def expect(ok, what):
        print("%s  %s" % ("ok  " if ok else "FAIL", what))
        if not ok:
            failures.append(what)

    base, slow = sets[30, 0][("train-ooc", 0)], sets[60, 0][("train-ooc", 0)]
    for name in ("keys_per_s", "train_samples_per_s"):
        b, s = compare.metric_values(base, name), compare.metric_values(slow, name)
        q1, bmed, q3 = compare.quartiles(b)
        smed = compare.quartiles(s)[1]
        expect(bmed - smed > q3 - q1,
               "train-ooc %s falls: %.5g -> %.5g (base quartile distance %.3g)"
               % (name, bmed, smed, q3 - q1))
    tbase, tslow = sets[30, 1][("train-ooc", 1)], sets[60, 1][("train-ooc", 1)]
    b, s = median(tbase, "backend.get.busy_s"), median(tslow, "backend.get.busy_s")
    expect(s > b, "train-ooc backend.get.busy_s rises: %.4g -> %.4g s" % (b, s))
    moved = []
    for name in IO_METRICS:
        b, s = median(tbase, name), median(tslow, name)
        print("      %-28s %.5g -> %.5g" % (name, b, s))
        if b and abs(s / b - 1) > 0.02:
            moved.append(name)
    expect(bool(moved), "train-ooc io.* counters move: %s" %
           (", ".join(moved) or "none"))

    for workload in ("kv-mem", "serve-zipf"):
        base = sets[30, 0][(workload, 0)]
        slow = sets[60, 0][(workload, 0)]
        for m in spec["end_to_end"]:
            b, s = median(base, m["name"]), median(slow, m["name"])
            rel = s / b - 1 if b else 0.0
            expect(abs(rel) <= m["bound"],
                   "%s %s stays within %.2f: %.5g -> %.5g (%+.3f)"
                   % (workload, m["name"], m["bound"], b, s, rel))

    print("\nattribution check %s" % ("FAILED" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
