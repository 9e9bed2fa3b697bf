#!/usr/bin/env python3
"""MLKV benchmark: builds mlkv_perf from this checkout and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload {train-ooc,kv-mem,serve-zipf} \\
        --seed N --seconds S --trace {0,1} [--read-latency-us US]

Workloads (all closed loop, 2 caller threads, inputs drawn from --seed):
  train-ooc   CtrTrainer over an out-of-core MLKV table (8 MiB buffer, ~23 MB
              of records, SSP bound 8, lookahead depth 2, simulated NVMe).
  kv-mem      raw KvBackend traffic on an in-memory MLKV table: 50% MultiGet,
              50% MultiApplyGradient, batches of 256, zipf 0.99, ASP.
  serve-zipf  two loopback KvServers over CachingBackend(MLKV) behind a
              ClusterBackend: 95% untracked MultiGet, 5% MultiApplyGradient.

The command prints a table of every metric with its unit and sample count,
the output checks and the provenance block, and then, as its last line, one
JSON object {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are BENCHMARK.json's end_to_end list (untraced run); with --trace 1
they are its per_layer list (spans and layer counters of a traced phase).
The full result is kept in .bench_build/results/ for perfbench/compare.py,
and the last traced run's spans in .bench_build/spans/<workload>.csv. A
failed output check exits 1.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(OUT_DIR, "perfbench")
BINARY = os.path.join(BUILD_DIR, "mlkv_perf")
WORKLOADS = ("train-ooc", "kv-mem", "serve-zipf")
RUN_TIMEOUT_S = 170

# The end-to-end metrics every run prints, in display order. The ones a
# workload does not measure print as n/a.
DISPLAY = ("setup_s", "train_samples_per_s", "train_auc", "keys_per_s",
           "read_p50_us", "read_p99_us", "update_p50_us", "update_p99_us",
           "failed_frac", "peak_rss_mb")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def parse_args(argv):
    p = argparse.ArgumentParser(
        prog="perfbench/run.py", allow_abbrev=False,
        description="Run one MLKV benchmark workload.")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--read-latency-us", type=int, default=30,
                   help="simulated NVMe read latency (default 30)")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not 1 <= args.seconds <= 600:
        p.error("--seconds must be in [1, 600]")
    if not 0 <= args.read_latency_us <= 100000:
        p.error("--read-latency-us must be in [0, 100000]")
    return args


def build():
    """Configures (once) and builds mlkv_perf; exits 1 on failure."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "mlkv_perf",
                  "-j", "4"])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True)
        if r.returncode != 0:
            log(r.stdout[-4000:])
            log("perfbench: build failed: " + " ".join(cmd))
            sys.exit(1)


def provenance_extras():
    sha = "unknown"
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True, timeout=10)
        if r.returncode == 0:
            sha = r.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    build_type = "unknown"
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    with open(cache) as f:
        for line in f:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.split("=", 1)[1].strip()
    return {"git_sha": sha, "build_type": build_type}


def run_binary(args):
    data = os.path.join(OUT_DIR, "data", "%s-%d" % (args.workload, os.getpid()))
    spans_dir = os.path.join(OUT_DIR, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--read-latency-us", str(args.read_latency_us),
           "--data-dir", data]
    if args.trace:
        cmd += ["--spans-out",
                os.path.join(spans_dir, "%s.csv" % args.workload)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log("perfbench: mlkv_perf timed out")
        sys.exit(1)
    finally:
        shutil.rmtree(data, ignore_errors=True)
    if proc.returncode != 0:
        log("perfbench: mlkv_perf exited with %d" % proc.returncode)
        sys.exit(1)
    return json.loads(out)


def fmt(v):
    return "%.6g" % v


def main(argv):
    args = parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    build()
    result = run_binary(args)
    result["provenance"].update(provenance_extras())
    metrics = result["metrics"]

    checks = list(result["checks"])
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    checks.append({"name": "metrics_present", "ok": not missing,
                   "detail": "missing: " + ", ".join(missing) if missing else
                   "%d declared metrics reported" % len(declared)})
    if not args.trace:
        zero = [m["name"] for m in declared
                if m["name"] in metrics and metrics[m["name"]]["value"] <= 0]
        checks.append({"name": "metrics_nonzero", "ok": not zero,
                       "detail": "zero: " + ", ".join(zero) if zero else
                       "every end-to-end metric is positive"})
    correct = all(c["ok"] for c in checks) and result["failed"] == 0
    result["checks"] = checks
    result["correct"] = correct

    print("MLKV benchmark: workload=%s seed=%d seconds=%d trace=%d" %
          (args.workload, args.seed, args.seconds, args.trace))
    print("provenance: " + json.dumps(result["provenance"], sort_keys=True))
    print("%-36s %16s  %-6s %s" % ("metric", "value", "unit", "samples"))
    for name in DISPLAY:
        if name in metrics:
            m = metrics[name]
            print("%-36s %16s  %-6s n=%d" % (name, fmt(m["value"]), m["unit"], m["n"]))
        else:
            print("%-36s %16s  (not measured on %s)" % (name, "n/a", args.workload))
    if args.trace:
        for name in sorted(metrics):
            if name not in DISPLAY:
                m = metrics[name]
                print("%-36s %16s  %-6s n=%d" % (name, fmt(m["value"]), m["unit"], m["n"]))
    for c in checks:
        print("check %-22s %s  %s" % (c["name"], "ok  " if c["ok"] else "FAIL", c["detail"]))

    results_dir = os.path.join(OUT_DIR, "results")
    os.makedirs(results_dir, exist_ok=True)
    path = os.path.join(results_dir, "%s-seed%d-trace%d-lat%d.json" % (
        args.workload, args.seed, args.trace, args.read_latency_us))
    with open(path, "w") as f:
        json.dump(result, f, indent=1, sort_keys=True)

    line = {"correct": correct, "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {m["name"]: {"value": metrics[m["name"]]["value"],
                                    "unit": m["unit"]}
                        for m in declared if m["name"] in metrics}}
    print(json.dumps(line))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
