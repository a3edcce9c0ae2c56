#!/usr/bin/env python3
"""memclust benchmark: builds perfbench/main.exe from source, runs
iterations of one workload, each in a fresh process, and prints the
metrics. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.

    python3 perfbench/run.py --workload compile|sim-mp|lp-sweep \
        --seed N --seconds S --trace 0|1

An iteration is a set-up (repeated on the workloads where it is short,
each repetition timed) and one timed region over the workload's points,
in an order the seed permutes; see main.ml. Iterations
repeat until their timed regions add up to --seconds. Reported times are
medians over the iterations (setup_s: over every set-up of the run).
Exact metrics (speedup, simulated counters, counts) must repeat in every
iteration, or the run is not correct.

Host times are reported at a reference machine speed: each iteration
times a fixed calibration kernel between its points (main.ml), and its
host times are multiplied by REFERENCE_KERNEL_S over the median kernel
time, rates divided. The raw figures are printed, and reported as the
per-layer host.wall_s and host.kernel_s. The peak heap is printed with
every run and reported as the per-layer host.peak_heap_mb: it depends on
the seed's point order (see metrics.json), so it carries no bound.

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones,
from spans recorded around each call into a layer and written to
perfbench/out/. See metrics.json for what each metric measures and which
end-to-end metric it should move.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join("_build", "default", "perfbench", "main.exe")
OUT = os.path.join("perfbench", "out")

WORKLOADS = ("compile", "sim-mp", "lp-sweep")

# stop starting iterations once this much wall time has gone, so a run
# ends well within its time limit even on a slow machine
RUN_BUDGET_S = 150.0
CHILD_TIMEOUT_S = 170.0

# the calibration kernel's time at the reference speed (its median on the
# 2-core VM the benchmark was built on)
REFERENCE_KERNEL_S = 0.05

# how host metrics scale with machine speed, by unit: times by the
# iteration's speed factor, rates by its inverse
SPEED_POWER = {"s": 1, "ms": 1, "ns/cycle": 1, "Minstr/s": -1}

# per-layer metrics reported as measured, without speed scaling
RAW = {"host.wall_s", "host.kernel_s", "host.peak_heap_mb"}


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/main.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        fail("build failed")


def iteration(args, index):
    cmd = [EXE, "iter", "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(os.path.join(ROOT, OUT), exist_ok=True)
        cmd += ["--spans", os.path.join(
            OUT, "spans-%s-seed%d-%d.jsonl" % (args.workload, args.seed, index))]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("iteration %d timed out" % index)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        fail("iteration %d exited with code %d" % (index, proc.returncode))
    return json.loads(lines[-1])


def run(args):
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    build()
    start = time.monotonic()
    iters = []
    measured = 0.0
    while True:
        t0 = time.monotonic()
        r = iteration(args, len(iters))
        iters.append(r)
        measured += r["wall_s"]
        took = time.monotonic() - t0
        if measured >= args.seconds:
            break
        if time.monotonic() - start + took > RUN_BUDGET_S:
            break

    for r in iters:
        r["kernel"] = statistics.median(r["kernel_s"])
        r["speed"] = REFERENCE_KERNEL_S / r["kernel"]
        r["layers"]["host.wall_s"] = r["wall_s"]
        r["layers"]["host.kernel_s"] = r["kernel"]
        r["layers"]["host.peak_heap_mb"] = r["peak_heap_mb"]

    def scaled(r, name, unit):
        if name in RAW:
            return r["layers"][name]
        return r["layers"][name] * r["speed"] ** SPEED_POWER.get(unit, 0)

    failures = [f for r in iters for f in r["failures"]]
    first = iters[0]
    repeat = all(r["speedup"] == first["speedup"] and r["exact"] == first["exact"]
                 and r["order"] == first["order"] for r in iters)
    correct = repeat and not failures

    if args.trace:
        metrics = {}
        for m in spec["per_layer"]:
            name = m["name"]
            # exact metrics must be identical in every iteration (checked
            # below); the others are host measurements
            value = (first["exact"][name] if name in first["exact"]
                     else statistics.median(scaled(r, name, m["unit"]) for r in iters))
            metrics[name] = {"value": value, "unit": m["unit"]}
    else:
        values = {
            "wall_s": statistics.median(r["wall_s"] * r["speed"] for r in iters),
            "setup_s": statistics.median(s * r["speed"] for r in iters for s in r["setup_s"]),
            "speedup": first["speedup"],
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}

    attempted = sum(r["ops"] for r in iters)
    failed = sum(r["ops_failed"] for r in iters)
    print("workload %s, seed %d, %d iteration(s), points in order: %s"
          % (args.workload, args.seed, len(iters), " ".join(first["order"])))
    for name, m in metrics.items():
        print("  %-32s %16.6f %s" % (name, m["value"], m["unit"]))
    for r in iters:
        print("  iteration: host wall %.4f s, set-ups %s s, kernel %.5f s, speed factor %.4f,"
              " peak heap %.1f MB"
              % (r["wall_s"], " ".join("%.4f" % s for s in r["setup_s"]),
                 r["kernel"], r["speed"], r["peak_heap_mb"]))
    print("  %-32s %16d count" % ("ops", attempted))
    print("  %-32s %16d count" % ("ops_failed", failed))
    for f in failures:
        print("  FAILED %s: %s" % (f["point"], f["reason"]))
    if not repeat:
        print("  FAILED exact metrics differ between iterations")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run(p.parse_args())


if __name__ == "__main__":
    main()
