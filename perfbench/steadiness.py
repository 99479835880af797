#!/usr/bin/env python3
"""Run every benchmark workload k times and report how steady each metric is.

Usage (from the repository root):

    python3 perfbench/steadiness.py [--k 10] [--seconds S] [--trace 0|1]
                                    [--workloads a,b] [--seed-base N]
                                    [--same-seed]

Runs alternate between workloads, and the order flips on every round, so
slow drift on the host does not land on one workload. Each run gets its
own seed (seed-base + round) unless --same-seed is given, in which case
every run of a workload must also print the same simulated-output
checksum. For every metric the script prints the median, the first and
third quartiles (statistics.quantiles, n=4) and their distance as a share
of the median, next to the metric's bound from BENCHMARK.json; a spread
above a third of the bound is flagged. The exit code is 1 if any run
failed, reported incorrect output, or (with --same-seed) changed its
checksum.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path


def run_once(command, workload, seed, seconds, trace):
    args = command + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    t0 = time.monotonic()
    proc = subprocess.run(args, capture_output=True, text=True, check=False)
    wall = time.monotonic() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    checksum = next((ln.split()[-1] for ln in lines if ln.startswith("checksum ")), None)
    return result, checksum, wall


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--k", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--workloads", default=None)
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--same-seed", action="store_true")
    opts = ap.parse_args()

    spec = json.loads(Path("BENCHMARK.json").read_text())
    seconds = opts.seconds if opts.seconds is not None else spec["run_seconds"]
    workloads = (opts.workloads.split(",") if opts.workloads
                 else [w["name"] for w in spec["workloads"]])
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    values = {w: {} for w in workloads}
    checksums = {w: set() for w in workloads}
    bad = False
    for rnd in range(opts.k):
        order = workloads if rnd % 2 == 0 else list(reversed(workloads))
        for w in order:
            seed = opts.seed_base if opts.same_seed else opts.seed_base + rnd
            try:
                result, checksum, wall = run_once(spec["command"], w, seed, seconds, opts.trace)
            except (RuntimeError, json.JSONDecodeError, IndexError) as e:
                print(f"FAILED {e}", file=sys.stderr)
                bad = True
                continue
            if not result["correct"] or result["failed"]:
                print(f"INCORRECT {w} seed {seed}: {result}", file=sys.stderr)
                bad = True
            checksums[w].add(checksum)
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            shown = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
            print(f"round {rnd} {w} seed {seed}: {wall:.1f}s wall, checksum {checksum}, {shown}",
                  file=sys.stderr)

    for w in workloads:
        print(f"\n{w}" + (f"  checksums {sorted(checksums[w])}" if opts.same_seed else ""))
        if opts.same_seed and len(checksums[w]) != 1:
            print("  CHECKSUM CHANGED between runs of one seed")
            bad = True
        print(f"  {'metric':36} {'n':>3} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>8} {'bound':>6}")
        for name, vs in values[w].items():
            med = statistics.median(vs)
            if len(vs) >= 2:
                q1, _, q3 = statistics.quantiles(vs, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and spread > bound / 3:
                flag = "  WIDE"
            bound_s = f"{bound:6.2f}" if bound is not None else "     -"
            print(f"  {name:36} {len(vs):3d} {med:14.6g} {q1:14.6g} {q3:14.6g} "
                  f"{spread:8.4f} {bound_s}{flag}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
