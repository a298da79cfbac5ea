#!/usr/bin/env python3
"""Steadiness mode: run every workload repeatedly and report how much
each metric moves from run to run.

    python3 perfbench/steady.py [--runs 10] [--sets 2] [--workloads a,b] [--trace 0|1]

Reads the command, workloads, run length and bounds from BENCHMARK.json
at the repository root. Each set runs every workload --runs times, each
time with a new seed, alternating the workload order between rounds so
no workload always follows the same neighbour. For every metric it
prints the median, the quartiles (statistics.quantiles, n=4) and the
spread (q3 - q1) / median next to the metric's bound; with two or more
sets it also prints how far each later set's median moved from the
first set's. Run from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(args, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(args)} failed with exit code {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect result {result}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med if med else float("inf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=0)
    parser.add_argument("--first-seed", type=int, default=1)
    opts = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = ([w for w in opts.workloads.split(",") if w]
                 or [w["name"] for w in bench["workloads"]])
    seconds = opts.seconds or bench["run_seconds"]
    metrics = bench["end_to_end"] if opts.trace == 0 else bench["per_layer"]
    bounds = {m["name"]: m.get("bound") for m in metrics}

    # samples[set][workload][metric] -> values in run order
    samples = []
    seed = opts.first_seed
    for s in range(opts.sets):
        per_set = {w: {} for w in workloads}
        for r in range(opts.runs):
            order = workloads if r % 2 == 0 else list(reversed(workloads))
            for w in order:
                values = run_once(bench["command"], w, seed, seconds, opts.trace)
                print(f"set {s + 1} run {r + 1} {w} seed {seed}: "
                      + " ".join(f"{k}={v:.6g}" for k, v in values.items()
                                 if k in bounds),
                      file=sys.stderr, flush=True)
                for k, v in values.items():
                    per_set[w].setdefault(k, []).append(v)
            seed += 1
        samples.append(per_set)

    for w in workloads:
        print(f"\n{w}")
        print(f"  {'metric':28s} {'set':>3s} {'median':>12s} {'q1':>12s} "
              f"{'q3':>12s} {'spread':>8s} {'bound':>6s} {'vs set 1':>9s}")
        for m in metrics:
            name = m["name"]
            first_median = None
            for s, per_set in enumerate(samples):
                values = per_set[w].get(name)
                if not values:
                    continue
                q1, med, q3, sp = spread(values)
                if first_median is None:
                    first_median = med
                moved = (med - first_median) / first_median if first_median else 0.0
                bound = bounds[name]
                print(f"  {name:28s} {s + 1:3d} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                      f"{sp:8.4f} {bound if bound is not None else '-':>6} "
                      f"{moved:+9.4f}")


if __name__ == "__main__":
    main()
