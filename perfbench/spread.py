#!/usr/bin/env python3
"""Runs one workload under several seeds and reports each end-to-end metric's spread.

Usage, from the repository root:

    python3 perfbench/spread.py --workload solve-cached --seeds 1-10

For every metric it prints the median of the runs and the distance between
their first and third quartiles (statistics.quantiles, n=4) as a share of
the median, next to the metric's bound from BENCHMARK.json.  A spread
above a third of its bound is flagged: the benchmark aims to stay below
that.  setup_s is shown but, like the acceptance check, not held to its
bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def seeds(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=int, default=None)
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = {}
    for seed in args.seeds:
        command = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0",
        ]
        run = subprocess.run(command, cwd=root, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True)
        lines = run.stdout.strip().splitlines()
        if run.returncode != 0 or not lines:
            print("seed %d: exit %d" % (seed, run.returncode))
            return 1
        result = json.loads(lines[-1])
        if not result["correct"] or result["failed"]:
            print("seed %d: %d of %d failed" % (seed, result["failed"], result["attempted"]))
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.4g" % (n, m["value"]) for n, m in result["metrics"].items())), flush=True)

    print("%-30s %12s %8s %8s" % ("metric", "median", "spread", "bound"))
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and spread > bound / 3:
            flag = "  <-- above a third of the bound"
        print("%-30s %12.5g %8.4f %8s%s" % (name, med, spread, bound, flag))
    return 0


if __name__ == "__main__":
    sys.exit(main())
