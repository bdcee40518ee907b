#!/usr/bin/env python3
"""Run-to-run spread of every end-to-end metric, next to its bound.

Runs the benchmark command from BENCHMARK.json once per seed on each
workload (untraced), then prints, per workload and metric, the median of
the runs and the spread: the distance between the first and third
quartiles (Python's statistics.quantiles(values, n=4)) as a share of the
median. Run from the repository root:

    python3 perfbench/steadiness.py --runs 10 [--workloads a,b] [--seed0 100]
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seconds", type=int, default=0)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        workloads = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    for w in workloads:
        runs = []
        for i in range(args.runs):
            seed = args.seed0 + i
            cmd = spec["command"] + [
                "--workload", w, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", "0",
            ]
            out = subprocess.run(cmd, capture_output=True, text=True, check=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                sys.exit(f"{w} seed {seed}: failed run: {result}")
            runs.append(result["metrics"])
            print(json.dumps({"workload": w, "seed": seed, "metrics": result["metrics"]}),
                  flush=True)
        for name, bound in bounds.items():
            values = [r[name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            flag = "ok" if spread <= bound / 3 else ("within" if spread <= bound else "OVER")
            print(f"{w:16s} {name:18s} median={med:<14.6g} spread={spread:7.2%} "
                  f"bound={bound:.0%} {flag}", flush=True)


if __name__ == "__main__":
    main()
