#!/usr/bin/env python3
"""Runs one workload of the benchmark over several seeds and reports, per
metric, the median and the quartile spread (Q3 - Q1) / median -- the
steadiness test each end-to-end metric's bound is checked against.

    python3 perfbench/spread.py --workload batch_opt --seeds 1-10 [--seconds 10] [--trace 0]

Run from the repository root; each run goes through perfbench/run.py.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args()

    values = {}
    for seed in parse_seeds(args.seeds):
        done = subprocess.run(
            [sys.executable, RUN, "--workload", args.workload, "--seed",
             str(seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)], capture_output=True, text=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: exit {done.returncode}\n{done.stderr}")
        result = json.loads(lines[-1])
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}",
              flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    print(f"\n{'metric':<28}{'median':>16}{'spread':>10}  values")
    for name, series in values.items():
        median = statistics.median(series)
        spread = float("nan")
        if len(series) >= 2 and median:
            q1, _, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median
        shown = " ".join(f"{v:.4g}" for v in series)
        print(f"{name:<28}{median:>16.6g}{spread:>10.4f}  {shown}")


if __name__ == "__main__":
    main()
