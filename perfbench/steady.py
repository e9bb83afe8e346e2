#!/usr/bin/env python3
"""Run the benchmark once per seed and print, for each end-to-end metric,
the median, the quartiles and the spread (interquartile distance as a share
of the median). Each spread is meant to stay within the metric's bound in
BENCHMARK.json.

    python3 perfbench/steady.py --workload adv5 --runs 10 --seconds 30

Run from the repository root. Exits 1 if any run fails or is incorrect.
"""

import argparse
import json
import os
import subprocess
import sys

import measure

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--seed", type=int, default=1, help="first seed")
    args = ap.parse_args()

    values = {}
    ok = True
    for i in range(args.runs):
        out = subprocess.run(
            [sys.executable, RUN, "--workload", args.workload,
             "--seed", str(args.seed + i), "--seconds", str(args.seconds),
             "--trace", "0"], stdout=subprocess.PIPE, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode or not lines:
            print(f"run {i}: exit code {out.returncode}, no result")
            ok = False
            continue
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        print(f"run {i}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              + " ".join(f"{k}={v:.6g}" for k, v in metrics.items()),
              flush=True)
        for k, v in metrics.items():
            values.setdefault(k, []).append(v)

    for k, xs in values.items():
        if len(xs) < 2:
            continue
        q1, med, q3 = measure.quartiles(xs)
        print(f"{args.workload} {k}: median {med:.6g} quartiles "
              f"[{q1:.6g}, {q3:.6g}] spread {measure.spread(xs):.4f} "
              f"({len(xs)} runs)")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
