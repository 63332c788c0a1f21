#!/usr/bin/env python3
"""Run one workload k times, each with another seed, and print every
metric's median, quartiles and spread (interquartile range as a share of
the median, with the quartiles Python's statistics.quantiles(n=4) gives).

    python3 perfbench/spread.py --workload serve-fleet --runs 10 --seconds 10

Exits non-zero when a run fails, reports incorrect outputs, or when the
share of failed operations differs between runs.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def one_run(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"seed {seed}: run failed (exit {out.returncode})")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()
    results = []
    for i in range(args.runs):
        seed = args.first_seed + i
        r = one_run(args.workload, seed, args.seconds, args.trace)
        results.append(r)
        short = ", ".join(f"{k}={v['value']:.4g}" for k, v in r["metrics"].items())
        print(f"seed {seed}: correct={r['correct']} attempted={r['attempted']} "
              f"failed={r['failed']} {short}", flush=True)
    ok = all(r["correct"] for r in results)
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"\n{args.workload}: {args.runs} runs, all correct: {ok}, "
          f"failed shares: {sorted(shares)}")
    print(f"{'metric':34} {'unit':>6} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
    for name in results[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        spread = (q3 - q1) / med if med else float("nan")
        unit = results[0]["metrics"][name]["unit"]
        print(f"{name:34} {unit:>6} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.3f}")
    return 0 if ok and len(shares) == 1 else 1


if __name__ == "__main__":
    sys.exit(main())
