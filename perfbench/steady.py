#!/usr/bin/env python3
"""Steadiness check: run every workload repeatedly and report the spread.

    python3 perfbench/steady.py [--rounds 10] [--seconds 30] [--seed 1]
                                [--workloads a,b,...]

Run from the repository root.  Every run is untraced (--trace 0): the
bounds are set from the end-to-end metrics alone.  Round i runs every workload once with seed
`--seed + i`, alternating workloads so that a slow spell of the machine
spreads over all of them.  For each metric it prints the median, the first
and third quartiles (Python's statistics.quantiles(n=4)) and the spread
(q3 - q1) / median, which is what the bounds in BENCHMARK.json are set
from.  Any failed check or failed operation is reported too.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("sweep_triage", "guided_greybox", "fib_scale")


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rounds", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    args = ap.parse_args()
    workloads = [w for w in args.workloads.split(",") if w]

    values = {w: {} for w in workloads}
    units = {}
    problems = []
    for i in range(args.rounds):
        for w in workloads:
            res = run_once(w, args.seed + i, args.seconds)
            if not res["correct"] or res["failed"]:
                problems.append(f"{w} seed {args.seed + i}: correct={res['correct']} "
                                f"failed={res['failed']}/{res['attempted']}")
            for name, m in res["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            print(f"round {i + 1}/{args.rounds} {w}: " +
                  ", ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()),
                  file=sys.stderr, flush=True)

    print(f"{'workload':16} {'metric':36} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'spread':>8}  unit")
    for w in workloads:
        for name, vals in values[w].items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            print(f"{w:16} {name:36} {med:14.6g} {q1:14.6g} {q3:14.6g} "
                  f"{spread:8.2%}  {units[name]}")
    for p in problems:
        print("problem: " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
