#!/usr/bin/env python3
"""Runs one benchmark workload over several seeds and reports, per metric,
the median and the quartile spread (IQR / median), the figure the bounds in
BENCHMARK.json are set against.

    python3 perfbench/spread.py --workload probe --seeds 1-10 [--trace 0]

Run from the repository root. The command and run length come from
BENCHMARK.json unless --seconds is given.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    values = {}
    ok = True
    for seed in args.seeds:
        cmd = bench["command"] + [
            "--workload", args.workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", args.trace,
        ]
        run = subprocess.run(cmd, capture_output=True, text=True)
        lines = run.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        if run.returncode != 0 or not result.get("correct"):
            ok = False
            print(f"seed {seed}: exit {run.returncode}: {run.stderr.strip()[-300:]}")
        for name, m in result.get("metrics", {}).items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{n}={m['value']:.6g}" for n, m in result.get("metrics", {}).items()))

    print(f"{'metric':<32} {'median':>14} {'spread':>8} {'bound':>6}")
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
        else:
            spread = float("nan")
        bound = bounds.get(name)
        print(f"{name:<32} {med:>14.6g} {spread:>8.4f} {bound if bound is not None else '':>6}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
