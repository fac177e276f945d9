#!/usr/bin/env python3
"""Run the benchmark over several seeds and print, per metric, the median
and the quartile spread (Q3 - Q1) / median, the statistic the benchmark's
bounds are judged by.

    python3 perfbench/spread.py --workload churn_stream --seeds 1-5 [--trace 0]
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    values = {}
    for seed in seeds_of(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: rc={proc.returncode} correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    print(f"{'metric':34s} {'median':>12s} {'spread':>8s} {'bound':>6s}")
    for name, vs in values.items():
        med = statistics.median(vs)
        spread = float("nan")
        if len(vs) >= 2 and med:
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / abs(med)
        bound = bounds.get(name)
        flag = "" if bound is None or spread < bound / 3 else "  <-- above bound/3"
        print(f"{name:34s} {med:12.6g} {spread:8.4f} {bound if bound else '':>6}{flag}")


if __name__ == "__main__":
    main()
