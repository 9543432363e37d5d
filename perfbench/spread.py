"""Run the benchmark several times per workload and report each metric's spread.

    python3 perfbench/spread.py --runs 10 [--workload compare] [--out FILE]

Each run is untraced, lasts the spec's ``run_seconds`` and uses another
seed (1, 2, ...).  For every metric this prints the
median, the quartiles, and the interquartile range as a share of the
median, beside the metric's bound from the spec.  A spread at or above a
third of the bound is flagged.  ``--out`` writes every run's metrics and the
summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=workloads.WORKLOADS)
    parser.add_argument("--out")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in workloads.END_TO_END}
    report = {}
    ok = True
    for name in args.workload or list(workloads.WORKLOADS):
        runs = []
        for seed in range(1, args.runs + 1):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(workloads.RUN_SECONDS),
                 "--trace", "0"],
                capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            ok &= result["correct"]
            runs.append({"seed": seed, **result})
            print(f"{name} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", file=sys.stderr)
        summary = {}
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs]
            summary[metric] = summarize(values)
            s = summary[metric]
            bound = bounds[metric]
            flag = "" if s["spread"] < bound / 3 else "  <-- wide"
            print(f"{name:9s} {metric:48s} median {s['median']:.6g} "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.4f} "
                  f"(bound {bound}){flag}")
        report[name] = {"runs": runs, "summary": summary}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
