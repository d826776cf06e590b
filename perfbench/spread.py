"""Run-to-run spread of the end-to-end metrics, against their bounds.

Usage (from the repository root):

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [WORKLOAD ...]

Runs ``run.py --trace 0`` once per seed for each workload (all of them by
default) and prints, per metric, the median and the distance between
the first and third quartiles (``statistics.quantiles(values, n=4)``)
as a share of the median, next to the metric's bound in BENCHMARK.json.
A benchmark is steady when every spread except ``setup_s`` stays below
a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workloads", nargs="*", default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    for workload in args.workloads:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        correct_runs = failed_ops = 0
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed)]
            cmd += ["--seconds", str(bench["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            correct_runs += result["correct"]
            failed_ops += result["failed"]
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        print(f"{workload} ({args.runs} runs, seeds {args.first_seed}..{args.first_seed + args.runs - 1})")
        print(f"  correct in {correct_runs} of {args.runs} runs, {failed_ops} failed operations")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            flag = "ok" if spread < bounds[name] / 3 else ("WIDE" if spread < bounds[name] else "OVER")
            print(f"  {name:12s} median {med:12.6g}  spread {spread:7.2%}  bound {bounds[name]:.0%}  {flag}")
            print("    " + " ".join(f"{v:.5g}" for v in vals))
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
