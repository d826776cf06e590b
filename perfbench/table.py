"""Rebuild ROADMAP's baseline table from the traced benchmark run.

Usage (from the repository root):

    python3 perfbench/table.py [--seed N]

Runs ``run.py --trace 1`` on every workload, then prints a Markdown
table of the ROADMAP rows next to the rough numbers ROADMAP recorded
(commit fc9a18f, 2 CPUs, Python 3.11, numpy 2.4, each timed once or
five times), with the ratio and the basis of each number.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# (row, unit, ROADMAP value, ROADMAP basis, workload, how to read this run, this run's basis)
ROWS = (
    ("secure_key_rate, one scalar call", "us", 8.7, "direct call",
     "sweep-grid", lambda r: r["layers"]["keyrate.secure_key_rate.us_per_call"], "traced sweep, recorder cost removed"),
    ("optimize_modulation, one point", "ms", 3.6, "~400 rate evaluations",
     "optimize-points", lambda r: r["layers"]["keyrate.optimize_modulation.ms_per_call"],
     "traced, n0 20-5000, 0-750 km"),
    ("default sweep, 303 points", "s", 1.06, "compute_sweep only",
     "sweep-grid", lambda r: r["bases"]["op_p50_s"]["untraced"], "whole `sweep` command, untraced p50"),
    ("simulate, serial", "M rounds/s", 2.1, "1e6 rounds, 1 partition",
     "mc-simulate", lambda r: r["layers"]["simulate.serial_rounds_per_s"] / 1e6, "1e6 rounds, 4 partitions, workers=1"),
    ("simulate, pooled", "M rounds/s", 4e6 / 1.47 / 1e6, "4e6 rounds, 4 partitions, 4 workers",
     "mc-simulate", lambda r: r["layers"]["simulate.pooled_rounds_per_s"] / 1e6, "1e6 rounds, 4 partitions, 2 workers"),
    ("simulate --dump writer", "k rows/s", 2e5 / (1.08 * 10 / 11) / 1e3, "2e5 rows, dump ~10x the simulation",
     "record-pipeline", lambda r: r["layers"]["simulate.dump_rows_per_s"] / 1e3, "2e5 rows, run_protocol with - without dump"),
    ("load_quadrature_records", "k rows/s", 2e5 / 0.32 / 1e3, "2e5 rows",
     "record-pipeline", lambda r: r["layers"]["g2.load_quadrature_records.rows_per_s"] / 1e3, "2e5 + 2e5 rows per analyze"),
    ("g2_estimate, per bootstrap resample", "us", 0.29 / 200 * 1e6, "2e5 samples, 200 resamples",
     "record-pipeline", lambda r: r["layers"]["g2.g2_estimate.us_per_resample"], "2e5 samples, 200 resamples"),
)


def traced_report(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", "1"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    final = json.loads(out.stdout.strip().splitlines()[-1])
    with open(os.path.join(ROOT, ".perfbench_work", workload, "report-trace1.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    return {
        "layers": {name: m["value"] for name, m in final["metrics"].items()},
        "bases": report["layer_bases"],
        "provenance": report["provenance"],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]
    reports = {w: traced_report(w, args.seed, seconds) for w in dict.fromkeys(row[4] for row in ROWS)}

    prov = next(iter(reports.values()))["provenance"]
    print(
        f"Traced run, seed {args.seed}, {seconds} s per workload; commit {prov['git_commit'][:12]}, "
        f"{prov['cpu_model']}, {prov['nproc']} CPUs, Python {prov['python']}, numpy {prov['numpy']}.\n"
    )
    print("| path | ROADMAP (rough) | this run | this / ROADMAP | ROADMAP basis | this run's basis |")
    print("| --- | --- | --- | --- | --- | --- |")
    for label, unit, old, old_basis, workload, read, basis in ROWS:
        new = read(reports[workload])
        ratio = f"{new / old:.2f}" if new else "n/a"
        print(f"| {label} | {old:.3g} {unit} | {new:.3g} {unit} | {ratio} | {old_basis} | {basis} ({workload}) |")
    print()
    for workload, r in reports.items():
        print(
            f"- {workload}: tracing overhead {r['layers']['trace.overhead_pct']:.1f}% on op p50, "
            f"{r['layers']['trace.span_overhead_ns']:.0f} ns per span removed from parents"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
