"""Benchmark of the passive-cvqkd command line, end to end and per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see workloads.py and README.md) in a child process,
checks every operation's output against an independent reference, and
prints each metric by name with its unit.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a separate traced run with ``--trace 1``.  The full
report, with provenance, also goes to
``.perfbench_work/<workload>/report-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from checks import KNOWN_CAUSES, category, check_op
from layers import UNITS as LAYER_UNITS
from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
SETUP_RUNS = 8  # before the workload, and as many again after it
SETUP_CODE = "import passive_cvqkd.cli as cli; cli.build_parser()"
CHILD_TIMEOUT_S = 150
TAIL_PERMILLE = (500, 900, 990, 999)
MIN_BEYOND = 10

END_TO_END_UNITS = {
    "wall_s": "s",
    "work_per_s": "1/s",
    "op_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def samples_beyond(n: int, permille: int) -> int:
    """Samples ranked strictly above the percentile at ``permille``/1000.

    The percentile sits at rank ``permille * (n - 1) / 1000`` of the
    sorted samples (linear interpolation), as in ``percentile``.
    """
    return n - 1 - (permille * (n - 1)) // 1000


def tail_permille(n: int) -> int | None:
    """Highest of p50/p90/p99/p99.9 with at least 10 samples beyond it."""
    ok = [p for p in TAIL_PERMILLE if n > 0 and samples_beyond(n, p) >= MIN_BEYOND]
    return max(ok) if ok else None


def percentile(values, permille: int) -> float:
    xs = sorted(values)
    rank = permille * (len(xs) - 1) / 1000
    lo = int(rank)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (rank - lo)


def measure_setup(env: dict, warm: bool) -> list[float]:
    """Wall time of fresh interpreters importing the CLI and building its parser.

    With ``warm``, one untimed run first writes the bytecode cache, which
    users do not pay for on every run.
    """
    cmd = [sys.executable, "-c", SETUP_CODE]
    times = []
    for _ in range(SETUP_RUNS + 1 if warm else SETUP_RUNS):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=env)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise SystemExit(f"error: importing the CLI failed with exit code {proc.returncode}")
    return times[1:] if warm else times


def provenance(child: dict, args, params: dict) -> dict:
    commit = "unavailable: not a git checkout"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = out.stdout.strip() or f"unavailable: {out.stderr.strip()}"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "package_version": child["package_version"],
        "git_commit": commit,
        "python": child["python_version"],
        "numpy": child["numpy_version"],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": params,
    }


def end_to_end(workload, timed: list[dict], setup: list[float], rss: dict) -> tuple[dict, dict]:
    """End-to-end metrics of the untraced run, and their sample counts."""
    lat = [r["seconds"] for r in timed]
    k = workload.job_ops
    jobs = [sum(lat[i : i + k]) for i in range(0, len(lat) - k + 1, k)]
    metrics = {
        "wall_s": statistics.median(jobs),
        "work_per_s": sum(r["work"] for r in timed) / sum(lat),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(rss["self"], rss["children"]),
    }
    samples = {
        "wall_s": f"median of {len(jobs)} jobs of {k} op(s)",
        "work_per_s": f"{sum(r['work'] for r in timed):g} {workload.unit} over {len(lat)} ops",
        "op_p50_ms": f"median of {len(lat)} ops",
        "setup_s": f"median of {len(setup)} fresh interpreters",
        "peak_rss_mb": f"max of workload process {rss['self']:.1f} MB and pool workers {rss['children']:.1f} MB",
    }
    return metrics, samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for needed in (os.path.join(SRC, "passive_cvqkd", "__init__.py"), os.path.join(ROOT, "tests", "oracles.py")):
        if not os.path.isfile(needed):
            print(f"error: {os.path.relpath(needed, ROOT)} not found; run from a full checkout", file=sys.stderr)
            return 2

    workload = WORKLOADS[args.workload](len(os.sched_getaffinity(0)))
    workdir = os.path.join(WORK, workload.name)
    os.makedirs(workdir, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=SRC)
    # setup_s is an end-to-end metric; the traced run reports layers only.
    setup = [] if args.trace else measure_setup(env, warm=True)

    spec_path = os.path.join(workdir, f"spec-trace{args.trace}.json")
    result_path = os.path.join(workdir, f"child-trace{args.trace}.json")
    spec = {
        "root": ROOT,
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "nproc": workload.nproc,
        "workdir": workdir,
        "result": result_path,
    }
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    if os.path.exists(result_path):
        os.remove(result_path)
    child_cmd = [sys.executable, os.path.join(os.path.dirname(os.path.abspath(__file__)), "child.py"), spec_path]
    try:
        proc = subprocess.run(child_cmd, env=env, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: workload did not finish within {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 1
    if proc.returncode != 0 or not os.path.exists(result_path):
        print(f"error: workload process exited {proc.returncode}", file=sys.stderr)
        return 1
    with open(result_path, encoding="utf-8") as fh:
        child = json.load(fh)
    # Set-up samples on both sides of the workload span more of the
    # machine's slow and fast spells than a single burst would.
    setup += [] if args.trace else measure_setup(env, warm=False)
    if not os.path.abspath(child["package_file"]).startswith(SRC + os.sep):
        print(f"error: benchmarked {child['package_file']}, not the package under {SRC}", file=sys.stderr)
        return 2

    attempted = [r for r in child["ops"] if r["phase"] != "warmup"]
    problems = {r["id"]: check_op(r) for r in attempted}
    failed_ids = {i for i, p in problems.items() if p}
    by_category: dict[str, list[str]] = {}
    for p in problems.values():
        for problem in p:
            by_category.setdefault(category(problem), []).append(problem)

    if args.trace:
        metrics, units = child["layers"], LAYER_UNITS
        samples = {name: "traced run" for name in metrics}
    else:
        timed = [r for r in attempted if r["phase"] == "timed"]
        metrics, samples = end_to_end(workload, timed, setup, child["peak_rss_mb"])
        units = END_TO_END_UNITS
    lat = [r["seconds"] for r in attempted if r["phase"] in ("timed", "untraced")]
    tail = tail_permille(len(lat))

    report = {
        "provenance": provenance(child, args, workload.params()),
        "metrics": {n: {"value": v, "unit": units[n], "samples": samples[n]} for n, v in metrics.items()},
        "latency_ms": {
            "ops": len(lat),
            "p50": statistics.median(lat) * 1e3,
            "tail": None if tail is None else {"percentile": tail / 10, "value": percentile(lat, tail) * 1e3},
        },
        "checks": {
            "attempted": len(attempted),
            "failed": len(failed_ids),
            "by_category": {c: {"count": len(v), "cause": KNOWN_CAUSES.get(c), "examples": v[:3]} for c, v in by_category.items()},
        },
        "layer_bases": child.get("layer_bases"),
        "setup_runs_s": setup,
    }
    with open(os.path.join(workdir, f"report-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)

    prov = report["provenance"]
    print(f"# perfbench {workload.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("# provenance " + json.dumps({k: v for k, v in prov.items() if k != "params"}))
    print("# params " + json.dumps(prov["params"]))
    for name, m in report["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}  ({m['samples']})")
    lat_line = f"latency: p50 {report['latency_ms']['p50']:.4g} ms over {len(lat)} ops"
    if tail is not None and tail > 500:
        lat_line += f", p{tail / 10:g} {report['latency_ms']['tail']['value']:.4g} ms"
    else:
        lat_line += f"; no tail percentile (needs >= {MIN_BEYOND} samples beyond it)"
    print(lat_line)
    print(f"checks: {len(attempted)} attempted, {len(failed_ids)} failed")
    for c, info in report["checks"]["by_category"].items():
        cause = f" [{info['cause']}]" if info["cause"] else ""
        print(f"  {c}: {info['count']}{cause}; e.g. {info['examples'][0]}")
    final = {
        "correct": not failed_ids,
        "attempted": len(attempted),
        "failed": len(failed_ids),
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
