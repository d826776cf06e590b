"""Runs one workload's operations in a process of its own.

Usage: ``python3 perfbench/child.py SPEC.json``.  ``run.py`` writes the
spec and reads back the result file it names.  Running the workload in
its own process makes peak RSS a property of that workload, and keeps
the oracle used by the output checks out of the measured process.

Phases: one untimed warm-up operation, then either a timed phase of
``seconds`` (untraced run), or an untraced and a traced phase of
``seconds / 2`` each followed by the workload's probe operations
(traced run).
"""

from __future__ import annotations

import importlib
import json
import math
import os
import resource
import sys
import time

import numpy

from layers import OBSERVERS, TARGET_NAMES, layer_metrics
from spans import SpanRecorder, install, span_overhead_ns
from workloads import N_BOOT, WORKLOADS, run_op, workload_rng

PIN_SLICE_S = 0.2


def _phase(ops, seconds, name, run, min_ops=1):
    deadline = time.perf_counter() + seconds
    done = 0
    while done < min_ops or time.perf_counter() < deadline:
        run(next(ops), name)
        done += 1


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, os.path.join(spec["root"], "src"))
    import passive_cvqkd
    from passive_cvqkd import cli

    workload = WORKLOADS[spec["workload"]](spec["nproc"])
    workdir = spec["workdir"]
    rng = workload_rng(workload.name, spec["seed"])
    workload.setup(workdir, spec["seed"])
    ops = workload.ops(rng, workdir)
    records: list[dict] = []
    recorder = SpanRecorder()
    main_fn = cli.main
    # The CPUs of a shared host each switch between fast and slow spells
    # lasting seconds to minutes, independently of one another.  Pinning
    # the process to the next CPU in turn, before the first operation after
    # each PIN_SLICE_S, makes every run sample all CPUs alike; left to the
    # scheduler, a run can sit on a slow CPU.  The slice keeps the cost of
    # moving to a cold CPU off most short operations.
    cpus = sorted(os.sched_getaffinity(0))
    pins, last_pin = 0, -math.inf

    def run(op, phase):
        nonlocal pins, last_pin
        recorder.op_id = len(records)
        if workload.pin_ops and time.perf_counter() - last_pin >= PIN_SLICE_S:
            os.sched_setaffinity(0, {cpus[pins % len(cpus)]})
            pins, last_pin = pins + 1, time.perf_counter()
        codes, seconds, outputs = run_op(op, main_fn)
        extra = workload.collect(op, workdir) if codes and codes[-1] == 0 else {}
        records.append(
            {
                "id": len(records),
                "phase": phase,
                "argvs": op.argvs,
                "codes": codes,
                "seconds": seconds,
                "outputs": outputs,
                "work": op.work,
                "meta": op.meta,
                "extra": extra,
            }
        )

    run(next(ops), "warmup")
    result: dict = {
        "package_version": passive_cvqkd.__version__,
        "package_file": passive_cvqkd.__file__,
        "numpy_version": numpy.__version__,
        "python_version": sys.version.split()[0],
    }
    if not spec["trace"]:
        _phase(ops, spec["seconds"], "timed", run, workload.job_ops)
    else:
        _phase(ops, spec["seconds"] / 2, "untraced", run)
        overhead = span_overhead_ns()
        modules = {name: importlib.import_module(f"passive_cvqkd.{name}") for name, _ in TARGET_NAMES}
        restore = install(recorder, [(modules[m], fn) for m, fn in TARGET_NAMES], OBSERVERS)
        main_fn = recorder.wrap(cli.main, "cli.main")
        try:
            _phase(ops, spec["seconds"] / 2, "traced", run)
            for op in workload.probes(rng, workdir):
                run(op, "probe")
        finally:
            restore()
        recorder.save(os.path.join(workdir, "spans.npz"))
        result["layers"], result["layer_bases"] = layer_metrics(recorder, records, overhead, N_BOOT)

    kb = 1024.0  # ru_maxrss is in KiB on Linux
    result["peak_rss_mb"] = {
        "self": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / kb,
        "children": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / kb,
    }
    result["ops"] = records
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
