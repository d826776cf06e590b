"""Per-layer metrics of the traced run, computed from its spans.

The layers are the package modules.  Call counts are per workload
operation of the traced phase; times are span durations with the
recorder's own cost taken out (see ``spans.span_times``).  A metric whose
layer the workload never calls reads 0.
"""

from __future__ import annotations

import statistics

import numpy as np

from checks import parse_report
from spans import SpanRecorder, span_times

# (module, function) pairs wrapped in the traced phase; cli.main is
# wrapped by the benchmark around each command it runs.
TARGET_NAMES = (
    ("keyrate", "optimize_modulation"),
    ("keyrate", "secure_key_rate"),
    ("keyrate", "holevo_bound"),
    ("keyrate", "g_function"),
    ("noise", "total_noise"),
    ("simulate", "run_protocol"),
    ("gaussian", "sample_thermal_quadratures"),
    ("gaussian", "beamsplitter"),
    ("gaussian", "heterodyne_measure"),
    ("g2", "load_quadrature_records"),
    ("g2", "calibrate_photon_number"),
    ("g2", "g2_estimate"),
    ("g2", "export_histogram"),
)
OBSERVERS = {"keyrate.optimize_modulation": lambda opt: bool(opt.feasible)}
GAUSSIAN = ("sample_thermal_quadratures", "beamsplitter", "heterodyne_measure")

# name -> unit, in report order.
UNITS = {
    "cli.self_ms_per_op": "ms",
    "keyrate.secure_key_rate.calls": "calls/op",
    "keyrate.secure_key_rate.us_per_call": "us",
    "keyrate.holevo_bound.self_us_per_call": "us",
    "keyrate.g_function.calls": "calls/op",
    "keyrate.evals_per_optimum": "count",
    "keyrate.optimize_modulation.ms_per_call": "ms",
    "keyrate.infeasible_frac": "frac",
    "noise.total_noise.calls": "calls/op",
    "noise.total_noise.us_per_call": "us",
    **{f"gaussian.{fn}.ns_per_round": "ns" for fn in GAUSSIAN},
    "simulate.self_ns_per_round": "ns",
    "simulate.serial_rounds_per_s": "1/s",
    "simulate.pooled_rounds_per_s": "1/s",
    "simulate.pool_speedup": "x",
    "simulate.dump_rows_per_s": "1/s",
    "simulate.dump_bytes_per_row": "B",
    "g2.load_quadrature_records.rows_per_s": "1/s",
    "g2.g2_estimate.us_per_resample": "us",
    "g2.calibrate_photon_number.ms": "ms",
    "g2.export_histogram.ms": "ms",
    "g2.resample_accept_frac": "frac",
    "trace.overhead_pct": "%",
    "trace.span_overhead_ns": "ns",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    recorder: SpanRecorder, ops: list[dict], overhead_ns: float, n_boot: int
) -> tuple[dict[str, float], dict]:
    """Per-layer metrics and the bases they were computed from.

    ``ops`` are the operation records of the run; spans of those in the
    ``traced`` phase give per-operation counts, and ``probe`` operations
    add the serial and no-dump simulator runs.
    """
    arr = recorder.arrays()
    times = span_times(arr["start_ns"], arr["end_ns"], arr["parent"], overhead_ns)
    name_ids = {name: i for i, name in enumerate(recorder.names)}

    traced = [r for r in ops if r["phase"] == "traced"]
    untraced = [r for r in ops if r["phase"] == "untraced"]
    sims = [r for r in ops if r["phase"] in ("traced", "probe") and "sim" in r["meta"]]
    n_ops = len(traced)
    in_traced = np.isin(arr["op"], [r["id"] for r in traced])

    def mask(name: str, ids=None) -> np.ndarray:
        m = arr["name_id"] == name_ids.get(name, -1)
        return m & (in_traced if ids is None else np.isin(arr["op"], ids))

    def count(name, ids=None) -> int:
        return int(mask(name, ids).sum())

    def dur(name, ids=None) -> float:
        return float(times.duration[mask(name, ids)].sum())

    def self_time(name, ids=None) -> float:
        return float(times.self_time[mask(name, ids)].sum())

    def mean_dur(name, ids=None) -> float:
        return _ratio(dur(name, ids), count(name, ids))

    m: dict[str, float] = {}
    m["cli.self_ms_per_op"] = _ratio(self_time("cli.main"), n_ops) / 1e6
    m["keyrate.secure_key_rate.calls"] = _ratio(count("keyrate.secure_key_rate"), n_ops)
    m["keyrate.secure_key_rate.us_per_call"] = mean_dur("keyrate.secure_key_rate") / 1e3
    m["keyrate.holevo_bound.self_us_per_call"] = (
        _ratio(self_time("keyrate.holevo_bound"), count("keyrate.holevo_bound")) / 1e3
    )
    m["keyrate.g_function.calls"] = _ratio(count("keyrate.g_function"), n_ops)
    m["keyrate.evals_per_optimum"] = _ratio(count("keyrate.secure_key_rate"), count("keyrate.optimize_modulation"))
    m["keyrate.optimize_modulation.ms_per_call"] = mean_dur("keyrate.optimize_modulation") / 1e6
    feasible = recorder.observed.get("keyrate.optimize_modulation", [])
    m["keyrate.infeasible_frac"] = _ratio(feasible.count(False), len(feasible))
    m["noise.total_noise.calls"] = _ratio(count("noise.total_noise"), n_ops)
    m["noise.total_noise.us_per_call"] = mean_dur("noise.total_noise") / 1e3

    # Simulator stages come from in-process (workers=1) runs without a
    # dump: spans recorded inside pool workers do not come back.
    serial = [r for r in sims if r["meta"]["sim"]["workers"] <= 1 and not r["meta"]["sim"]["dump"]]
    pooled = [r for r in sims if r["meta"]["sim"]["workers"] > 1]
    dumped = [r for r in sims if r["meta"]["sim"]["dump"]]
    serial_ids = [r["id"] for r in serial]
    serial_rounds = sum(r["meta"]["sim"]["count"] for r in serial)
    for fn in GAUSSIAN:
        m[f"gaussian.{fn}.ns_per_round"] = _ratio(dur(f"gaussian.{fn}", serial_ids), serial_rounds)
    m["simulate.self_ns_per_round"] = _ratio(self_time("simulate.run_protocol", serial_ids), serial_rounds)
    serial_s = dur("simulate.run_protocol", serial_ids) / 1e9
    pooled_ids = [r["id"] for r in pooled]
    pooled_rounds = sum(r["meta"]["sim"]["count"] for r in pooled)
    pooled_s = dur("simulate.run_protocol", pooled_ids) / 1e9
    m["simulate.serial_rounds_per_s"] = _ratio(serial_rounds, serial_s)
    m["simulate.pooled_rounds_per_s"] = _ratio(pooled_rounds, pooled_s)
    m["simulate.pool_speedup"] = (
        _ratio(m["simulate.pooled_rounds_per_s"], m["simulate.serial_rounds_per_s"]) if serial and pooled else 0.0
    )

    def run_protocol_median(records) -> float:
        per_op = [dur("simulate.run_protocol", [r["id"]]) for r in records]
        return statistics.median(per_op) if per_op else 0.0

    dump_extra_ns = run_protocol_median(dumped) - run_protocol_median(serial)
    dump_rows = dumped[0]["meta"]["sim"]["count"] if dumped else 0
    m["simulate.dump_rows_per_s"] = _ratio(dump_rows, dump_extra_ns / 1e9) if dumped and serial and dump_extra_ns > 0 else 0.0
    m["simulate.dump_bytes_per_row"] = _ratio(
        sum(r["extra"]["dump_bytes"] for r in dumped), sum(r["meta"]["sim"]["count"] for r in dumped)
    )

    analyzed = [r for r in traced if r["argvs"][-1][0] == "analyze" and r["codes"] == [0] * len(r["argvs"])]
    reports = [parse_report(r["outputs"][-1]) for r in analyzed]
    rows_loaded = sum(int(p["samples_thermal"]) + int(p["samples_vacuum"]) for p in reports)
    m["g2.load_quadrature_records.rows_per_s"] = _ratio(rows_loaded, dur("g2.load_quadrature_records") / 1e9)
    m["g2.g2_estimate.us_per_resample"] = _ratio(dur("g2.g2_estimate"), count("g2.g2_estimate") * n_boot) / 1e3
    m["g2.calibrate_photon_number.ms"] = mean_dur("g2.calibrate_photon_number") / 1e6
    m["g2.export_histogram.ms"] = mean_dur("g2.export_histogram") / 1e6
    resamples = sum(int(p["bootstrap_resamples"]) for p in reports)
    m["g2.resample_accept_frac"] = _ratio(resamples, n_boot * len(reports))

    traced_p50 = statistics.median(r["seconds"] for r in traced)
    untraced_p50 = statistics.median(r["seconds"] for r in untraced)
    m["trace.overhead_pct"] = (traced_p50 / untraced_p50 - 1.0) * 100.0
    m["trace.span_overhead_ns"] = overhead_ns

    bases = {
        "traced_ops": n_ops,
        "untraced_ops": len(untraced),
        "spans": int(len(arr["start_ns"])),
        "serial_sim": {"ops": len(serial), "rounds": serial_rounds, "run_protocol_s": serial_s},
        "pooled_sim": {"ops": len(pooled), "rounds": pooled_rounds, "run_protocol_s": pooled_s},
        "dump_sim_ops": len(dumped),
        "op_p50_s": {"traced": traced_p50, "untraced": untraced_p50},
    }
    return {name: m[name] for name in UNITS}, bases
