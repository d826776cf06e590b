"""Batch front-end: parameter sweeps, simulation runs, and record analysis.

Configuration comes from built-in defaults, overridden by an optional
flat ``key=value`` config file, overridden by command-line flags.  All
outputs are plain text (CSV or ``key=value`` reports) and are
byte-for-byte reproducible from the configuration and seed.

Exit codes: 0 success, 2 configuration or usage error, 3 file I/O error,
4 data or parse error, 5 numeric physicality failure.
"""

from __future__ import annotations

import argparse
import math
import sys

from .errors import (
    DegenerateDataError,
    ParameterError,
    PhysicalityError,
    RecordFormatError,
    UnitError,
)
from .g2 import calibrate_photon_number, export_histogram, g2_estimate, load_quadrature_records
from .gaussian import DetectorModel
from .keyrate import ModulationOptimum, mutual_information, optimize_modulation, secure_key_rate
from .noise import ChannelModel, ProtocolParams, total_noise
from .simulate import (
    SimConfig,
    analytic_moments,
    empirical_mi_stderr,
    empirical_mutual_information,
    run_protocol,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_DATA = 4
EXIT_NUMERIC = 5

SWEEP_HEADER = "L_km,n0,V_A_opt,I_AB,chi_BE,R_raw,R"
# Most points a start:stop:step axis may expand to.
_MAX_AXIS_POINTS = 10**6

# Every key has a default so a bare `sweep` reproduces the reference
# configuration: 0.2 dB/km fiber, 0.01 residual excess noise, receivers
# with efficiency 0.5 and electronic noise 0.1, reconciliation 0.95.
DEFAULTS = {
    "gamma": "0.2",
    "eps0": "0.01",
    "v_el": "0.1",
    "eta_d": "0.5",
    "f": "0.95",
    "n0": "50,100,500",
    "va": "",
    "length": "0:100:1",
    "count": "1000000",
    "seed": "42",
    "partitions": "1",
    "workers": "1",
}
_EXTRA_CONFIG_KEYS = {"eta_d_a", "v_el_a", "eta_d_b", "v_el_b", "out"}


def _fmt(x: float) -> str:
    """Locale-independent compact formatting at 9 significant digits."""
    return f"{x:.9g}"


def parse_config_file(path: str) -> dict[str, str]:
    """Read a flat key=value config file; '#' starts a comment."""
    known = set(DEFAULTS) | _EXTRA_CONFIG_KEYS
    out: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        try:
            lines = fh.readlines()
        except UnicodeDecodeError as exc:
            raise ParameterError(f"{path}: config file is not UTF-8 text ({exc.reason})") from None
        for lineno, raw in enumerate(lines, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParameterError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in known:
                raise ParameterError(f"{path}:{lineno}: unknown config key {key!r}")
            out[key] = value
    return out


def parse_axis(text: str) -> list[float]:
    """Parse a sweep axis: 'start:stop:step' (inclusive), 'a,b,c', or 'x'.

    Every value must be finite, and a range may expand to at most
    ``_MAX_AXIS_POINTS`` points.
    """
    text = text.strip()
    if not text:
        raise ParameterError("empty axis specification")
    is_range = ":" in text
    parts = text.split(":") if is_range else [p for p in text.split(",") if p.strip()]
    if is_range and len(parts) != 3:
        raise ParameterError(f"range must be start:stop:step, got {text!r}")
    try:
        values = [float(p) for p in parts]
    except ValueError:
        raise ParameterError(f"axis values must be numeric, got {text!r}") from None
    if not all(map(math.isfinite, values)):
        raise ParameterError(f"axis values must be finite, got {text!r}")
    if not is_range:
        return values
    start, stop, step = values
    if step <= 0 or stop < start:
        raise ParameterError(f"invalid range {text!r}")
    span = (stop - start) / step
    if span + 1 > _MAX_AXIS_POINTS:
        raise ParameterError(f"range {text!r} has more than {_MAX_AXIS_POINTS} points")
    n = int(math.floor(span + 1e-9)) + 1
    points = [start + k * step for k in range(n)]
    # The rounding slack above can carry the last point just past stop.
    if not math.isfinite(points[-1]):
        raise ParameterError(f"range {text!r} runs past the largest float")
    return points


def _settings_from(args: argparse.Namespace) -> dict[str, str]:
    settings = dict(DEFAULTS)
    if getattr(args, "config", None):
        settings.update(parse_config_file(args.config))
    for key in DEFAULTS:
        value = getattr(args, key, None)
        if value is not None:
            settings[key] = str(value)
    if getattr(args, "out", None):
        settings["out"] = args.out
    return settings


def _detectors(settings: dict[str, str]) -> tuple[DetectorModel, DetectorModel]:
    try:
        eta_a = float(settings.get("eta_d_a") or settings["eta_d"])
        vel_a = float(settings.get("v_el_a") or settings["v_el"])
        eta_b = float(settings.get("eta_d_b") or settings["eta_d"])
        vel_b = float(settings.get("v_el_b") or settings["v_el"])
    except ValueError as exc:
        raise ParameterError(f"invalid detector setting: {exc}") from None
    return DetectorModel(eta_a, vel_a), DetectorModel(eta_b, vel_b)


def _float_setting(settings: dict[str, str], key: str) -> float:
    try:
        return float(settings[key])
    except ValueError:
        raise ParameterError(f"config key {key!r} must be numeric, got {settings[key]!r}") from None


def _int_setting(settings: dict[str, str], key: str) -> int:
    try:
        return int(settings[key])
    except ValueError:
        raise ParameterError(f"config key {key!r} must be an integer, got {settings[key]!r}") from None


def _single(values: list[float], name: str) -> float:
    if len(values) != 1:
        raise ParameterError(f"this command needs a single {name}, got {len(values)} values")
    return values[0]


def _write_lines(lines: list[str], out_path: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def compute_sweep(settings: dict[str, str]) -> list[tuple[float, float, ModulationOptimum]]:
    """Evaluate the (n0, length) grid; one optimized entry per pair."""
    det_a, det_b = _detectors(settings)
    gamma = _float_setting(settings, "gamma")
    eps0 = _float_setting(settings, "eps0")
    f = _float_setting(settings, "f")
    n0_values = parse_axis(settings["n0"])
    lengths = parse_axis(settings["length"])
    if not n0_values or not lengths:
        raise ParameterError("n0 and length axes must be non-empty")
    fixed_va = _float_setting(settings, "va") if settings["va"] else None

    rows = []
    for n0 in n0_values:
        for length in lengths:
            ch = ChannelModel(gamma, length)
            if fixed_va is None:
                opt = optimize_modulation(n0, det_a, det_b, ch, f=f, eps0=eps0)
            else:
                params = ProtocolParams(n0=n0, v_a=fixed_va, f=f, eps0=eps0)
                report = secure_key_rate(params, det_a, det_b, ch)
                opt = ModulationOptimum(v_a=fixed_va, report=report, feasible=report.rate_raw > 0.0)
            rows.append((length, n0, opt))
    return rows


def cmd_sweep(args: argparse.Namespace) -> int:
    settings = _settings_from(args)
    rows = compute_sweep(settings)
    lines = [SWEEP_HEADER]
    for length, n0, opt in rows:
        r = opt.report
        lines.append(
            ",".join(
                (_fmt(length), _fmt(n0), _fmt(opt.v_a), _fmt(r.i_ab), _fmt(r.chi_be), _fmt(r.rate_raw), _fmt(r.rate))
            )
        )
    _write_lines(lines, settings.get("out"))
    return EXIT_OK


def _verdict_lines(name: str, analytic: float, empirical: float, stderr: float) -> list[str]:
    z = (empirical - analytic) / stderr if stderr > 0 else math.inf
    verdict = "PASS" if abs(z) <= 5.0 else "FAIL"
    return [
        f"{name}_analytic={_fmt(analytic)}",
        f"{name}_empirical={_fmt(empirical)}",
        f"{name}_stderr={_fmt(stderr)}",
        f"{name}_z={_fmt(z)}",
        f"{name}_verdict={verdict}",
    ]


def cmd_simulate(args: argparse.Namespace) -> int:
    settings = _settings_from(args)
    det_a, det_b = _detectors(settings)
    n0 = _single(parse_axis(settings["n0"]), "n0")
    length = _single(parse_axis(settings["length"]), "length")
    va = _float_setting(settings, "va") if settings["va"] else 1.0
    params = ProtocolParams(n0=n0, v_a=va, eps0=_float_setting(settings, "eps0"))
    ch = ChannelModel(_float_setting(settings, "gamma"), length)
    cfg = SimConfig(
        params=params,
        det_a=det_a,
        det_b=det_b,
        channel=ch,
        count=_int_setting(settings, "count"),
        master_seed=_int_setting(settings, "seed"),
        partitions=_int_setting(settings, "partitions"),
    )
    summary = run_protocol(cfg, dump_path=getattr(args, "dump", None), workers=_int_setting(settings, "workers"))

    lines = [
        "command=simulate",
        f"n0={_fmt(n0)}",
        f"V_A={_fmt(va)}",
        f"L_km={_fmt(length)}",
        f"count={cfg.count}",
        f"seed={cfg.master_seed}",
        f"partitions={cfg.partitions}",
    ]
    budget = total_noise(params, det_a, det_b, ch)
    # Alice's error on the outgoing quadrature is the preparation noise
    # plus the vacuum unit of the outgoing mode.
    lines += _verdict_lines("eps_A", budget.eps_a, summary.delta_hat - 1.0, summary.delta_stderr)
    lines += _verdict_lines("delta", budget.eps_a + 1.0, summary.delta_hat, summary.delta_stderr)
    try:
        mi_emp = empirical_mutual_information(summary)
        lines += _verdict_lines("I_AB", mutual_information(va, budget.chi_tot), mi_emp, empirical_mi_stderr(summary))
    except DegenerateDataError:
        lines += [
            f"I_AB_analytic={_fmt(mutual_information(va, budget.chi_tot))}",
            "I_AB_empirical=nan",
            "I_AB_stderr=nan",
            "I_AB_z=nan",
            "I_AB_verdict=SKIP",
        ]

    predicted = analytic_moments(params, det_a, det_b, ch)
    max_z = 0.0
    for i in range(4):
        for j in range(i, 4):
            se = summary.moment_stderr[i, j]
            if se > 0:
                max_z = max(max_z, abs((summary.moments[i, j] - predicted[i, j]) / se))
    lines.append(f"moments_max_z={_fmt(max_z)}")
    lines.append(f"moments_verdict={'PASS' if max_z <= 5.0 else 'FAIL'}")
    _write_lines(lines, settings.get("out"))
    return EXIT_OK


def cmd_analyze(args: argparse.Namespace) -> int:
    settings = _settings_from(args)
    det_a, _ = _detectors(settings)
    columns = None
    if args.columns:
        names = [c.strip() for c in args.columns.split(",")]
        if len(names) != 2:
            raise ParameterError(f"--columns needs two names, got {args.columns!r}")
        columns = (names[0], names[1])
    thermal = load_quadrature_records(args.thermal, columns=columns)
    vacuum = load_quadrature_records(args.vacuum, columns=columns)

    cal = calibrate_photon_number(thermal, vacuum, det_a)
    snu = thermal.in_snu(cal.shot_variance)
    result = g2_estimate(
        snu,
        n_boot=args.n_boot,
        min_samples=args.min_samples,
        rng=_int_setting(settings, "seed"),
    )
    lines = [
        "command=analyze",
        f"thermal_file={args.thermal}",
        f"vacuum_file={args.vacuum}",
        f"samples_thermal={len(thermal)}",
        f"samples_vacuum={len(vacuum)}",
        f"eta_d={_fmt(det_a.eta_d)}",
        f"v_el={_fmt(det_a.v_el)}",
        f"thermal_variance_raw={_fmt(cal.thermal_variance)}",
        f"vacuum_variance_raw={_fmt(cal.vacuum_variance)}",
        f"shot_variance_raw={_fmt(cal.shot_variance)}",
        f"n_hat={_fmt(cal.n_hat)}",
        f"n_stderr={_fmt(cal.stderr)}",
        f"mean_Z={_fmt(result.mean_z)}",
        f"mean_Z2={_fmt(result.mean_z2)}",
        f"g2={_fmt(result.g2)}",
        f"g2_stderr={_fmt(result.stderr)}",
        f"bootstrap_resamples={result.resamples}",
    ]
    if args.histogram:
        export_histogram(snu, path=args.histogram)
        lines.append(f"histogram_file={args.histogram}")
    _write_lines(lines, settings.get("out"))
    return EXIT_OK


def cmd_optimize(args: argparse.Namespace) -> int:
    settings = _settings_from(args)
    det_a, det_b = _detectors(settings)
    n0 = _single(parse_axis(settings["n0"]), "n0")
    length = _single(parse_axis(settings["length"]), "length")
    ch = ChannelModel(_float_setting(settings, "gamma"), length)
    opt = optimize_modulation(
        n0, det_a, det_b, ch, f=_float_setting(settings, "f"), eps0=_float_setting(settings, "eps0")
    )
    r = opt.report
    lines = [
        "command=optimize",
        f"n0={_fmt(n0)}",
        f"L_km={_fmt(length)}",
        f"V_A_opt={_fmt(opt.v_a)}",
        f"feasible={'true' if opt.feasible else 'false'}",
        f"I_AB={_fmt(r.i_ab)}",
        f"chi_BE={_fmt(r.chi_be)}",
        f"R_raw={_fmt(r.rate_raw)}",
        f"R={_fmt(r.rate)}",
        "lambdas=" + ",".join(_fmt(l) for l in r.lambdas),
    ]
    _write_lines(lines, settings.get("out"))
    return EXIT_OK


# Flag, type and help of each setting; a subcommand offers flags only for
# the settings it reads.
_SETTING_FLAGS = {
    "gamma": ("--gamma", float, "fiber attenuation, dB/km"),
    "eps0": ("--eps0", float, "residual untrusted excess noise, SNU"),
    "v_el": ("--v-el", float, "receiver electronic noise, SNU"),
    "eta_d": ("--eta-d", float, "receiver efficiency"),
    "f": ("--f", float, "reconciliation efficiency"),
    "n0": ("--n0", None, "source photon number(s): value or comma list"),
    "va": ("--va", float, "fixed modulation variance (default: optimize)"),
    "length": ("--length", None, "fiber length(s) km: value, comma list, or start:stop:step"),
    "count": ("--count", int, "simulation rounds"),
    "seed": ("--seed", int, "master seed"),
    "partitions": ("--partitions", int, "independent random streams to merge"),
    "workers": ("--workers", int, "processes for partition execution"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="passive-cvqkd",
        description="Key-rate sweeps, protocol simulation, and quadrature-record "
        "analysis for passively prepared continuous-variable QKD.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, keys, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", help="flat key=value config file")
        for key in keys.split():
            flag, type_, help_ = _SETTING_FLAGS[key]
            p.add_argument(flag, dest=key, type=type_, help=help_)
        p.add_argument("--out", help="output path (default: stdout)")
        p.set_defaults(func=func)
        return p

    command("sweep", cmd_sweep, "gamma eps0 v_el eta_d f n0 va length", "key-rate CSV over an (n0, length) grid")
    p_sim = command(
        "simulate",
        cmd_simulate,
        "gamma eps0 v_el eta_d n0 va length count seed partitions workers",
        "Monte Carlo run vs closed-form report",
    )
    p_sim.add_argument("--dump", help="write raw per-round samples to this CSV")

    p_an = command("analyze", cmd_analyze, "v_el eta_d seed", "calibrate and characterize quadrature records")
    p_an.add_argument("thermal", help="CSV of thermal-input outcomes")
    p_an.add_argument("vacuum", help="CSV of vacuum-input outcomes")
    p_an.add_argument("--columns", help="two header names to use as x,p (e.g. xA,pA)")
    p_an.add_argument("--histogram", help="write a 2-D histogram CSV of the calibrated record")
    p_an.add_argument("--n-boot", dest="n_boot", type=int, default=200, help="bootstrap resamples")
    p_an.add_argument("--min-samples", dest="min_samples", type=int, default=10_000, help="record-length floor for g2")

    command("optimize", cmd_optimize, "gamma eps0 v_el eta_d f n0 length", "optimize modulation variance at one point")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename or exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (RecordFormatError, UnitError, DegenerateDataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except PhysicalityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
