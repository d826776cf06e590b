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
from .keyrate import KeyRateReport, mutual_information, optimize_modulation, secure_key_rate
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


def _fmt(x: float) -> str:
    """Locale-independent compact formatting at 9 significant digits."""
    return f"{x:.9g}"


def parse_config_file(path: str) -> dict[str, str]:
    """Read a flat key=value config file; '#' starts a comment."""
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
            if key not in _SETTINGS:
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


# Every setting: default text, parser and help.  Its flag is the key with
# '-' for '_'.  The defaults reproduce the reference configuration: 0.2
# dB/km fiber, 0.01 residual excess noise, receivers with efficiency 0.5
# and electronic noise 0.1, reconciliation 0.95.  Keys with a None
# default have none: the output path, and the per-detector overrides
# that only a config file sets.
_SETTINGS = {
    "gamma": ("0.2", float, "fiber attenuation, dB/km"),
    "eps0": ("0.01", float, "residual untrusted excess noise, SNU"),
    "v_el": ("0.1", float, "receiver electronic noise, SNU"),
    "eta_d": ("0.5", float, "receiver efficiency"),
    "f": ("0.95", float, "reconciliation efficiency"),
    "n0": ("50,100,500", parse_axis, "source photon number(s): value or comma list"),
    "va": (
        "",
        lambda text: float(text) if text else None,
        "fixed modulation variance (sweep optimizes it when unset; simulate uses 1)",
    ),
    "length": ("0:100:1", parse_axis, "fiber length(s) km: value, comma list, or start:stop:step"),
    "count": ("1000000", int, "simulation rounds"),
    "seed": ("42", int, "master seed"),
    "partitions": ("1", int, "independent random streams to merge"),
    "workers": ("1", int, "processes for partition execution, at least 1"),
    "out": (None, str, "output path (default: stdout)"),
    "eta_d_a": (None, float, "Alice's detector efficiency (default: eta_d)"),
    "v_el_a": (None, float, "Alice's detector electronic noise, SNU (default: v_el)"),
    "eta_d_b": (None, float, "Bob's detector efficiency (default: eta_d)"),
    "v_el_b": (None, float, "Bob's detector electronic noise, SNU (default: v_el)"),
}
DEFAULTS = {key: default for key, (default, _, _) in _SETTINGS.items() if default is not None}

# The settings each command reads; it offers a flag for each and no other.
_KEYS = {
    "sweep": "gamma eps0 v_el eta_d f n0 va length".split(),
    "simulate": "gamma eps0 v_el eta_d n0 va length count seed partitions workers".split(),
    "analyze": "v_el eta_d seed".split(),
    "optimize": "gamma eps0 v_el eta_d f n0 length".split(),
}


def _settings_from(args: argparse.Namespace) -> dict[str, str]:
    settings = dict(DEFAULTS)
    if args.config:
        settings.update(parse_config_file(args.config))
    settings.update((key, value) for key, value in vars(args).items() if key in _SETTINGS and value is not None)
    return settings


def _read(settings: dict[str, str], keys: list[str]) -> dict:
    """Parse each setting in ``keys`` once; a bad value names its key."""

    def parse(name: str):
        parser = _SETTINGS[name][1]
        try:
            return parser(settings[name])
        except ParameterError:  # parse_axis names the fault itself
            raise
        except ValueError:
            kind = "an integer" if parser is int else "numeric"
            raise ParameterError(f"setting {name!r} must be {kind}, got {settings[name]!r}") from None

    return {key: parse(key) for key in keys}


def _detectors(settings: dict[str, str], s: dict) -> tuple[DetectorModel, DetectorModel]:
    """Alice's (``_a``) and Bob's (``_b``) detector: a non-empty override, else the shared value in ``s``."""
    d = {key: s[key[:-2]] for key in ("eta_d_a", "v_el_a", "eta_d_b", "v_el_b")}
    d.update(_read(settings, [key for key in d if settings.get(key)]))
    return DetectorModel(d["eta_d_a"], d["v_el_a"]), DetectorModel(d["eta_d_b"], d["v_el_b"])


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


def compute_sweep(settings: dict[str, str]) -> list[tuple[float, float, KeyRateReport]]:
    """Evaluate the (n0, length) grid; one report per pair, optimized unless ``va`` is set."""
    s = _read(settings, _KEYS["sweep"])
    det_a, det_b = _detectors(settings, s)
    if not s["n0"] or not s["length"]:
        raise ParameterError("n0 and length axes must be non-empty")

    rows = []
    for n0 in s["n0"]:
        for length in s["length"]:
            ch = ChannelModel(s["gamma"], length)
            if s["va"] is None:
                report = optimize_modulation(n0, det_a, det_b, ch, f=s["f"], eps0=s["eps0"])
            else:
                params = ProtocolParams(n0=n0, v_a=s["va"], f=s["f"], eps0=s["eps0"])
                report = secure_key_rate(params, det_a, det_b, ch)
            rows.append((length, n0, report))
    return rows


def cmd_sweep(args: argparse.Namespace) -> int:
    settings = _settings_from(args)
    rows = compute_sweep(settings)
    lines = [SWEEP_HEADER]
    for length, n0, r in rows:
        lines.append(
            ",".join(
                (_fmt(length), _fmt(n0), _fmt(r.v_a), _fmt(r.i_ab), _fmt(r.chi_be), _fmt(r.rate_raw), _fmt(r.rate))
            )
        )
    _write_lines(lines, settings.get("out"))
    return EXIT_OK


def _verdict_lines(name: str, analytic: float, empirical: float | None, stderr: float) -> list[str]:
    """Closed form against estimate; with no estimate the verdict is SKIP.
    With zero standard error, z is 0 on exact agreement, else infinite."""
    if empirical is None:
        empirical = z = math.nan
        verdict = "SKIP"
    else:
        z = (empirical - analytic) / stderr if stderr > 0 else (0.0 if empirical == analytic else math.inf)
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
    s = _read(settings, _KEYS["simulate"])
    det_a, det_b = _detectors(settings, s)
    n0 = _single(s["n0"], "n0")
    length = _single(s["length"], "length")
    va = 1.0 if s["va"] is None else s["va"]
    params = ProtocolParams(n0=n0, v_a=va, eps0=s["eps0"])
    ch = ChannelModel(s["gamma"], length)
    cfg = SimConfig(
        params=params,
        det_a=det_a,
        det_b=det_b,
        channel=ch,
        count=s["count"],
        master_seed=s["seed"],
        partitions=s["partitions"],
    )
    summary = run_protocol(cfg, dump_path=args.dump, workers=s["workers"])

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
        mi_emp, mi_stderr = empirical_mutual_information(summary), empirical_mi_stderr(summary)
    except DegenerateDataError:
        mi_emp, mi_stderr = None, math.nan
    lines += _verdict_lines("I_AB", mutual_information(va, budget.chi_tot), mi_emp, mi_stderr)

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
    s = _read(settings, _KEYS["analyze"])
    det = DetectorModel(s["eta_d"], s["v_el"])
    columns = None
    if args.columns:
        names = [c.strip() for c in args.columns.split(",")]
        if len(names) != 2:
            raise ParameterError(f"--columns needs two names, got {args.columns!r}")
        columns = (names[0], names[1])
    thermal = load_quadrature_records(args.thermal, columns=columns)
    vacuum = load_quadrature_records(args.vacuum, columns=columns)

    cal = calibrate_photon_number(thermal, vacuum, det)
    snu = thermal.in_snu(cal.shot_variance)
    result = g2_estimate(
        snu,
        n_boot=args.n_boot,
        min_samples=args.min_samples,
        rng=s["seed"],
    )
    lines = [
        "command=analyze",
        f"thermal_file={args.thermal}",
        f"vacuum_file={args.vacuum}",
        f"samples_thermal={len(thermal)}",
        f"samples_vacuum={len(vacuum)}",
        f"eta_d={_fmt(det.eta_d)}",
        f"v_el={_fmt(det.v_el)}",
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
    s = _read(settings, _KEYS["optimize"])
    det_a, det_b = _detectors(settings, s)
    n0 = _single(s["n0"], "n0")
    length = _single(s["length"], "length")
    ch = ChannelModel(s["gamma"], length)
    r = optimize_modulation(n0, det_a, det_b, ch, f=s["f"], eps0=s["eps0"])
    lines = [
        "command=optimize",
        f"n0={_fmt(n0)}",
        f"L_km={_fmt(length)}",
        f"V_A_opt={_fmt(r.v_a)}",
        f"feasible={'true' if r.feasible else 'false'}",
        f"I_AB={_fmt(r.i_ab)}",
        f"chi_BE={_fmt(r.chi_be)}",
        f"R_raw={_fmt(r.rate_raw)}",
        f"R={_fmt(r.rate)}",
        "lambdas=" + ",".join(_fmt(l) for l in r.lambdas),
    ]
    _write_lines(lines, settings.get("out"))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="passive-cvqkd",
        description="Key-rate sweeps, protocol simulation, and quadrature-record "
        "analysis for passively prepared continuous-variable QKD.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", help="flat key=value config file")
        for key in _KEYS[name] + ["out"]:
            p.add_argument("--" + key.replace("_", "-"), help=_SETTINGS[key][2])
        p.set_defaults(func=func)
        return p

    command("sweep", cmd_sweep, "key-rate CSV over an (n0, length) grid")
    p_sim = command("simulate", cmd_simulate, "Monte Carlo run vs closed-form report")
    p_sim.add_argument("--dump", help="write raw per-round samples to this CSV")

    p_an = command("analyze", cmd_analyze, "calibrate and characterize quadrature records")
    p_an.add_argument("thermal", help="CSV of thermal-input outcomes")
    p_an.add_argument("vacuum", help="CSV of vacuum-input outcomes")
    p_an.add_argument("--columns", help="two header names to use as x,p (e.g. xA,pA)")
    p_an.add_argument("--histogram", help="write a 2-D histogram CSV of the calibrated record")
    p_an.add_argument("--n-boot", dest="n_boot", type=int, default=200, help="bootstrap resamples")
    p_an.add_argument("--min-samples", dest="min_samples", type=int, default=10_000, help="record-length floor for g2")

    command("optimize", cmd_optimize, "optimize modulation variance at one point")
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
