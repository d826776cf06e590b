"""Output checks, run on every operation after the timed phase.

Key rates are compared with the arbitrary-precision oracle in
``tests/oracles.py``, which shares no code with the package.  Each check
returns a list of problems, each ``"<category>: <detail>"``; an operation
with any problem counts as failed.
"""

from __future__ import annotations

import importlib.util
import os

SWEEP_HEADER = "L_km,n0,V_A_opt,I_AB,chi_BE,R_raw,R"
REL_TOL = 1e-6
ABS_TOL = 1e-12
Z_LIMIT = 5.0
GAMMA_DB_KM = 0.2
EPS0 = 0.01

# Known defects of the program, by problem category, so that reports
# attribute them.
KNOWN_CAUSES = {
    "feasibility": "ROADMAP item 2: long-distance rates are round-off, yet reported feasible",
    "I_AB_verdict": "the I_AB verdict's closed form ignores the sender's estimation error; the gap grows with v_a / n0",
}

_ORACLE = None


def _key_rate_mp(n0, v_a, length_km) -> float:
    global _ORACLE
    if _ORACLE is None:
        path = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "tests", "oracles.py")
        spec = importlib.util.spec_from_file_location("perfbench_oracles", path)
        _ORACLE = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(_ORACLE)
    return float(_ORACLE.key_rate_mp(n0, v_a, length_km))


def parse_report(text: str) -> dict[str, str]:
    """``key=value`` lines of a ``simulate``/``analyze``/``optimize`` report."""
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition("=")
        if sep:
            out[key] = value
    return out


def _flag(argv: list[str], name: str) -> str:
    return argv[argv.index(f"--{name}") + 1]


def _rate_problem(where: str, r_raw: str, n0, v_a: str, length) -> tuple[str | None, float]:
    ref = _key_rate_mp(n0, v_a, length)
    if abs(float(r_raw) - ref) > REL_TOL * abs(ref) + ABS_TOL:
        return f"value: {where} R_raw={r_raw}, oracle {ref:.9g}", ref
    return None, ref


def check_sweep_csv(csv: str, n0s, lengths, check_rows) -> list[str]:
    """All grid rows present in order; sampled rows agree with the oracle."""
    lines = csv.splitlines()
    if not lines or lines[0] != SWEEP_HEADER:
        return ["format: sweep header missing"]
    grid = [(n0, length) for n0 in n0s for length in lengths]
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != len(grid):
        return [f"format: {len(rows)} sweep rows, expected {len(grid)}"]
    problems = []
    for row, (n0, length) in zip(rows, grid):
        if len(row) != 7 or float(row[0]) != length or float(row[1]) != n0:
            problems.append(f"format: row {','.join(row)} is not (L={length:g}, n0={n0:g})")
    if problems:
        return problems
    for i in check_rows:
        row = rows[i]
        problem, _ = _rate_problem(f"row {i}", row[5], row[1], row[2], row[0])
        if problem:
            problems.append(problem)
    return problems


def check_optimize(report: str, n0: str, length: str) -> list[str]:
    """``R_raw`` agrees with the oracle at ``V_A_opt``; feasible only if the oracle rate is > 0."""
    r = parse_report(report)
    try:
        v_a, r_raw, feasible = r["V_A_opt"], r["R_raw"], r["feasible"]
    except KeyError as exc:
        return [f"format: optimize report lacks {exc.args[0]}"]
    problem, ref = _rate_problem(f"n0={n0} L={length}", r_raw, n0, v_a, length)
    problems = [problem] if problem else []
    if feasible == "true" and not ref > 0.0:
        problems.append(f"feasibility: n0={n0} L={length} feasible=true, oracle rate {ref:.3g}")
    return problems


def check_verdicts(report: str) -> list[str]:
    """Every ``*_verdict`` line of a ``simulate`` report reads PASS."""
    verdicts = {k: v for k, v in parse_report(report).items() if k.endswith("_verdict")}
    if not verdicts:
        return ["format: simulate report has no verdicts"]
    return [f"{k}: {v}" for k, v in sorted(verdicts.items()) if v != "PASS"]


def check_analyze(report: str, n_expected: float) -> list[str]:
    """``n_hat`` within 5 ``n_stderr`` of ``n_expected``; ``g2`` within 5 ``g2_stderr`` of 2."""
    r = parse_report(report)
    problems = []
    for key, err, target in (("n_hat", "n_stderr", n_expected), ("g2", "g2_stderr", 2.0)):
        try:
            value, stderr = float(r[key]), float(r[err])
        except (KeyError, ValueError):
            problems.append(f"format: analyze report lacks {key} or {err}")
            continue
        if not (stderr > 0.0 and abs(value - target) <= Z_LIMIT * stderr):
            problems.append(f"{key}: {value:.6g} +/- {stderr:.3g}, expected {target:.6g}")
    return problems


def check_op(result: dict) -> list[str]:
    """All problems of one operation record, by the commands it ran."""
    argvs, codes, outputs = result["argvs"], result["codes"], result["outputs"]
    problems = [f"exit: {argv[0]} exited {code}" for argv, code in zip(argvs, codes) if code != 0]
    if problems or len(codes) != len(argvs):
        return problems or ["exit: operation stopped early"]
    meta, extra = result["meta"], result["extra"]
    sim_argv = None
    for argv, out in zip(argvs, outputs):
        command = argv[0]
        if command == "sweep":
            grid = meta["grid"]
            problems += check_sweep_csv(extra["csv"], grid["n0"], grid["length_km"], meta["check_rows"])
        elif command == "optimize":
            problems += check_optimize(out, _flag(argv, "n0"), _flag(argv, "length"))
        elif command == "simulate":
            sim_argv = argv
            problems += check_verdicts(out)
            if "--dump" in argv:
                expected = int(_flag(argv, "count")) + 1
                if extra.get("dump_lines") != expected:
                    problems.append(f"dump: {extra.get('dump_lines')} lines, expected {expected}")
        elif command == "analyze":
            t = 10.0 ** (-GAMMA_DB_KM * float(_flag(sim_argv, "length")) / 10.0)
            problems += check_analyze(out, t * (float(_flag(sim_argv, "va")) + EPS0) / 2.0)
    return problems


def category(problem: str) -> str:
    return problem.split(":", 1)[0]
