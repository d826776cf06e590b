"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in
captured output).  Expected values marked as pinned were computed with
the independent arbitrary-precision implementations in ``oracles.py``.
"""

import math
import time
from contextlib import contextmanager

import numpy as np

from oracles import displaced_gaussian_g2, key_rate_mp
from passive_cvqkd import (
    ChannelModel,
    DetectorModel,
    ProtocolParams,
    QuadratureRecord,
    RngStream,
    SimConfig,
    calibrate_photon_number,
    empirical_mutual_information,
    excess_noise_alice,
    g2_estimate,
    heterodyne_measure,
    run_protocol,
    sample_thermal_quadratures,
    total_noise,
)
from passive_cvqkd.cli import DEFAULTS, compute_sweep, main
from passive_cvqkd.keyrate import holevo_bound, mutual_information
from passive_cvqkd.simulate import analytic_moments, empirical_mi_stderr

REF_DET = DetectorModel(0.5, 0.1)


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number} {name}: PASS")


def test_criterion_1_threshold_reproduction():
    with criterion(1, "threshold-reproduction"):
        params = ProtocolParams(n0=340.0, v_a=1.0)
        eps_a = excess_noise_alice(params, REF_DET)
        assert abs(eps_a - 0.0100) / 0.0100 < 1e-12


def test_criterion_2_identity_channel_holevo():
    with criterion(2, "identity-channel-holevo"):
        for v_a in (0.1, 1.0, 5.0, 20.0):
            for chi_het in (1.0, 3.4):
                chi_be, lambdas = holevo_bound(v_a, 1.0, 0.0, chi_het)
                assert chi_be < 1e-9
                for lam in lambdas:
                    assert 1.0 - 1e-9 <= lam <= 1.0 + 1e-9


def test_criterion_3_key_rate_curves():
    with criterion(3, "key-rate-curve-reproduction"):
        settings = dict(DEFAULTS)  # n0 = 50,100,500 and L = 0..100 step 1
        start = time.perf_counter()
        rows = compute_sweep(settings)
        sweep_seconds = time.perf_counter() - start
        assert sweep_seconds < 10.0, f"sweep took {sweep_seconds:.1f} s"
        assert len(rows) == 303

        curves: dict[float, dict[float, float]] = {}
        va_of: dict[tuple[float, float], float] = {}
        raw_of: dict[tuple[float, float], float] = {}
        for length, n0, opt in rows:
            curves.setdefault(n0, {})[length] = opt.rate
            va_of[(n0, length)] = opt.v_a
            raw_of[(n0, length)] = opt.rate_raw

        # (a) positive rate at 10 km for every source brightness
        for n0 in (50.0, 100.0, 500.0):
            assert curves[n0][10.0] > 0.0

        # (b) pointwise ordering in source brightness
        for length in (0.0, 5.0, 10.0, 20.0, 40.0):
            assert curves[500.0][length] >= curves[100.0][length] >= curves[50.0][length]

        # (c) clamped rate non-increasing in distance along each curve
        for n0, curve in curves.items():
            rates = [curve[length] for length in sorted(curve)]
            assert all(b <= a + 1e-12 for a, b in zip(rates, rates[1:])), f"n0={n0}"

        # (d) the whole grid agrees with an independent arbitrary-precision
        # re-evaluation of the rate chain at the optimized variances
        for (n0, length), v_a in va_of.items():
            reference = float(key_rate_mp(n0, v_a, length))
            got = raw_of[(n0, length)]
            assert abs(got - reference) <= 1e-6 * max(abs(reference), 1e-9), (
                f"n0={n0} L={length}: {got} vs {reference}"
            )


def test_criterion_4_monte_carlo_vs_closed_form():
    with criterion(4, "monte-carlo-vs-closed-form"):
        params = ProtocolParams(n0=340.0, v_a=1.0, eps0=0.01)
        ch = ChannelModel(0.2, 10.0)
        cfg = SimConfig(
            params=params,
            det_a=REF_DET,
            det_b=REF_DET,
            channel=ch,
            count=1_000_000,
            master_seed=42,
            partitions=4,
        )
        start = time.perf_counter()
        summary = run_protocol(cfg)  # single-threaded
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"simulation took {elapsed:.1f} s"

        assert abs(summary.delta_hat - 1.01) < 5.0 * summary.delta_stderr

        predicted = analytic_moments(params, REF_DET, REF_DET, ch)
        z = np.abs(summary.moments - predicted) / summary.moment_stderr
        assert np.nanmax(z) < 5.0

        budget = total_noise(params, REF_DET, REF_DET, ch)
        mi_expected = mutual_information(params.v_a, budget.chi_tot)
        mi_z = (empirical_mutual_information(summary) - mi_expected) / empirical_mi_stderr(summary)
        assert abs(mi_z) < 5.0


def test_criterion_5_g2_pipeline():
    with criterion(5, "g2-pipeline"):
        det = DetectorModel(0.5, 0.35)
        count = 1_000_000
        start = time.perf_counter()
        thermal = QuadratureRecord(
            2.0
            * heterodyne_measure(
                sample_thermal_quadratures(800.0, count, RngStream(97, 0)), det, RngStream(97, 1)
            )
        )
        vacuum = QuadratureRecord(
            2.0
            * heterodyne_measure(
                sample_thermal_quadratures(0.0, count, RngStream(97, 2)), det, RngStream(97, 3)
            )
        )
        cal = calibrate_photon_number(thermal, vacuum, det)
        assert abs(cal.n_hat - 800.0) / 800.0 < 0.02

        result = g2_estimate(thermal.in_snu(cal.shot_variance), rng=1)
        assert abs(result.g2 - 2.00) < 0.02

        displacement = math.sqrt(1000.0 / 2.0)
        displaced = QuadratureRecord(
            RngStream(98).generator().standard_normal((count, 2)) + displacement,
            unit_flag="snu",
        )
        control = g2_estimate(displaced, rng=2)
        assert abs(control.g2 - 1.0) < 0.02
        assert abs(control.g2 - displaced_gaussian_g2(1000)) < 5.0 * control.stderr

        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"pipeline took {elapsed:.1f} s"


def test_criterion_6_determinism(tmp_path):
    with criterion(6, "determinism"):
        sweep_a, sweep_b = tmp_path / "sa.csv", tmp_path / "sb.csv"
        sweep_args = ["sweep", "--n0", "100,500", "--length", "0:20:5"]
        assert main(sweep_args + ["--out", str(sweep_a)]) == 0
        assert main(sweep_args + ["--out", str(sweep_b)]) == 0
        assert sweep_a.read_bytes() == sweep_b.read_bytes()

        rep = [tmp_path / f"r{i}.txt" for i in range(3)]
        dump = [tmp_path / f"d{i}.csv" for i in range(3)]
        sim_args = [
            "simulate", "--n0", "340", "--va", "1", "--length", "10",
            "--count", "80000", "--seed", "42", "--partitions", "4",
        ]
        assert main(sim_args + ["--workers", "1", "--out", str(rep[0]), "--dump", str(dump[0])]) == 0
        assert main(sim_args + ["--workers", "1", "--out", str(rep[1]), "--dump", str(dump[1])]) == 0
        assert main(sim_args + ["--workers", "3", "--out", str(rep[2]), "--dump", str(dump[2])]) == 0
        assert rep[0].read_bytes() == rep[1].read_bytes() == rep[2].read_bytes()
        assert dump[0].read_bytes() == dump[1].read_bytes() == dump[2].read_bytes()

        analyze_out = [tmp_path / f"a{i}.txt" for i in range(2)]
        th = tmp_path / "thermal.csv"
        va = tmp_path / "vacuum.csv"
        det = DetectorModel(0.5, 0.35)
        th_data = heterodyne_measure(
            sample_thermal_quadratures(100.0, 20_000, RngStream(99, 0)), det, RngStream(99, 1)
        )
        va_data = heterodyne_measure(
            sample_thermal_quadratures(0.0, 20_000, RngStream(99, 2)), det, RngStream(99, 3)
        )
        np.savetxt(th, th_data, delimiter=",", header="x,p", comments="")
        np.savetxt(va, va_data, delimiter=",", header="x,p", comments="")
        for out in analyze_out:
            assert main([
                "analyze", str(th), str(va), "--eta-d", "0.5", "--v-el", "0.35",
                "--seed", "5", "--out", str(out),
            ]) == 0
        assert analyze_out[0].read_bytes() == analyze_out[1].read_bytes()
