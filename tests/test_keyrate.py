"""Mutual information, Holevo bound, and the modulation optimizer."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import brute_force_optimum, displaced_gaussian_g2, holevo_bound_mp, key_rate_mp
from passive_cvqkd import (
    ChannelModel,
    DetectorModel,
    KeyRateReport,
    ParameterError,
    PhysicalityError,
    ProtocolParams,
    TransmittanceFloorWarning,
    optimize_modulation,
    secure_key_rate,
)
from passive_cvqkd.keyrate import COARSE_POINTS, g_function, holevo_bound, mutual_information

REF_DET = DetectorModel(0.5, 0.1)
ULPS = 4


def assert_reports_agree(got, want, f):
    """Every field of ``got`` is a float within ULPS ulp of ``want``'s,
    each ulp taken of the magnitudes the field is summed from; the
    variances are equal.

    The two chains differ only in their logarithms (numpy's against
    math's, each within an ulp), so ``i_ab`` may move by an ulp of
    itself, ``chi_be`` by ulps of the sum of its eight ``x log2 x``-type
    terms' magnitudes and the rates by those of that sum plus ``f i_ab``;
    the eigenvalues take no logarithm and must agree exactly.
    """
    fields = (got.v_a, got.i_ab, got.chi_be, got.rate_raw, got.rate, *got.lambdas)
    assert [type(x) for x in fields] == [float] * 10
    assert got.v_a == want.v_a
    assert got.lambdas == want.lambdas
    xs = [max(lam - 1.0, 0.0) / 2.0 for lam in want.lambdas]
    terms = sum((x + 1.0) * math.log2(x + 1.0) + (abs(x * math.log2(x)) if x else 0.0) for x in xs)
    rate_scale = terms + f * want.i_ab
    for name, scale in (("i_ab", want.i_ab), ("chi_be", terms), ("rate_raw", rate_scale), ("rate", rate_scale)):
        assert abs(getattr(got, name) - getattr(want, name)) <= ULPS * math.ulp(scale), name

# Frozen from an independent 60-digit evaluation of the eigenvalue chain
# at (v_a=1, t=0.1, chi_line=9.02, chi_het=3.4).
PINNED_CHI_BE = 0.021912114993183321
PINNED_LAMBDAS = (
    1.9000689163509775,
    1.0020689163509775,
    1.8800976966667003,
    1.0011105798297390,
    1.0,
)


class TestGFunction:
    def test_zero(self):
        assert g_function(0.0) == 0.0

    def test_one(self):
        assert g_function(1.0) == pytest.approx(2.0, abs=1e-15)

    def test_half(self):
        assert g_function(0.5) == pytest.approx(1.3774437510817343, rel=1e-14)

    def test_strictly_increasing(self):
        xs = np.geomspace(1e-8, 100.0, 200)
        values = [g_function(x) for x in xs]
        assert all(b > a for a, b in zip(values, values[1:]))


class TestMutualInformation:
    def test_no_modulation_no_information(self):
        assert mutual_information(0.0, 3.4) == 0.0
        assert mutual_information(1e-12, 3.4) < 1e-12

    def test_infinite_noise_kills_information(self):
        assert mutual_information(1.0, 1e15) < 1e-14

    def test_reference_value(self):
        assert mutual_information(1.0, 3.4) == pytest.approx(0.29545588352617129, rel=1e-14)


class TestHolevoBound:
    def test_identity_channel_leaks_nothing(self):
        for v_a in np.geomspace(0.01, 20.0, 50):
            chi_be, lambdas = holevo_bound(float(v_a), 1.0, 0.0, 3.4)
            assert abs(chi_be) < 1e-9
            assert all(abs(lam - 1.0) <= 1e-9 for lam in lambdas)

    def test_pinned_reference_point(self):
        chi_be, lambdas = holevo_bound(1.0, 0.1, 9.02, 3.4)
        assert chi_be == pytest.approx(PINNED_CHI_BE, rel=1e-12)
        for got, want in zip(lambdas, PINNED_LAMBDAS):
            assert got == pytest.approx(want, rel=1e-12)

    def test_last_eigenvalue_is_exactly_one(self):
        for t in (0.05, 0.3, 1.0):
            for eps_e in (0.0, 0.02, 0.1):
                chi_line = 1.0 / t - 1.0 + eps_e
                _, lambdas = holevo_bound(2.0, t, chi_line, 3.4)
                assert lambdas[4] == 1.0

    def test_noise_below_loss_floor_is_unphysical(self):
        # chi_line below 1/t - 1 would mean a channel adding less noise
        # than pure loss requires; the eigenvalue guard rejects it.
        from passive_cvqkd import PhysicalityError

        with pytest.raises(PhysicalityError, match="channel-output eigenvalue pair below 1 beyond tolerance"):
            holevo_bound(2.0, 0.05, 0.0, 3.4)

    def test_branch_reordering_leaves_bound_unchanged(self):
        chi_be, lams = holevo_bound(1.0, 0.1, 9.02, 3.4)
        swapped = (lams[1], lams[0], lams[3], lams[2], lams[4])
        total = sum(g_function((lam - 1.0) / 2.0) for lam in swapped[:2])
        total -= sum(g_function((lam - 1.0) / 2.0) for lam in swapped[2:])
        assert total == pytest.approx(chi_be, abs=1e-15)

    def test_physicality_on_reference_grid(self):
        for n0 in (50.0, 100.0, 500.0):
            for length in (0.0, 5.0, 10.0, 20.0, 40.0, 80.0):
                for v_a in (0.1, 1.0, 5.0, 19.9):
                    params = ProtocolParams(n0=n0, v_a=v_a)
                    report = secure_key_rate(params, REF_DET, REF_DET, ChannelModel(0.2, length))
                    assert all(lam >= 1.0 - 1e-9 for lam in report.lambdas)
                    assert report.chi_be >= -1e-9

    def test_agrees_with_high_precision_oracle_at_random_points(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            v_a = float(rng.uniform(0.05, 20.0))
            t = float(rng.uniform(0.01, 1.0))
            chi_line = 1.0 / t - 1.0 + float(rng.uniform(0.0, 0.2))
            chi_het = float(rng.uniform(1.0, 4.0))
            got, _ = holevo_bound(v_a, t, chi_line, chi_het)
            want = float(holevo_bound_mp(v_a, t, chi_line, chi_het))
            assert got == pytest.approx(want, rel=1e-9, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ParameterError):
            holevo_bound(0.0, 0.5, 1.0, 3.4)


class TestSecureKeyRate:
    def test_zero_holevo_configuration_returns_mutual_information(self):
        # Lossless channel, ideal receiver, negligible preparation noise.
        params = ProtocolParams(n0=1e12, v_a=1.0, f=1.0, eps0=0.0)
        ideal = DetectorModel(1.0, 0.0)
        report = secure_key_rate(params, ideal, ideal, ChannelModel(0.2, 0.0))
        assert report.chi_be == pytest.approx(0.0, abs=1e-9)
        assert report.rate == pytest.approx(report.i_ab, abs=1e-9)

    def test_positive_rate_at_ten_km(self):
        params = ProtocolParams(n0=100.0, v_a=1.0)
        report = secure_key_rate(params, REF_DET, REF_DET, ChannelModel(0.2, 10.0))
        assert report.rate > 0.0
        assert report.rate_raw == pytest.approx(
            float(key_rate_mp(100, 1, 10)), rel=1e-9
        )

    def test_huge_untrusted_noise_kills_the_key(self):
        params = ProtocolParams(n0=340.0, v_a=1.0, eps0=1.0)
        report = secure_key_rate(params, REF_DET, REF_DET, ChannelModel(0.2, 50.0))
        assert report.rate_raw < 0.0
        assert report.rate == 0.0

    def test_rate_non_increasing_in_residual_noise(self):
        rates = []
        for eps0 in (0.0, 0.01, 0.05, 0.1, 0.3):
            params = ProtocolParams(n0=340.0, v_a=1.0, eps0=eps0)
            rates.append(secure_key_rate(params, REF_DET, REF_DET, ChannelModel(0.2, 20.0)).rate)
        assert all(b <= a for a, b in zip(rates, rates[1:]))

    def test_report_bookkeeping(self):
        params = ProtocolParams(n0=500.0, v_a=3.0)
        report = secure_key_rate(params, REF_DET, REF_DET, ChannelModel(0.2, 15.0))
        assert report.i_ab >= 0.0
        assert report.chi_be >= 0.0
        assert report.v_a == params.v_a
        assert report.rate_raw == params.f * report.i_ab - report.chi_be
        assert report.rate == max(report.rate_raw, 0.0)
        assert report.feasible == (report.rate_raw > 0.0)

    def test_clamped_transmittance_warns_once(self):
        params = ProtocolParams(n0=500.0, v_a=1.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            secure_key_rate(params, REF_DET, REF_DET, ChannelModel(0.2, 800.0))
        assert [w.category for w in caught] == [TransmittanceFloorWarning]


class TestOptimizeModulation:
    def test_matches_brute_force_grid(self):
        opt = optimize_modulation(500.0, REF_DET, REF_DET, ChannelModel(0.2, 20.0))
        _, grid_rate = brute_force_optimum(500, 20, points=10_000)
        assert opt.feasible
        assert opt.rate == pytest.approx(grid_rate, rel=1e-4)

    def test_respects_bounds_and_source_limit(self):
        opt = optimize_modulation(5.0, REF_DET, REF_DET, ChannelModel(0.2, 10.0))
        assert 0.0 < opt.v_a <= 5.0

    def test_infeasible_configuration_is_flagged(self):
        opt = optimize_modulation(50.0, REF_DET, REF_DET, ChannelModel(0.2, 50.0), eps0=1.0)
        assert not opt.feasible
        assert opt.rate == 0.0
        assert opt.rate_raw <= 0.0

    def test_optimized_beats_fixed(self):
        for length in (0.0, 10.0, 30.0):
            ch = ChannelModel(0.2, length)
            opt = optimize_modulation(100.0, REF_DET, REF_DET, ch)
            fixed = secure_key_rate(ProtocolParams(n0=100.0, v_a=1.0), REF_DET, REF_DET, ch)
            assert opt.rate >= fixed.rate - 1e-12

    def test_source_without_photons_is_rejected(self):
        with pytest.raises(ParameterError, match="photon number"):
            optimize_modulation(0.0, REF_DET, REF_DET, ChannelModel(0.2, 10.0))

    def test_source_dimmer_than_the_lower_bound_fixes_the_variance(self):
        # The search interval (min(0.01, n0), min(20, n0)) is one point.
        opt = optimize_modulation(0.005, REF_DET, REF_DET, ChannelModel(0.2, 10.0))
        assert opt.v_a == 0.005

    @pytest.mark.parametrize(
        "n0, length, eps0, feasible",
        [(500.0, 20.0, 0.01, True), (50.0, 50.0, 1.0, False)],
        ids=["feasible", "infeasible"],
    )
    def test_returns_a_float_variance_and_its_report(self, n0, length, eps0, feasible):
        ch = ChannelModel(0.2, length)
        opt = optimize_modulation(n0, REF_DET, REF_DET, ch, eps0=eps0)
        assert opt.feasible == feasible
        want = secure_key_rate(ProtocolParams(n0=n0, v_a=opt.v_a, eps0=eps0), REF_DET, REF_DET, ch)
        assert_reports_agree(opt, want, f=0.95)

    def test_feasible_is_read_from_the_report(self):
        """Optimized and fixed-variance results are one type, whose rate and
        feasibility derive from rate_raw, for floats and arrays alike."""
        assert type(optimize_modulation(50.0, REF_DET, REF_DET, ChannelModel(0.2, 10.0))) is KeyRateReport
        assert [f.name for f in dataclasses.fields(KeyRateReport)] == ["v_a", "i_ab", "lambdas", "chi_be", "rate_raw"]
        params = ProtocolParams(n0=50.0, v_a=np.array([1.0, 5.0]))
        scan = secure_key_rate(params, REF_DET, REF_DET, ChannelModel(0.2, 10.0))
        assert scan.feasible.tolist() == [True, False]
        for i in range(2):
            report = scan.at(i)
            assert report.feasible is (report.rate_raw > 0.0)
            assert (report.feasible, report.rate) == (scan.feasible[i], scan.rate[i])


def detectors():
    return st.one_of(
        st.just(DetectorModel(1.0, 0.0)),
        st.builds(
            DetectorModel,
            st.floats(1e-300, 1.0),
            st.one_of(st.floats(0.0, 10.0), st.floats(0.0, 1e300)),
        ),
    )


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(
    n0=st.floats(0.005, 2e4),
    length=st.floats(0.0, 800.0),
    det_a=detectors(),
    det_b=detectors(),
    f=st.floats(0.0, 1.0, exclude_min=True),
    eps0=st.one_of(st.floats(0.0, 1.0), st.floats(0.0, 1e308)),
)
@example(n0=100.0, length=10.0, det_a=REF_DET, det_b=REF_DET, f=0.95, eps0=1e200)
@example(n0=100.0, length=10.0, det_a=DetectorModel(0.5, 1e308), det_b=DetectorModel(0.5, 1e308), f=0.95, eps0=0.01)
# Small variances fail the Holevo bound, large ones the noise budget, which is checked first.
@example(n0=10.0, length=600.0, det_a=DetectorModel(1e-20, 1e289), det_b=REF_DET, f=0.95, eps0=0.01)
@example(n0=0.005, length=10.0, det_a=REF_DET, det_b=REF_DET, f=0.95, eps0=0.01)
@example(n0=500.0, length=800.0, det_a=REF_DET, det_b=REF_DET, f=0.95, eps0=0.01)
def test_array_evaluation_agrees_with_float_evaluations(n0, length, det_a, det_b, f, eps0):
    """The optimizer's coarse scan, one array evaluation, gives each grid
    point's float report to ULPS ulp, and raises exactly when the float
    evaluations do, with the error of the first failing point."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TransmittanceFloorWarning)  # lengths past ~750 km clamp
        ch = ChannelModel(0.2, length)
    lo, hi = min(0.01, n0), min(20.0, n0)
    grid = np.array([lo]) if lo == hi else np.geomspace(lo, hi, COARSE_POINTS)

    array_error = float_error = None
    try:
        scan = secure_key_rate(ProtocolParams(n0=n0, v_a=grid, f=f, eps0=eps0), det_a, det_b, ch)
    except PhysicalityError as exc:
        array_error = str(exc)
    reports = []
    for v_a in grid.tolist():
        try:
            reports.append(secure_key_rate(ProtocolParams(n0=n0, v_a=v_a, f=f, eps0=eps0), det_a, det_b, ch))
        except PhysicalityError as exc:
            float_error = str(exc)
            break

    assert array_error == float_error
    if float_error is None:
        for i, want in enumerate(reports):
            assert_reports_agree(scan.at(i), want, f)


class TestOverflow:
    """An overflow anywhere in the rate chain is a PhysicalityError, never a
    Python OverflowError, a numpy warning or a NaN that reaches g_function."""

    @pytest.mark.parametrize(
        "det, eps0",
        [(REF_DET, 1e200), (REF_DET, 1e100), (DetectorModel(0.5, 1e300), 0.01), (DetectorModel(1e-300, 0.1), 0.01)],
        ids=["eps0-1e200", "eps0-1e100", "v_el-1e300", "eta_d-1e-300"],
    )
    def test_holevo_bound_overflow(self, det, eps0):
        params = ProtocolParams(n0=100.0, v_a=1.0, eps0=eps0)
        with pytest.raises(PhysicalityError, match="eigenvalue pair overflows"):
            secure_key_rate(params, det, det, ChannelModel(0.2, 10.0))
        with pytest.raises(PhysicalityError, match="eigenvalue pair overflows"):
            optimize_modulation(100.0, det, det, ChannelModel(0.2, 10.0), eps0=eps0)

    def test_array_overflow_raises_the_float_error_without_warning(self):
        ch = ChannelModel(0.2, 10.0)
        with pytest.raises(PhysicalityError) as float_error:
            secure_key_rate(ProtocolParams(100.0, 1.0, eps0=1e200), REF_DET, REF_DET, ch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PhysicalityError) as array_error:
                secure_key_rate(ProtocolParams(100.0, np.array([1.0, 2.0]), eps0=1e200), REF_DET, REF_DET, ch)
        assert str(array_error.value) == str(float_error.value)
        assert "eigenvalue pair overflows" in str(array_error.value)

    def test_array_with_a_zero_variance_raises_the_float_error(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError) as exc:
                secure_key_rate(ProtocolParams(100.0, np.array([0.0, 1.0])), REF_DET, REF_DET, ChannelModel(0.2, 10.0))
        assert str(exc.value) == "modulation variance must be > 0, got 0.0"

    def test_noise_budget_overflow(self):
        det = DetectorModel(0.5, 1e308)
        with pytest.raises(PhysicalityError, match="noise budget overflows"):
            secure_key_rate(ProtocolParams(n0=100.0, v_a=1.0), det, det, ChannelModel(0.2, 10.0))


def test_displaced_gaussian_oracle_sanity():
    # The analysis-pipeline control value: strongly displaced light tends
    # to the coherent-state limit of 1.
    assert displaced_gaussian_g2(1000) == pytest.approx(1.0019970, rel=1e-6)
    assert displaced_gaussian_g2(0) == pytest.approx(2.0, rel=1e-12)
