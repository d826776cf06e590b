"""Mutual information, Holevo bound, and the modulation optimizer."""

import warnings

import numpy as np
import pytest

from oracles import brute_force_optimum, displaced_gaussian_g2, holevo_bound_mp, key_rate_mp
from passive_cvqkd import (
    ChannelModel,
    DetectorModel,
    ParameterError,
    ProtocolParams,
    TransmittanceFloorWarning,
    g_function,
    holevo_bound,
    mutual_information,
    optimize_modulation,
    secure_key_rate,
)

REF_DET = DetectorModel(0.5, 0.1)

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

    def test_domain(self):
        with pytest.raises(ParameterError):
            g_function(-1e-12)


class TestMutualInformation:
    def test_no_modulation_no_information(self):
        assert mutual_information(0.0, 3.4) == 0.0
        assert mutual_information(1e-12, 3.4) < 1e-12

    def test_infinite_noise_kills_information(self):
        assert mutual_information(1.0, 1e15) < 1e-14

    def test_reference_value(self):
        assert mutual_information(1.0, 3.4) == pytest.approx(0.29545588352617129, rel=1e-14)

    def test_validation(self):
        with pytest.raises(ParameterError):
            mutual_information(-1.0, 3.4)
        with pytest.raises(ParameterError):
            mutual_information(1.0, -0.1)


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

        with pytest.raises(PhysicalityError):
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
        with pytest.raises(ParameterError):
            holevo_bound(1.0, 0.0, 1.0, 3.4)
        with pytest.raises(ParameterError):
            holevo_bound(1.0, 1.0001, 1.0, 3.4)


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
        assert report.rate_raw == params.f * report.i_ab - report.chi_be
        assert report.rate == max(report.rate_raw, 0.0)

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
        assert opt.report.rate == pytest.approx(grid_rate, rel=1e-4)

    def test_respects_bounds_and_source_limit(self):
        opt = optimize_modulation(5.0, REF_DET, REF_DET, ChannelModel(0.2, 10.0))
        assert 0.0 < opt.v_a <= 5.0

    def test_infeasible_configuration_is_flagged(self):
        opt = optimize_modulation(50.0, REF_DET, REF_DET, ChannelModel(0.2, 50.0), eps0=1.0)
        assert not opt.feasible
        assert opt.report.rate == 0.0
        assert opt.report.rate_raw <= 0.0

    def test_optimized_beats_fixed(self):
        for length in (0.0, 10.0, 30.0):
            ch = ChannelModel(0.2, length)
            opt = optimize_modulation(100.0, REF_DET, REF_DET, ch)
            fixed = secure_key_rate(ProtocolParams(n0=100.0, v_a=1.0), REF_DET, REF_DET, ch)
            assert opt.report.rate >= fixed.rate - 1e-12

    def test_source_without_photons_is_rejected(self):
        with pytest.raises(ParameterError, match="photon number"):
            optimize_modulation(0.0, REF_DET, REF_DET, ChannelModel(0.2, 10.0))

    def test_source_dimmer_than_the_lower_bound_fixes_the_variance(self):
        # The search interval (min(0.01, n0), min(20, n0)) is one point.
        opt = optimize_modulation(0.005, REF_DET, REF_DET, ChannelModel(0.2, 10.0))
        assert opt.v_a == 0.005


def test_displaced_gaussian_oracle_sanity():
    # The analysis-pipeline control value: strongly displaced light tends
    # to the coherent-state limit of 1.
    assert displaced_gaussian_g2(1000) == pytest.approx(1.0019970, rel=1e-6)
    assert displaced_gaussian_g2(0) == pytest.approx(2.0, rel=1e-12)
