"""Closed-form noise budget."""

import inspect
import warnings

import numpy as np
import pytest

from passive_cvqkd import (
    ChannelModel,
    DetectorModel,
    ParameterError,
    ProtocolParams,
    excess_noise_alice,
    heterodyne_noise,
    total_noise,
)
from passive_cvqkd.noise import T_FLOOR, TransmittanceFloorWarning

REF_DET = DetectorModel(0.5, 0.1)


class TestAliceUncertainty:
    """Alice's error on the outgoing quadrature has variance
    ``excess_noise_alice + 1``: the trailing 1 is the outgoing mode's vacuum."""

    def test_no_signal_means_pure_vacuum_error(self):
        assert excess_noise_alice(ProtocolParams(n0=340.0, v_a=0.0), REF_DET) + 1.0 == 1.0

    def test_ideal_detector_full_transmission(self):
        eps = excess_noise_alice(ProtocolParams(n0=3.0, v_a=3.0), DetectorModel(1.0, 0.0))
        assert eps + 1.0 == pytest.approx(2.0, abs=1e-15)

    def test_threshold_attenuation(self):
        # 1/340 is the attenuation at which the excess noise hits 0.01
        # for this detector, so the uncertainty is 1.01.
        eps = excess_noise_alice(ProtocolParams(n0=340.0, v_a=1.0), REF_DET)
        assert eps + 1.0 == pytest.approx(1.01, rel=1e-12)

    def test_range_validation(self):
        # An attenuator transmittance v_a / n0 outside [0, 1] is refused
        # where the parameters are built.
        with pytest.raises(ParameterError):
            ProtocolParams(n0=10.0, v_a=-1.0)
        with pytest.raises(ParameterError):
            ProtocolParams(n0=10.0, v_a=11.0)


class TestExcessNoise:
    def test_reference_threshold(self):
        params = ProtocolParams(n0=340.0, v_a=1.0)
        assert excess_noise_alice(params, REF_DET) == pytest.approx(0.01, rel=1e-12)

    def test_vanishes_with_modulation(self):
        params = ProtocolParams(n0=340.0, v_a=1e-12)
        assert excess_noise_alice(params, REF_DET) < 1e-13

    def test_dimmer_source_value(self):
        params = ProtocolParams(n0=100.0, v_a=1.0)
        assert excess_noise_alice(params, REF_DET) == pytest.approx(0.034, rel=1e-12)

    def test_linearity_in_modulation_variance(self):
        for v_a in (0.03, 0.7, 4.2):
            one = excess_noise_alice(ProtocolParams(n0=500.0, v_a=v_a), REF_DET)
            two = excess_noise_alice(ProtocolParams(n0=500.0, v_a=2.0 * v_a), REF_DET)
            assert two == pytest.approx(2.0 * one, rel=1e-15)

    def test_halving_attenuation_halves_noise(self):
        full = excess_noise_alice(ProtocolParams(n0=200.0, v_a=2.0), REF_DET)
        half = excess_noise_alice(ProtocolParams(n0=200.0, v_a=1.0), REF_DET)
        assert half == pytest.approx(0.5 * full, rel=1e-15)

    def test_monotonicity(self):
        base = excess_noise_alice(ProtocolParams(n0=200.0, v_a=1.0), REF_DET)
        for n0 in (210.0, 300.0, 1000.0):
            assert excess_noise_alice(ProtocolParams(n0=n0, v_a=1.0), REF_DET) < base
        for v_a in (1.1, 2.0, 10.0):
            assert excess_noise_alice(ProtocolParams(n0=200.0, v_a=v_a), REF_DET) > base
        for v_el in (0.2, 0.5, 1.0):
            noisier = DetectorModel(REF_DET.eta_d, v_el)
            assert excess_noise_alice(ProtocolParams(n0=200.0, v_a=1.0), noisier) > base

    def test_params_validation(self):
        with pytest.raises(ParameterError):
            ProtocolParams(n0=0.0, v_a=0.0)
        with pytest.raises(ParameterError):
            ProtocolParams(n0=100.0, v_a=-1.0)
        with pytest.raises(ParameterError):
            ProtocolParams(n0=100.0, v_a=101.0)
        with pytest.raises(ParameterError):
            ProtocolParams(n0=100.0, v_a=1.0, f=0.0)
        with pytest.raises(ParameterError):
            ProtocolParams(n0=100.0, v_a=1.0, f=1.5)
        with pytest.raises(ParameterError):
            ProtocolParams(n0=100.0, v_a=1.0, eps0=-0.01)


class TestChannel:
    def test_zero_length_is_lossless(self):
        assert ChannelModel(0.2, 0.0).t == 1.0

    def test_ten_db_loss(self):
        assert ChannelModel(0.2, 50.0).t == pytest.approx(0.1, rel=1e-15)

    def test_half_decade(self):
        assert ChannelModel(0.2, 25.0).t == pytest.approx(10.0 ** -0.5, rel=1e-15)
        assert ChannelModel(0.2, 25.0).t == pytest.approx(0.31623, rel=1e-4)

    def test_transmittance_above_the_floor_is_the_written_formula(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for gamma, length in ((0.2, 0.0), (0.2, 13.7), (0.16, 120.0), (0.2, 749.0), (1.0, 3.3)):
                assert ChannelModel(gamma, length).t == 10.0 ** (-gamma * length / 10.0)

    def test_floor_warns_and_clamps(self):
        with pytest.warns(TransmittanceFloorWarning):
            t = ChannelModel(0.2, 10_000.0).t
        assert t == T_FLOOR == 1e-15

    def test_floor_warns_once_per_channel_at_the_callers_line(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            line = inspect.currentframe().f_lineno + 1
            ch = ChannelModel(0.2, 800.0)
            for _ in range(3):
                total_noise(ProtocolParams(n0=500.0, v_a=1.0), REF_DET, REF_DET, ch)
        assert [w.category for w in caught] == [TransmittanceFloorWarning]
        assert (caught[0].filename, caught[0].lineno) == (__file__, line)

    def test_validation(self):
        with pytest.raises(ParameterError):
            ChannelModel(-0.1, 10.0)
        with pytest.raises(ParameterError):
            ChannelModel(0.2, -1.0)


class TestHeterodyneNoise:
    def test_ideal_receiver_adds_one_unit(self):
        assert heterodyne_noise(DetectorModel(1.0, 0.0)) == 1.0

    def test_reference_receiver(self):
        assert heterodyne_noise(REF_DET) == pytest.approx(3.4, rel=1e-15)

    def test_noiseless_lossy_receiver(self):
        assert heterodyne_noise(DetectorModel(0.5, 0.0)) == pytest.approx(3.0, rel=1e-15)

    def test_never_below_one(self):
        for eta in (0.1, 0.3, 0.5, 0.9, 1.0):
            for v_el in (0.0, 0.05, 0.5):
                assert heterodyne_noise(DetectorModel(eta, v_el)) >= 1.0


class TestTotalNoise:
    def test_lossless_noiseless_channel(self):
        params = ProtocolParams(n0=1e12, v_a=1.0, eps0=0.0)
        budget = total_noise(params, REF_DET, REF_DET, ChannelModel(0.2, 0.0))
        assert budget.chi_line == pytest.approx(0.0, abs=1e-11)

    def test_reference_point(self):
        params = ProtocolParams(n0=340.0, v_a=1.0, eps0=0.01)
        budget = total_noise(params, REF_DET, REF_DET, ChannelModel(0.2, 50.0))
        assert budget.eps_a == pytest.approx(0.01, rel=1e-12)
        assert budget.chi_line == pytest.approx(9.02, rel=1e-12)
        assert budget.chi_tot == pytest.approx(43.02, rel=1e-12)

    def test_ordering_invariants(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n0 = rng.uniform(20.0, 2000.0)
            params = ProtocolParams(n0=n0, v_a=rng.uniform(0.01, min(20.0, n0)), eps0=rng.uniform(0.0, 0.5))
            det_a = DetectorModel(rng.uniform(0.2, 1.0), rng.uniform(0.0, 0.5))
            det_b = DetectorModel(rng.uniform(0.2, 1.0), rng.uniform(0.0, 0.5))
            ch = ChannelModel(0.2, rng.uniform(0.0, 120.0))
            budget = total_noise(params, det_a, det_b, ch)
            assert budget.chi_tot >= budget.chi_line >= 1.0 / ch.t - 1.0
            assert budget.chi_het >= 1.0
            assert budget.eps_a >= 0.0
