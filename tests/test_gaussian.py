"""Random streams, the receiver model, the splitter and receiver maps the
simulator composes, and the synthetic records the other tests build."""

import math

import numpy as np
import pytest

from passive_cvqkd import DetectorModel, ParameterError, RngStream
from passive_cvqkd.gaussian import _receiver_gains, _split
from synthetic import heterodyne_measure, sample_thermal_quadratures

N = 1_000_000


def var_tol(var: float, n: int, k: float = 5.0) -> float:
    """k-sigma band for the sample variance of n Gaussian values."""
    return k * var * math.sqrt(2.0 / n)


def excess_kurtosis(x):
    return np.mean((x - x.mean()) ** 4) / x.var() ** 2 - 3.0


def receive(samples, det, stream):
    """The receiver law through ``_receiver_gains``: each quadrature is its
    gain times the input plus its amplitude times one standard normal."""
    gain, amp = _receiver_gains(det)
    return gain * samples + amp * stream.generator().standard_normal(samples.shape)


def normals(stream, count):
    """``(count, 2)`` standard normals from the start of ``stream``."""
    return stream.generator().standard_normal((count, 2))


class TestRngStream:
    def test_identical_streams_are_bit_identical(self):
        a = normals(RngStream(123, 4), 1000)
        b = normals(RngStream(123, 4), 1000)
        assert np.array_equal(a, b)

    def test_distinct_stream_indices_are_independent(self):
        a = normals(RngStream(123, 0), N)
        b = normals(RngStream(123, 1), N)
        assert not np.array_equal(a, b)
        corr = np.corrcoef(a[:, 0], b[:, 0])[0, 1]
        assert abs(corr) < 5.0 / math.sqrt(N)

    def test_distinct_master_seeds_differ(self):
        a = normals(RngStream(1), 100)
        b = normals(RngStream(2), 100)
        assert not np.array_equal(a, b)

    def test_partitioned_concatenation_is_deterministic(self):
        parts = [normals(RngStream(9, k), 500) for k in range(4)]
        again = [normals(RngStream(9, k), 500) for k in range(4)]
        assert np.array_equal(np.concatenate(parts), np.concatenate(again))

    def test_seed_validation(self):
        with pytest.raises(ParameterError):
            RngStream(-1)
        with pytest.raises(ParameterError):
            RngStream(2**64)
        with pytest.raises(ParameterError):
            RngStream(1, -1)


class TestThermalSampling:
    """The thermal records the calibration and CLI tests are built from."""

    @pytest.mark.parametrize(
        "n_mean, expected, seed",
        [(0.0, 1.0, 21), (800.0, 1601.0, 22), (340.0, 681.0, 23)],
    )
    def test_variance_is_2n_plus_1(self, n_mean, expected, seed):
        samples = sample_thermal_quadratures(n_mean, N, RngStream(seed))
        for column in range(2):
            assert abs(samples[:, column].var() - expected) < var_tol(expected, N)

    def test_zero_mean(self):
        samples = sample_thermal_quadratures(50.0, N, RngStream(24))
        sigma = math.sqrt(101.0)
        assert np.all(np.abs(samples.mean(axis=0)) < 5.0 * sigma / math.sqrt(N))

    def test_samples_are_gaussian_by_excess_kurtosis(self):
        samples = sample_thermal_quadratures(340.0, N, RngStream(25))
        assert abs(excess_kurtosis(samples[:, 0])) < 0.02

    def test_output_shape_and_finiteness(self):
        samples = sample_thermal_quadratures(1.5, 17, RngStream(26))
        assert samples.shape == (17, 2)
        assert np.isfinite(samples).all()

    @pytest.mark.parametrize("n_mean", [0.0, 0.37, 340.0, 1e12])
    def test_rounds_like_numpy_normal(self, n_mean):
        expected = RngStream(12, 3).generator().normal(0.0, math.sqrt(2.0 * n_mean + 1.0), size=(5000, 2))
        assert np.array_equal(sample_thermal_quadratures(n_mean, 5000, RngStream(12, 3)), expected)


class TestBeamsplitter:
    """``_split``, both ports, on batches of quadrature pairs."""

    def test_full_transmittance_is_identity(self):
        a = np.array([[1.0, 2.0], [3.0, -4.0]])
        b = np.array([[0.5, -0.5], [1.5, 2.5]])
        assert np.array_equal(_split(a, b, 1.0), a)
        assert np.array_equal(_split(a, b, 1.0, port=1), b)

    def test_zero_transmittance_swaps_with_sign(self):
        a = np.array([1.0, 2.0])
        b = np.array([0.5, -0.5])
        assert np.array_equal(_split(a, b, 0.0), b)
        assert np.array_equal(_split(a, b, 0.0, port=1), -a)

    def test_balanced_outputs_have_unit_variance_and_no_correlation(self):
        a = normals(RngStream(31), N)
        b = normals(RngStream(32), N)
        out1, out2 = _split(a, b, 0.5), _split(a, b, 0.5, port=1)
        for out in (out1, out2):
            assert abs(out[:, 0].var() - 1.0) < var_tol(1.0, N)
        cov = np.mean(out1[:, 0] * out2[:, 0])
        assert abs(cov) < 5.0 / math.sqrt(N)

    @pytest.mark.parametrize("t", [0.0, 0.1, 0.3, 0.5, 0.77, 1.0])
    def test_energy_bookkeeping(self, t):
        a = sample_thermal_quadratures(2.0, 200_000, RngStream(33))
        b = sample_thermal_quadratures(0.0, 200_000, RngStream(34))
        out1, out2 = _split(a, b, t), _split(a, b, t, port=1)
        total_in = a[:, 0].var() + b[:, 0].var()
        total_out = out1[:, 0].var() + out2[:, 0].var()
        assert abs(total_out - total_in) < var_tol(total_in, 200_000)

    @pytest.mark.parametrize("t", [0.0, 0.3, 0.5, 0.77, 1.0])
    def test_mixing_is_orthogonal_pair_by_pair(self, t):
        a = sample_thermal_quadratures(3.0, 5000, RngStream(37))
        b = sample_thermal_quadratures(0.0, 5000, RngStream(38))
        out1, out2 = _split(a, b, t), _split(a, b, t, port=1)
        assert np.allclose(out1**2 + out2**2, a**2 + b**2, rtol=1e-13, atol=0.0)
        assert np.allclose(math.sqrt(t) * out1 - math.sqrt(1.0 - t) * out2, a, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("t", [0.0, 0.3, 0.5, 1.0])
    def test_rounds_like_the_written_formula(self, t):
        a = sample_thermal_quadratures(3.0, 5000, RngStream(35))
        b = sample_thermal_quadratures(0.0, 5000, RngStream(36))
        ct, st = math.sqrt(t), math.sqrt(1.0 - t)
        assert np.array_equal(_split(a, b, t), ct * a + st * b)
        assert np.array_equal(_split(a, b, t, port=1), -st * a + ct * b)

    def test_broadcasts_a_single_pair(self):
        a = np.array([1.0, 2.0])
        b = np.array([[0.5, -0.5], [1.5, 2.5]])
        for port in (0, 1):
            out = _split(a, b, 0.3, port)
            assert out.shape == (2, 2)
            assert np.array_equal(out[1], _split(a, b[1], 0.3, port))


class TestHeterodyne:
    """``_receiver_gains``'s law, and the measured records built by it."""

    def test_vacuum_with_ideal_detector_has_unit_variance(self):
        vac = sample_thermal_quadratures(0.0, N, RngStream(41))
        out = receive(vac, DetectorModel(1.0, 0.0), RngStream(42))
        assert abs(out[:, 0].var() - 1.0) < var_tol(1.0, N)

    def test_bright_thermal_with_noisy_detector(self):
        # eta_d (V - 1) / 2 + 1 + v_el = 0.25 * 1600 + 1.35 = 401.35
        src = sample_thermal_quadratures(800.0, N, RngStream(43))
        out = receive(src, DetectorModel(0.5, 0.35), RngStream(44))
        for column in range(2):
            assert abs(out[:, column].var() - 401.35) < var_tol(401.35, N)

    def test_deterministic_zero_input_leaves_split_vacuum(self):
        # Variance law at V = 0: 1 - eta_d / 2 + v_el.
        out = receive(np.zeros((N, 2)), DetectorModel(0.5, 0.0), RngStream(45))
        assert abs(out[:, 0].var() - 0.75) < var_tol(0.75, N)

    @pytest.mark.parametrize("v_in, seed", [(1.0, 46), (681.0, 47), (1601.0, 48)])
    def test_variance_law(self, v_in, seed):
        det = DetectorModel(0.5, 0.1)
        n_mean = (v_in - 1.0) / 2.0
        src = sample_thermal_quadratures(n_mean, N, RngStream(seed))
        out = receive(src, det, RngStream(seed + 100))
        expected = det.eta_d * (v_in - 1.0) / 2.0 + 1.0 + det.v_el
        for column in range(2):
            assert abs(out[:, column].var() - expected) < var_tol(expected, N)

    @pytest.mark.parametrize("det", [DetectorModel(0.5, 0.1), DetectorModel(1.0, 0.0), DetectorModel(0.07, 2.5)])
    def test_gains_give_the_variance_law_in_closed_form(self, det):
        gain, amp = _receiver_gains(det)
        for v_in in (0.0, 1.0, 681.0, 1601.0):
            expected = det.eta_d * (v_in - 1.0) / 2.0 + 1.0 + det.v_el
            assert gain**2 * v_in + amp**2 == pytest.approx(expected, rel=1e-14)

    def test_output_is_gaussian(self):
        src = sample_thermal_quadratures(800.0, N, RngStream(49))
        out = receive(src, DetectorModel(0.5, 0.35), RngStream(50))
        assert abs(excess_kurtosis(out[:, 0])) < 0.02

    @pytest.mark.parametrize("det", [DetectorModel(0.5, 0.1), DetectorModel(1.0, 0.0), DetectorModel(0.07, 2.5)])
    def test_rounds_like_the_written_formula(self, det):
        # The synthetic records are the receiver law through
        # _receiver_gains, bit for bit.
        src = sample_thermal_quadratures(5.0, 5000, RngStream(53))
        g = RngStream(54).generator()
        noise = math.sqrt(1.0 - det.eta_d / 2.0 + det.v_el) * g.standard_normal(src.shape)
        expected = math.sqrt(det.eta_d / 2.0) * src + noise
        assert _receiver_gains(det) == (math.sqrt(det.eta_d / 2.0), math.sqrt(1.0 - det.eta_d / 2.0 + det.v_el))
        assert np.array_equal(receive(src, det, RngStream(54)), expected)
        assert np.array_equal(heterodyne_measure(src, det, RngStream(54)), expected)

    def test_determinism(self):
        src = sample_thermal_quadratures(5.0, 1000, RngStream(51))
        out1 = heterodyne_measure(src, DetectorModel(0.6, 0.2), RngStream(52))
        out2 = heterodyne_measure(src, DetectorModel(0.6, 0.2), RngStream(52))
        assert np.array_equal(out1, out2)

    def test_detector_validation(self):
        with pytest.raises(ParameterError):
            DetectorModel(0.0, 0.1)
        with pytest.raises(ParameterError):
            DetectorModel(1.2, 0.1)
        with pytest.raises(ParameterError):
            DetectorModel(0.5, -0.1)
