"""Seeded Gaussian sampling and linear-optics transforms in shot-noise units.

Conventions used throughout the package:

* Shot-noise unit (SNU): a vacuum-state quadrature has variance 1, so a
  thermal mode with mean photon number ``n`` has quadrature variance
  ``2 n + 1``.
* A quadrature pair is a length-2 vector ``(x, p)``; a batch of pairs is
  a float ndarray of shape ``(count, 2)``.  All transforms act
  elementwise, so single pairs and batches go through the same code.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

__all__ = [
    "DetectorModel",
    "RngStream",
    "beamsplitter",
    "heterodyne_measure",
    "sample_thermal_quadratures",
]

_MAX_SEED = 2**64


@dataclass(frozen=True)
class RngStream:
    """A reproducible, independent random stream.

    Identical ``(master_seed, stream_index)`` always yields the identical
    sample sequence; distinct ``stream_index`` values yield statistically
    independent sequences, which is what parallel partitions use.
    """

    master_seed: int
    stream_index: int = 0

    def __post_init__(self):
        if not (0 <= self.master_seed < _MAX_SEED):
            raise ParameterError(f"master_seed must be a 64-bit unsigned integer, got {self.master_seed}")
        if self.stream_index < 0:
            raise ParameterError(f"stream_index must be non-negative, got {self.stream_index}")

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream."""
        seq = np.random.SeedSequence(self.master_seed, spawn_key=(self.stream_index,))
        return np.random.default_rng(seq)

    def stdlib_random(self) -> random.Random:
        """Fresh stdlib generator of this stream, independent of
        :meth:`generator`'s.  Its str seed goes through ``random``'s own
        sha512, so it does not depend on ``PYTHONHASHSEED``, and using it
        imports no ``numpy.random``."""
        return random.Random(f"{self.master_seed}:{self.stream_index}")


@dataclass(frozen=True)
class DetectorModel:
    """Conjugate-homodyne receiver: efficiency and electronic-noise variance (SNU)."""

    eta_d: float
    v_el: float = 0.0

    def __post_init__(self):
        if not (0.0 < self.eta_d <= 1.0) or not math.isfinite(self.eta_d):
            raise ParameterError(f"detector efficiency must be in (0, 1], got {self.eta_d}")
        if self.v_el < 0.0 or not math.isfinite(self.v_el):
            raise ParameterError(f"electronic-noise variance must be >= 0, got {self.v_el}")


def _check_finite(samples: np.ndarray, name: str) -> None:
    if not np.isfinite(samples).all():
        raise ParameterError(f"{name} contains NaN or Inf values")


def sample_thermal_quadratures(n_mean: float, count: int, rng: RngStream) -> np.ndarray:
    """Draw quadrature pairs of a thermal mode.

    Both quadratures are independent zero-mean Gaussians with variance
    ``2 * n_mean + 1``; ``n_mean = 0`` gives vacuum.

    Args:
        n_mean: mean photon number, >= 0.
        count: number of pairs to draw, >= 1.
        rng: stream supplying the randomness.

    Returns:
        Array of shape ``(count, 2)`` with columns ``(x, p)``.
    """
    if not (n_mean >= 0.0 and math.isfinite(n_mean)):
        raise ParameterError(f"mean photon number must be finite and >= 0, got {n_mean}")
    if count < 1:
        raise ParameterError(f"count must be >= 1, got {count}")
    samples = rng.generator().standard_normal((int(count), 2))
    # sigma * z rounds like g.normal(0.0, sigma), which draws the same z.
    samples *= math.sqrt(2.0 * n_mean + 1.0)
    return samples


def beamsplitter(
    a: np.ndarray, b: np.ndarray, t: float
) -> tuple[np.ndarray, np.ndarray]:
    """Mix two modes on a beam splitter of transmittance ``t``.

    Applies the orthogonal mixing, per quadrature::

        out1 =  sqrt(t) * a + sqrt(1 - t) * b
        out2 = -sqrt(1 - t) * a + sqrt(t) * b

    so total variance is conserved for independent inputs.  ``t = 1`` is
    the identity, ``t = 0`` swaps the modes up to a sign.

    Args:
        a, b: quadrature pairs or batches, shape ``(..., 2)``.
        t: power transmittance in [0, 1].

    Returns:
        The two output modes, same shape as the inputs.
    """
    if not (0.0 <= t <= 1.0):
        raise ParameterError(f"transmittance must be in [0, 1], got {t}")
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    _check_finite(a, "input a")
    _check_finite(b, "input b")
    return _split(a, b, t), _split(a, b, t, port=1)


def _split(a, b, t: float, port: int = 0):
    """Output ``port`` (0 or 1) of :func:`beamsplitter`; no validation."""
    ct, st = math.sqrt(t), math.sqrt(1.0 - t)
    ca, cb = (ct, st) if port == 0 else (-st, ct)
    return ca * a + cb * b


def heterodyne_measure(
    samples: np.ndarray,
    det: DetectorModel,
    rng: RngStream,
) -> np.ndarray:
    """Conjugate-homodyne measurement of both quadratures of a mode.

    The mode is split 50:50 and X is read on one arm, P on the other;
    detector loss is a beam splitter of transmittance ``eta_d`` in front
    of ideal detectors.  Per quadrature the outcome is::

        sqrt(eta_d / 2) * in + sqrt(1 - eta_d / 2 + v_el) * z

    with ``z`` standard normal.  The vacuum let in by the splitter and the
    loss, of variance ``1 - eta_d / 2``, and the electronic noise, of
    variance ``v_el``, are independent zero-mean Gaussians, so their sum
    has the law of this one draw.  An input of quadrature variance V is
    measured with variance ``eta_d * (V - 1) / 2 + 1 + v_el``.  Any
    upstream splitting belongs to the protocol composition, not to this
    operation.

    Args:
        samples: quadrature pairs or batch, shape ``(..., 2)``.
        det: receiver model.
        rng: stream for the receiver noise.

    Returns:
        Measured quadrature pairs, same shape as ``samples``.
    """
    samples = np.asarray(samples, dtype=np.float64)
    _check_finite(samples, "samples")
    gain, noise = _receiver_gains(det)
    outcome = rng.generator().standard_normal(samples.shape)
    outcome *= noise
    outcome += samples * gain
    return outcome


def _receiver_gains(det: DetectorModel) -> tuple[float, float]:
    """Per quadrature, the gain of a receiver's input on its outcome and
    the amplitude of its one noise draw; see :func:`heterodyne_measure`."""
    return math.sqrt(det.eta_d / 2.0), math.sqrt(1.0 - det.eta_d / 2.0 + det.v_el)
