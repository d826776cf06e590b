"""Seeded random streams, the receiver model, and the linear optics that
the simulator composes into one map; nothing here samples a mode.

Conventions used throughout the package:

* Shot-noise unit (SNU): a vacuum-state quadrature has variance 1, so a
  thermal mode with mean photon number ``n`` has quadrature variance
  ``2 n + 1``.
* A quadrature pair is a length-2 vector ``(x, p)``; a batch of pairs is
  a float ndarray of shape ``(count, 2)``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

__all__ = ["DetectorModel", "RngStream"]

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


def _split(a, b, t: float, port: int = 0):
    """Output ``port`` (0 or 1) of a beam splitter of power transmittance
    ``t`` mixing modes ``a`` and ``b``, per quadrature, by the orthogonal
    mixing ``sqrt(t) a + sqrt(1 - t) b`` on port 0 and
    ``-sqrt(1 - t) a + sqrt(t) b`` on port 1.  ``t = 1`` is the identity,
    ``t = 0`` swaps the modes up to a sign.  No validation."""
    ct, st = math.sqrt(t), math.sqrt(1.0 - t)
    ca, cb = (ct, st) if port == 0 else (-st, ct)
    return ca * a + cb * b


def _receiver_gains(det: DetectorModel) -> tuple[float, float]:
    """Per quadrature, the gain of a conjugate-homodyne receiver's input on
    its outcome and the amplitude of its one noise draw.

    The mode is split 50:50, X read on one arm and P on the other, behind
    a loss of transmittance ``eta_d``.  The outcome is
    ``sqrt(eta_d / 2) * in + sqrt(1 - eta_d / 2 + v_el) * z``, ``z``
    standard normal: the vacuum let in by the splitter and the loss
    (variance ``1 - eta_d / 2``) and the electronic noise (``v_el``) are
    independent zero-mean Gaussians, so their sum is this one draw.  An
    input of quadrature variance V is measured with variance
    ``eta_d * (V - 1) / 2 + 1 + v_el``."""
    return math.sqrt(det.eta_d / 2.0), math.sqrt(1.0 - det.eta_d / 2.0 + det.v_el)
