"""Closed-form noise budget of the passive preparation stage and the channel.

All variances are in shot-noise units.  The preparation stage splits a
thermal source of mean photon number ``n0``, measures one arm with a
noisy conjugate-homodyne receiver, and attenuates the other arm down to
modulation variance ``v_a``; the residual mismatch between the measured
estimate and the outgoing quadrature is the preparation excess noise.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError
from .gaussian import DetectorModel

__all__ = [
    "ChannelModel",
    "NoiseBudget",
    "ProtocolParams",
    "TransmittanceFloorWarning",
    "excess_noise_alice",
    "heterodyne_noise",
    "total_noise",
]

# Floor on channel transmittance; absurd lengths clamp here with a warning
# instead of dividing by numbers below double precision.
T_FLOOR = 1e-15


class TransmittanceFloorWarning(UserWarning):
    """The configured fiber length drove the transmittance to the floor."""


@dataclass(frozen=True)
class ProtocolParams:
    """Source brightness, modulation variance, reconciliation efficiency and
    residual untrusted noise of one protocol configuration.

    ``v_a = 0`` (full attenuation, nothing sent) is a legal edge case for
    simulation; key-rate operations require ``v_a > 0``.  ``v_a`` may be
    an array of variances, which the noise budget and the key rate then
    evaluate at once.
    """

    n0: float
    v_a: float | np.ndarray
    f: float = 0.95
    eps0: float = 0.01

    def __post_init__(self):
        if not (self.n0 > 0.0 and math.isfinite(self.n0)):
            raise ParameterError(f"source mean photon number must be > 0, got {self.n0}")
        # An array's extremes bound its elements; a NaN is its own extreme.
        lo, hi = (self.v_a.min(), self.v_a.max()) if isinstance(self.v_a, np.ndarray) else (self.v_a, self.v_a)
        if not (0.0 <= lo and math.isfinite(hi)):
            raise ParameterError(f"modulation variance must be >= 0, got {self.v_a}")
        if hi > self.n0:
            raise ParameterError(
                f"modulation variance {self.v_a} exceeds source photon number {self.n0} "
                "(attenuator transmittance would be > 1)"
            )
        if not (0.0 < self.f <= 1.0):
            raise ParameterError(f"reconciliation efficiency must be in (0, 1], got {self.f}")
        if not (self.eps0 >= 0.0 and math.isfinite(self.eps0)):
            raise ParameterError(f"residual excess noise must be >= 0, got {self.eps0}")

    @property
    def eta_a(self) -> float:
        """Attenuator transmittance on the outgoing mode, ``v_a / n0``."""
        return self.v_a / self.n0


@dataclass(frozen=True)
class ChannelModel:
    """Telecom fiber of attenuation ``gamma_db_km`` (dB/km) and length (km).

    ``t`` is its power transmittance ``10 ** (-gamma L / 10)``, computed
    once here and floored at ``T_FLOOR``; a clamp warns at the line that
    built the channel.
    """

    gamma_db_km: float
    length_km: float
    t: float = field(init=False)

    def __post_init__(self):
        if not (self.gamma_db_km >= 0.0 and math.isfinite(self.gamma_db_km)):
            raise ParameterError(f"attenuation coefficient must be >= 0, got {self.gamma_db_km}")
        if not (self.length_km >= 0.0 and math.isfinite(self.length_km)):
            raise ParameterError(f"fiber length must be >= 0, got {self.length_km}")
        t = 10.0 ** (-self.gamma_db_km * self.length_km / 10.0)
        if t < T_FLOOR:
            # Above this frame: the generated __init__, then the caller.
            warnings.warn(
                f"transmittance {t:.3g} below floor {T_FLOOR:g}; clamping",
                TransmittanceFloorWarning,
                stacklevel=3,
            )
            t = T_FLOOR
        object.__setattr__(self, "t", t)


@dataclass(frozen=True)
class NoiseBudget:
    """Derived noise quantities, all in SNU.

    ``eps_a``: preparation excess noise; ``chi_het``: receiver-added noise
    referred to the receiver input; ``chi_line``: channel-added noise
    referred to the channel input, the preparation noise included;
    ``chi_tot = chi_line + chi_het / t`` with ``t`` the channel's
    transmittance.
    """

    eps_a: float
    chi_het: float
    chi_line: float
    chi_tot: float


def excess_noise_alice(params: ProtocolParams, det: DetectorModel) -> float:
    """Preparation excess noise ``(2 v_a / (n0 eta_d)) (1 + v_el - eta_d / 2)``.

    Linear in ``v_a`` and inversely proportional to the source brightness,
    which is why a bright source tolerates a noisy local receiver.  One
    more vacuum unit gives the variance of Alice's error on the outgoing
    quadrature.
    """
    return (2.0 * params.eta_a / det.eta_d) * (1.0 + det.v_el - det.eta_d / 2.0)


def heterodyne_noise(det: DetectorModel) -> float:
    """Receiver-added noise referred to the receiver input,
    ``[1 + (1 - eta_d) + 2 v_el] / eta_d``; equals 1 for an ideal receiver."""
    return (1.0 + (1.0 - det.eta_d) + 2.0 * det.v_el) / det.eta_d


def total_noise(
    params: ProtocolParams,
    det_a: DetectorModel,
    det_b: DetectorModel,
    ch: ChannelModel,
) -> NoiseBudget:
    """Assemble the full noise budget for one configuration.

    The preparation noise (from Alice's receiver ``det_a``) is treated as
    untrusted and folded into the channel excess noise; Bob's receiver
    ``det_b`` contributes trusted detection noise only.  With an array of
    variances ``params.v_a``, every field but ``chi_het`` is an array.
    """
    eps_a = excess_noise_alice(params, det_a)
    chi_line = 1.0 / ch.t - 1.0 + (eps_a + params.eps0)
    chi_het = heterodyne_noise(det_b)
    chi_tot = chi_line + chi_het / ch.t
    return NoiseBudget(eps_a, chi_het, chi_line, chi_tot)  # keywords would cost ~0.5 us
