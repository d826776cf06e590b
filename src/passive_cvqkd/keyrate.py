"""Asymptotic reverse-reconciliation secure key rate.

The rate is ``R = f * I_AB - chi_BE`` per channel use, where ``I_AB`` is
the Shannon mutual information of the Gaussian channel with both
quadratures used, and ``chi_BE`` is the Holevo bound on the
eavesdropper's information about the receiver's data under collective
attacks, computed from the symplectic eigenvalues of the relevant
covariance matrices.  Receiver detection noise is trusted; preparation
noise and channel excess noise are not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, PhysicalityError
from .gaussian import DetectorModel
from .noise import ChannelModel, ProtocolParams, total_noise

__all__ = [
    "KeyRateReport",
    "ModulationOptimum",
    "g_function",
    "holevo_bound",
    "mutual_information",
    "optimize_modulation",
    "secure_key_rate",
]

# Absolute tolerances for floating-point cancellation in the eigenvalue
# discriminants and for physicality of the eigenvalues themselves.
DISCRIMINANT_TOL = 1e-9
EIGENVALUE_TOL = 1e-9

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
# Modulation search: points of the logarithmic coarse scan, and the
# relative bracket width at which the golden-section refinement stops.
COARSE_POINTS = 256
REL_TOL = 1e-6


@dataclass(frozen=True)
class KeyRateReport:
    """Key-rate evaluation at one parameter point.

    ``rate_raw`` may be negative (infeasible configuration); ``rate`` is
    clamped at zero.
    """

    i_ab: float
    lambdas: tuple[float, float, float, float, float]
    chi_be: float
    rate_raw: float
    rate: float


def g_function(x: float) -> float:
    """Bosonic entropy ``(x + 1) log2(x + 1) - x log2(x)``, with value 0 at 0.

    Strictly increasing on x > 0; the Holevo bound is a signed sum of
    these terms evaluated at ``(lambda - 1) / 2``.
    """
    if not (x >= 0.0):
        raise ParameterError(f"g_function argument must be >= 0, got {x}")
    if x == 0.0:
        return 0.0
    return (x + 1.0) * math.log2(x + 1.0) - x * math.log2(x)


def mutual_information(v_a: float, chi_tot: float) -> float:
    """Shannon mutual information ``log2[(V + chi_tot) / (1 + chi_tot)]``
    with ``V = v_a + 1``, counting both quadratures."""
    if not (v_a >= 0.0 and math.isfinite(v_a)):
        raise ParameterError(f"modulation variance must be >= 0, got {v_a}")
    if not (chi_tot >= 0.0):
        raise ParameterError(f"total noise must be >= 0, got {chi_tot}")
    return math.log2((v_a + 1.0 + chi_tot) / (1.0 + chi_tot))


def _symplectic_pair(s: float, p: float, label: str) -> tuple[float, float]:
    """Roots of ``lambda^4 - s lambda^2 + p = 0``: the squared pair is
    ``(s +/- sqrt(s^2 - 4p)) / 2``.

    Cancellation can push the discriminant slightly past zero in either
    direction when the pair is degenerate; values within DISCRIMINANT_TOL
    are treated as an exact double root so that an identity channel
    returns eigenvalues of exactly 1.
    """
    disc = s * s - 4.0 * p
    if disc < -DISCRIMINANT_TOL:
        raise PhysicalityError(f"negative discriminant {disc:.3e} for {label} eigenvalue pair")
    if abs(disc) <= DISCRIMINANT_TOL:
        disc = 0.0
    root = math.sqrt(disc)
    hi = (s + root) / 2.0
    lo = (s - root) / 2.0
    if hi < 0.0 or lo < 0.0:
        raise PhysicalityError(f"negative squared eigenvalue for {label} pair: {hi:.3e}, {lo:.3e}")
    return math.sqrt(hi), math.sqrt(lo)


def holevo_bound(
    v_a: float, t: float, chi_line: float, chi_het: float
) -> tuple[float, tuple[float, float, float, float, float]]:
    """Holevo bound between the eavesdropper and the receiver's data.

    Args:
        v_a: modulation variance, > 0.
        t: channel transmittance in (0, 1].
        chi_line: channel-added noise referred to the channel input.
        chi_het: receiver-added noise referred to the receiver input
            (trusted, so it enters only through the measured state).

    Returns:
        ``(chi_be, lambdas)`` with ``chi_be`` in bits per channel use and
        the five symplectic eigenvalues, largest of each pair first; the
        fifth is identically 1, so its term ``g(0) = 0`` is left out.

    Raises:
        PhysicalityError: if a discriminant or eigenvalue violates
            physicality beyond tolerance.
    """
    if not (v_a > 0.0 and math.isfinite(v_a)):
        raise ParameterError(f"modulation variance must be > 0, got {v_a}")
    if not (0.0 < t <= 1.0):
        raise ParameterError(f"transmittance must be in (0, 1], got {t}")
    if not (chi_line >= 0.0 and math.isfinite(chi_line)):
        raise ParameterError(f"channel noise must be >= 0, got {chi_line}")
    if not (chi_het >= 0.0 and math.isfinite(chi_het)):
        raise ParameterError(f"receiver noise must be >= 0, got {chi_het}")

    v = v_a + 1.0
    chi_tot = chi_line + chi_het / t

    a = v * v * (1.0 - 2.0 * t) + 2.0 * t + (t * (v + chi_line)) ** 2
    sqrt_b = t * (v * chi_line + 1.0)
    b = sqrt_b * sqrt_b
    lam1, lam2 = _symplectic_pair(a, b, "channel-output")

    denom = (t * (v + chi_tot)) ** 2
    c = (
        a * chi_het * chi_het
        + b
        + 1.0
        + 2.0 * chi_het * (v * sqrt_b + t * (v + chi_line))
        + 2.0 * t * (v * v - 1.0)
    ) / denom
    d = ((v + sqrt_b * chi_het) ** 2) / denom
    lam3, lam4 = _symplectic_pair(c, d, "conditional")

    lambdas = (lam1, lam2, lam3, lam4, 1.0)
    for lam in lambdas:
        if lam < 1.0 - EIGENVALUE_TOL:
            raise PhysicalityError(f"symplectic eigenvalue {lam!r} below 1 beyond tolerance")

    chi_be = (
        g_function(max(lam1 - 1.0, 0.0) / 2.0)
        + g_function(max(lam2 - 1.0, 0.0) / 2.0)
        - g_function(max(lam3 - 1.0, 0.0) / 2.0)
        - g_function(max(lam4 - 1.0, 0.0) / 2.0)
    )
    return chi_be, lambdas


def secure_key_rate(
    params: ProtocolParams,
    det_a: DetectorModel,
    det_b: DetectorModel,
    ch: ChannelModel,
) -> KeyRateReport:
    """Evaluate the asymptotic secure key rate for one configuration."""
    budget = total_noise(params, det_a, det_b, ch)
    i_ab = mutual_information(params.v_a, budget.chi_tot)
    chi_be, lambdas = holevo_bound(params.v_a, ch.t, budget.chi_line, budget.chi_het)
    rate_raw = params.f * i_ab - chi_be
    return KeyRateReport(
        i_ab=i_ab,
        lambdas=lambdas,
        chi_be=chi_be,
        rate_raw=rate_raw,
        rate=max(rate_raw, 0.0),
    )


@dataclass(frozen=True)
class ModulationOptimum:
    """Result of the modulation-variance search.

    ``feasible`` is False when the raw rate is non-positive everywhere in
    the search range; ``report.rate`` is then 0 at the lower bound.
    """

    v_a: float
    report: KeyRateReport
    feasible: bool


def optimize_modulation(
    n0: float,
    det_a: DetectorModel,
    det_b: DetectorModel,
    ch: ChannelModel,
    f: float = 0.95,
    eps0: float = 0.01,
) -> ModulationOptimum:
    """Maximize the key rate over the modulation variance in
    ``[min(0.01, n0), min(20, n0)]``.

    A logarithmic coarse scan of ``COARSE_POINTS`` points guards against
    multimodality, then a golden-section refinement narrows the bracket
    around the best coarse point to relative width ``REL_TOL``.  Near-ties
    resolve toward the smaller modulation variance.

    Args:
        n0: source mean photon number (upper limit on the variance).

    Returns:
        ModulationOptimum with the best variance and its report.
    """
    lo, hi = min(0.01, n0), min(20.0, n0)

    def rate_raw(v_a: float) -> float:
        params = ProtocolParams(n0=n0, v_a=v_a, f=f, eps0=eps0)
        return secure_key_rate(params, det_a, det_b, ch).rate_raw

    if lo == hi:
        grid = np.array([lo])
    else:
        grid = np.geomspace(lo, hi, COARSE_POINTS)
    values = [rate_raw(v) for v in grid]
    best = int(np.argmax(values))  # argmax takes the first, i.e. smallest v_a

    a = grid[max(best - 1, 0)]
    b = grid[min(best + 1, len(grid) - 1)]
    best_v, best_r = float(grid[best]), values[best]

    # Golden-section maximization of rate_raw on [a, b].
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    rc, rd = rate_raw(c), rate_raw(d)
    while b - a > REL_TOL * b:
        if rc > rd:
            b, d, rd = d, c, rc
            c = b - _INV_PHI * (b - a)
            rc = rate_raw(c)
        else:
            a, c, rc = c, d, rd
            d = a + _INV_PHI * (b - a)
            rd = rate_raw(d)
    for v, r in ((c, rc), (d, rd)):
        # Strict improvement required so ties keep the smaller variance.
        if r > best_r or (r == best_r and v < best_v):
            best_v, best_r = float(v), r

    feasible = best_r > 0.0
    if not feasible:
        best_v = lo
    params = ProtocolParams(n0=n0, v_a=best_v, f=f, eps0=eps0)
    return ModulationOptimum(v_a=best_v, report=secure_key_rate(params, det_a, det_b, ch), feasible=feasible)
