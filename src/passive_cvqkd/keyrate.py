"""Asymptotic reverse-reconciliation secure key rate.

The rate is ``R = f * I_AB - chi_BE`` per channel use, where ``I_AB`` is
the Shannon mutual information of the Gaussian channel with both
quadratures used, and ``chi_BE`` is the Holevo bound on the
eavesdropper's information about the receiver's data under collective
attacks, computed from the symplectic eigenvalues of the relevant
covariance matrices.  Receiver detection noise is trusted; preparation
noise and channel excess noise are not.

The engine has two entry points: ``secure_key_rate`` evaluates one
configuration and ``optimize_modulation`` searches the modulation
variance.  Both return a ``KeyRateReport``, which carries its variance
and derives ``rate`` and ``feasible`` from ``rate_raw``.  They validate
at that boundary: the parameter dataclasses check their inputs and
``secure_key_rate`` rejects an overflowing noise budget, so the formula
steps ``g_function``, ``mutual_information`` and ``holevo_bound`` are
internal and check only what those inputs can still violate.

Each formula is written once for floats and numpy arrays alike: a float
computes with ``math``, anything else with numpy, and ``max``, the
``x log2 x`` limit at 0 and the discriminant snap are branch-free forms.
The optimizer evaluates its whole coarse grid in one array call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ParameterError, PhysicalityError
from .gaussian import DetectorModel
from .noise import ChannelModel, ProtocolParams, total_noise

__all__ = ["KeyRateReport", "optimize_modulation", "secure_key_rate"]

# Absolute tolerances for floating-point cancellation in the eigenvalue
# discriminants and for physicality of the eigenvalues themselves.
DISCRIMINANT_TOL = 1e-9
EIGENVALUE_TOL = 1e-9

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
# Modulation search: points of the logarithmic coarse scan, and the
# relative bracket width at which the golden-section refinement stops.
COARSE_POINTS = 256
REL_TOL = 1e-6

# A float, or an array of them evaluated elementwise.
FloatOrArray = float | np.ndarray


@dataclass(frozen=True)
class KeyRateReport:
    """Key-rate evaluation at modulation variance ``v_a``, or at each of an
    array of them: then every field is an array over them, but the fifth
    eigenvalue, which stays the float 1.0.

    ``rate_raw`` may be negative (infeasible configuration); ``rate`` is
    clamped at zero, and ``feasible`` is ``rate_raw > 0``.
    """

    v_a: FloatOrArray
    i_ab: FloatOrArray
    lambdas: tuple[FloatOrArray, FloatOrArray, FloatOrArray, FloatOrArray, float]
    chi_be: FloatOrArray
    rate_raw: FloatOrArray

    @property
    def rate(self) -> FloatOrArray:
        # (x + |x|) / 2 is max(x, 0) for floats and arrays alike, exactly.
        return (self.rate_raw + abs(self.rate_raw)) / 2.0

    @property
    def feasible(self) -> bool | np.ndarray:
        return self.rate_raw > 0.0

    def at(self, i: int) -> KeyRateReport:
        """The report at index ``i`` of an array evaluation, in Python floats."""

        def item(x):
            return x[i].item() if isinstance(x, np.ndarray) else x

        return KeyRateReport(
            item(self.v_a), item(self.i_ab), tuple(map(item, self.lambdas)), item(self.chi_be), item(self.rate_raw)
        )


def _require(ok, error: type[Exception], message: str, *values) -> None:
    """Raise ``error(message.format(*values))`` unless the comparison ``ok``
    holds, at every element when it is an array.  An array's error is not
    formatted: ``secure_key_rate`` re-runs its variances as floats, which
    raise the formatted error of the first failing one.

    Callers test ``ok is not True`` first, so a float that passes costs one
    identity test.
    """
    if not np.all(ok):
        raise error(message if isinstance(ok, np.ndarray) else message.format(*values))


def g_function(x: FloatOrArray) -> FloatOrArray:
    """Bosonic entropy ``(x + 1) log2(x + 1) - x log2(x)``, with value 0 at 0.

    Takes a float or an array, each ``x >= 0``.  Strictly increasing on
    x > 0; the Holevo bound is a signed sum of these terms evaluated at
    ``(lambda - 1) / 2``, which its eigenvalue floors keep non-negative.
    """
    log2 = math.log2 if type(x) is float else np.log2
    # x log2(x) -> 0 as x -> 0: adding (x == 0) makes the logarithm's argument 1 there.
    return (x + 1.0) * log2(x + 1.0) - x * log2(x + (x == 0.0))


def mutual_information(v_a: FloatOrArray, chi_tot: FloatOrArray) -> FloatOrArray:
    """Shannon mutual information ``log2[(V + chi_tot) / (1 + chi_tot)]``
    with ``V = v_a + 1``, counting both quadratures; floats or arrays."""
    ratio = (v_a + 1.0 + chi_tot) / (1.0 + chi_tot)
    return math.log2(ratio) if type(ratio) is float else np.log2(ratio)


def _symplectic_pair(s: FloatOrArray, p: FloatOrArray, label: str) -> tuple[FloatOrArray, FloatOrArray]:
    """Roots of ``lambda^4 - s lambda^2 + p = 0``: the squared pair is
    ``(s +/- sqrt(s^2 - 4p)) / 2``; floats or arrays.

    Cancellation can push the discriminant slightly past zero in either
    direction when the pair is degenerate; values within DISCRIMINANT_TOL
    are treated as an exact double root so that an identity channel
    returns eigenvalues of exactly 1.
    """
    sqrt = math.sqrt if type(s) is float else np.sqrt
    disc = s * s - 4.0 * p
    ok = abs(disc) < math.inf
    if ok is not True:
        _require(ok, PhysicalityError, "{} eigenvalue pair overflows: discriminant is {}", label, disc)
    ok = disc >= -DISCRIMINANT_TOL
    if ok is not True:
        _require(ok, PhysicalityError, "negative discriminant {:.3e} for {} eigenvalue pair", disc, label)
    # Multiplying by False snaps a discriminant within tolerance to zero.
    root = sqrt(disc * (abs(disc) > DISCRIMINANT_TOL))
    hi = (s + root) / 2.0
    lo = (s - root) / 2.0
    # Both eigenvalues must reach 1 - EIGENVALUE_TOL; lo <= hi, so lo decides.
    ok = lo >= (1.0 - EIGENVALUE_TOL) ** 2
    if ok is not True:
        _require(ok, PhysicalityError, "{} eigenvalue pair below 1 beyond tolerance: lambda^2 = {!r}", label, lo)
    return sqrt(hi), sqrt(lo)


def holevo_bound(
    v_a: FloatOrArray, t: FloatOrArray, chi_line: FloatOrArray, chi_het: FloatOrArray
) -> tuple[FloatOrArray, tuple[FloatOrArray, FloatOrArray, FloatOrArray, FloatOrArray, float]]:
    """Holevo bound between the eavesdropper and the receiver's data.

    Args:
        v_a: modulation variance, > 0.
        t: channel transmittance in (0, 1], as ``ChannelModel`` makes it.
        chi_line: channel-added noise referred to the channel input.
        chi_het: receiver-added noise referred to the receiver input
            (trusted, so it enters only through the measured state).
            Both are >= 0 from ``total_noise``, and finite when
            ``chi_line + chi_het / t`` is, as ``secure_key_rate`` checks.

    Any argument may be an array instead of a float; the results then are
    arrays of the broadcast shape.

    Returns:
        ``(chi_be, lambdas)`` with ``chi_be`` in bits per channel use and
        the five symplectic eigenvalues, largest of each pair first; the
        fifth is identically 1, so its term ``g(0) = 0`` is left out.

    Raises:
        ParameterError: if ``v_a`` is not > 0.
        PhysicalityError: if a discriminant overflows, or it or an
            eigenvalue violates physicality beyond tolerance.  For arrays
            either message is left unformatted (see ``_require``).
    """
    ok = v_a > 0.0  # ProtocolParams admits v_a = 0 for simulation
    if ok is not True:
        _require(ok, ParameterError, "modulation variance must be > 0, got {}", v_a)

    v = v_a + 1.0
    chi_tot = chi_line + chi_het / t

    # Squares are products: where * gives inf, a float's ** raises OverflowError.
    t_v_line = t * (v + chi_line)
    a = v * v * (1.0 - 2.0 * t) + 2.0 * t + t_v_line * t_v_line
    sqrt_b = t * (v * chi_line + 1.0)
    b = sqrt_b * sqrt_b
    lam1, lam2 = _symplectic_pair(a, b, "channel-output")

    t_v_tot = t * (v + chi_tot)
    denom = t_v_tot * t_v_tot
    c = (
        a * chi_het * chi_het
        + b
        + 1.0
        + 2.0 * chi_het * (v * sqrt_b + t * (v + chi_line))
        + 2.0 * t * (v * v - 1.0)
    ) / denom
    v_b_het = v + sqrt_b * chi_het
    d = v_b_het * v_b_het / denom
    lam3, lam4 = _symplectic_pair(c, d, "conditional")

    # Within tolerance an eigenvalue may sit just below 1; its term is g(0):
    # (x + |x|) / 4 is max(x, 0) / 2, exactly.
    x1, x2, x3, x4 = lam1 - 1.0, lam2 - 1.0, lam3 - 1.0, lam4 - 1.0
    chi_be = (
        g_function((x1 + abs(x1)) / 4.0)
        + g_function((x2 + abs(x2)) / 4.0)
        - g_function((x3 + abs(x3)) / 4.0)
        - g_function((x4 + abs(x4)) / 4.0)
    )
    return chi_be, (lam1, lam2, lam3, lam4, 1.0)


def secure_key_rate(
    params: ProtocolParams,
    det_a: DetectorModel,
    det_b: DetectorModel,
    ch: ChannelModel,
) -> KeyRateReport:
    """Evaluate the asymptotic secure key rate for one configuration; an
    overflow of the noise budget or the Holevo bound is a PhysicalityError.

    With an array of variances ``params.v_a`` the report holds arrays, an
    overflow prints no numpy warning, and the error raised is the one the
    float evaluation raises at the first failing variance.
    """
    if isinstance(params.v_a, np.ndarray):
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                return _key_rate(params, det_a, det_b, ch)
            except (ParameterError, PhysicalityError):
                # Each check of the chain runs over every variance before the next
                # one; the float evaluations, in order, raise the first failing one's error.
                for v_a in params.v_a.tolist():
                    _key_rate(replace(params, v_a=v_a), det_a, det_b, ch)
                raise
    return _key_rate(params, det_a, det_b, ch)


def _key_rate(params: ProtocolParams, det_a: DetectorModel, det_b: DetectorModel, ch: ChannelModel) -> KeyRateReport:
    """The key-rate chain of ``secure_key_rate``, for floats and arrays alike."""
    budget = total_noise(params, det_a, det_b, ch)
    ok = abs(budget.chi_tot) < math.inf
    if ok is not True:
        _require(ok, PhysicalityError, "noise budget overflows: total noise is {}", budget.chi_tot)
    i_ab = mutual_information(params.v_a, budget.chi_tot)
    chi_be, lambdas = holevo_bound(params.v_a, ch.t, budget.chi_line, budget.chi_het)
    # Positional: keywords cost a frozen dataclass ~0.5 us per call here.
    return KeyRateReport(params.v_a, i_ab, lambdas, chi_be, params.f * i_ab - chi_be)


def optimize_modulation(
    n0: float,
    det_a: DetectorModel,
    det_b: DetectorModel,
    ch: ChannelModel,
    f: float = 0.95,
    eps0: float = 0.01,
) -> KeyRateReport:
    """Maximize the key rate over the modulation variance in
    ``[min(0.01, n0), min(20, n0)]``.

    A logarithmic coarse scan of ``COARSE_POINTS`` points, one array
    evaluation, guards against multimodality, then a golden-section
    refinement of float evaluations narrows the bracket around the best
    coarse point to relative width ``REL_TOL``.  Near-ties resolve toward
    the smaller modulation variance.

    Args:
        n0: source mean photon number (upper limit on the variance).

    Returns:
        KeyRateReport: the report the search made at the best variance, in
        Python floats.  When no variance in the range is feasible, it is
        the report at the lower bound, with ``feasible`` False and
        ``rate`` 0.
    """
    lo, hi = min(0.01, n0), min(20.0, n0)
    # geomspace rejects [0, 0]; n0 = 0 must reach ProtocolParams' check instead.
    grid = np.array([lo]) if lo == hi else np.geomspace(lo, hi, COARSE_POINTS)
    # The one validation of n0, f, eps0 and the grid.
    scan = secure_key_rate(ProtocolParams(n0=n0, v_a=grid, f=f, eps0=eps0), det_a, det_b, ch)
    i = int(np.argmax(scan.rate_raw))  # argmax takes the first, i.e. smallest v_a
    best = scan.at(i)

    def evaluate(v_a: float) -> KeyRateReport:
        return secure_key_rate(ProtocolParams(n0=n0, v_a=v_a, f=f, eps0=eps0), det_a, det_b, ch)

    # Golden-section maximization of the raw rate on [a, b], in Python floats;
    # each report carries its point.
    a, b = grid[max(i - 1, 0)].item(), grid[min(i + 1, len(grid) - 1)].item()
    rc = evaluate(b - _INV_PHI * (b - a))
    rd = evaluate(a + _INV_PHI * (b - a))
    while b - a > REL_TOL * b:
        if rc.rate_raw > rd.rate_raw:
            b, rd = rd.v_a, rc
            rc = evaluate(b - _INV_PHI * (b - a))
        else:
            a, rc = rc.v_a, rd
            rd = evaluate(a + _INV_PHI * (b - a))
    for r in (rc, rd):
        # Strict improvement required so ties keep the smaller variance.
        if r.rate_raw > best.rate_raw or (r.rate_raw == best.rate_raw and r.v_a < best.v_a):
            best = r
    return best if best.feasible else scan.at(0)
