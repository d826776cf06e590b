"""Independent reference implementations used to pin expected test values.

Everything here is written against mpmath only, deliberately not reusing
any package code, so the main implementation and these oracles can only
agree by both being right.
"""

from __future__ import annotations

import mpmath as mp

REFERENCE = {
    "gamma": "0.2",
    "eps0": "0.01",
    "v_el": "0.1",
    "eta_d": "0.5",
    "f": "0.95",
}


def bosonic_entropy(x: mp.mpf) -> mp.mpf:
    if x == 0:
        return mp.mpf(0)
    return (x + 1) * mp.log(x + 1, 2) - x * mp.log(x, 2)


def holevo_bound_mp(v_a, t, chi_line, chi_het, dps: int = 40) -> mp.mpf:
    """Holevo bound from the symplectic-eigenvalue chain, arbitrary precision."""
    with mp.workdps(dps):
        v_a, t, chi_line, chi_het = (mp.mpf(str(q)) for q in (v_a, t, chi_line, chi_het))
        v = v_a + 1
        chi_tot = chi_line + chi_het / t
        a = v**2 * (1 - 2 * t) + 2 * t + t**2 * (v + chi_line) ** 2
        b = t**2 * (v * chi_line + 1) ** 2
        disc1 = a * a - 4 * b
        if disc1 < 0 and disc1 > -mp.mpf("1e-30"):
            disc1 = mp.mpf(0)
        lam1 = mp.sqrt((a + mp.sqrt(disc1)) / 2)
        lam2 = mp.sqrt((a - mp.sqrt(disc1)) / 2)
        c = (
            a * chi_het**2
            + b
            + 1
            + 2 * chi_het * (v * mp.sqrt(b) + t * (v + chi_line))
            + 2 * t * (v**2 - 1)
        ) / (t * (v + chi_tot)) ** 2
        d = ((v + mp.sqrt(b) * chi_het) / (t * (v + chi_tot))) ** 2
        disc2 = c * c - 4 * d
        if disc2 < 0 and disc2 > -mp.mpf("1e-30"):
            disc2 = mp.mpf(0)
        lam3 = mp.sqrt((c + mp.sqrt(disc2)) / 2)
        lam4 = mp.sqrt((c - mp.sqrt(disc2)) / 2)
        chi_be = (
            bosonic_entropy((lam1 - 1) / 2)
            + bosonic_entropy((lam2 - 1) / 2)
            - bosonic_entropy((lam3 - 1) / 2)
            - bosonic_entropy((lam4 - 1) / 2)
        )
        return chi_be


def _epr(v) -> mp.matrix:
    """Covariance matrix of a two-mode squeezed vacuum whose modes each
    have quadrature variance ``v``, in the order ``(x1, p1, x2, p2)``."""
    c = mp.sqrt(v * v - 1)
    return mp.matrix([[v, 0, c, 0], [0, v, 0, -c], [c, 0, v, 0], [0, -c, 0, v]])


def _sub(gamma: mp.matrix, rows, cols) -> mp.matrix:
    return mp.matrix([[gamma[i, j] for j in cols] for i in rows])


def gaussian_entropy(gamma: mp.matrix) -> mp.mpf:
    """Von Neumann entropy, in bits, of the Gaussian state of covariance
    matrix ``gamma`` (SNU, quadratures ordered ``(x1, p1, x2, p2, ...)``).

    The symplectic eigenvalues are the moduli of the eigenvalues of
    ``i Omega gamma``, which come in pairs ``+-lambda``.  An eigenvalue
    below 1 by round-off counts as the vacuum's.
    """
    n = gamma.rows
    omega = mp.zeros(n)
    for k in range(0, n, 2):
        omega[k, k + 1], omega[k + 1, k] = 1, -1
    moduli = sorted(abs(e) for e in mp.eig(mp.mpc(0, 1) * omega * gamma, right=False))
    return mp.fsum(bosonic_entropy(max(lam - 1, 0) / 2) for lam in moduli[::2])


def holevo_bound_cm_mp(v_a, t, chi_line, eta, v_el, dps: int = 40) -> mp.mpf:
    """Holevo bound ``chi_BE`` from covariance matrices, in the
    entanglement-based picture of Lodewyck et al., PRA 76, 042305 (2007),
    with Bob's heterodyne receiver of efficiency ``eta < 1`` and electronic
    noise ``v_el`` trusted.

    Alice holds mode A of an EPR pair of variance ``V = v_a + 1`` and sends
    the other mode through a channel of transmittance ``t`` that adds
    ``chi_line`` referred to its input, so Bob's mode B1 has variance
    ``t (V + chi_line)`` and correlation ``sqrt(t (V^2 - 1))`` with A.  Eve
    purifies (A, B1), so ``S(E) = S(A B1)``.  Bob's detector is a beam
    splitter of transmittance ``eta`` mixing B1 with mode F0 of an EPR pair
    (F0, G) of variance ``1 + 2 v_el / (1 - eta)``.  His heterodyne of the
    output B2 projects it onto a coherent state, so ``S(E | B) = S(A F G |
    B)``, and the conditional covariance matrix is ``gamma_AFG - sigma
    (gamma_B2 + I)^-1 sigma^T``.  Nothing here uses the closed-form
    discriminants of ``holevo_bound_mp`` or of the package.
    """
    with mp.workdps(dps):
        v_a, t, chi_line, eta, v_el = (mp.mpf(str(q)) for q in (v_a, t, chi_line, eta, v_el))
        v = v_a + 1
        # Modes (A, B1, F0, G), two quadratures each.
        gamma = mp.zeros(8)
        ab = _epr(v)
        scale = [1, 1, mp.sqrt(t), mp.sqrt(t)]
        for i in range(4):
            for j in range(4):
                gamma[i, j] = ab[i, j] * scale[i] * scale[j]
        gamma[2, 2] = gamma[3, 3] = t * (v + chi_line)
        detector = _epr(1 + 2 * v_el / (1 - eta))
        for i in range(4):
            for j in range(4):
                gamma[4 + i, 4 + j] = detector[i, j]
        s_e = gaussian_entropy(_sub(gamma, range(4), range(4)))

        # The beam splitter takes (B1, F0) to (B2, F) in each quadrature.
        bs = mp.eye(8)
        for q in (0, 1):
            b, f = 2 + q, 4 + q
            bs[b, b], bs[b, f] = mp.sqrt(eta), mp.sqrt(1 - eta)
            bs[f, b], bs[f, f] = -mp.sqrt(1 - eta), mp.sqrt(eta)
        gamma = bs * gamma * bs.T

        rest, measured = (0, 1, 4, 5, 6, 7), (2, 3)
        sigma = _sub(gamma, rest, measured)
        conditional = _sub(gamma, rest, rest) - sigma * mp.inverse(_sub(gamma, measured, measured) + mp.eye(2)) * sigma.T
        return s_e - gaussian_entropy(conditional)


def key_rate_mp(
    n0,
    v_a,
    length_km,
    gamma=REFERENCE["gamma"],
    eps0=REFERENCE["eps0"],
    v_el=REFERENCE["v_el"],
    eta_d=REFERENCE["eta_d"],
    f=REFERENCE["f"],
    dps: int = 40,
) -> mp.mpf:
    """Raw (unclamped) secure key rate of one configuration."""
    with mp.workdps(dps):
        n0, v_a, length = (mp.mpf(str(q)) for q in (n0, v_a, length_km))
        gamma, eps0, v_el, eta_d, f = (mp.mpf(str(q)) for q in (gamma, eps0, v_el, eta_d, f))
        t = mp.power(10, -gamma * length / 10)
        eps_a = (2 * v_a / (n0 * eta_d)) * (1 + v_el - eta_d / 2)
        chi_line = 1 / t - 1 + eps_a + eps0
        chi_het = (1 + (1 - eta_d) + 2 * v_el) / eta_d
        chi_tot = chi_line + chi_het / t
        i_ab = mp.log((v_a + 1 + chi_tot) / (1 + chi_tot), 2)
        chi_be = holevo_bound_mp(v_a, t, chi_line, chi_het, dps=dps)
        return f * i_ab - chi_be


def brute_force_optimum(n0, length_km, points: int = 10_000, lo=0.01, hi=None, dps: int = 25):
    """Exhaustive log-grid maximization of the raw rate.

    Returns (v_a, rate) of the best grid point; the grid is fine enough
    that any correct optimizer must land within its resolution.
    """
    if hi is None:
        hi = min(20.0, float(n0))
    with mp.workdps(dps):
        log_lo, log_hi = mp.log(mp.mpf(str(lo))), mp.log(mp.mpf(str(hi)))
        best_v, best_r = None, mp.mpf("-inf")
        for k in range(points):
            v = mp.e ** (log_lo + (log_hi - log_lo) * k / (points - 1))
            r = key_rate_mp(n0, v, length_km, dps=dps)
            if r > best_r:
                best_v, best_r = v, r
        return float(best_v), float(best_r)


def displaced_gaussian_g2(displacement_power) -> float:
    """g2 of unit-variance Gaussian quadratures with total mean-square
    displacement ``displacement_power``, from noncentral chi-square moments."""
    lam = mp.mpf(str(displacement_power))
    mean_z = 2 + lam
    mean_z2 = (2 + lam) ** 2 + 2 * (2 + 2 * lam)
    return float((mean_z2 - 4 * mean_z + 2) / (mean_z - 1) ** 2)


def pooled_variance_mp(columns, dps: int = 40) -> mp.mpf:
    """Per-quadrature sample variance (n - 1 in the denominator), averaged
    over the columns, by two passes in extended precision: each column's
    mean, then its squared deviations from that mean."""
    with mp.workdps(dps):
        total = mp.mpf(0)
        for column in columns:
            values = [mp.mpf(v) for v in column]
            mean = mp.fsum(values) / len(values)
            total += mp.fsum((v - mean) ** 2 for v in values) / (len(values) - 1)
        return total / len(columns)


def g2_stderr_mp(samples, dps: int = 50) -> mp.mpf:
    """First-order delta-method standard error of ``g2 = h(m1, m2) =
    (m2 - 4 m1 + 2) / (m1 - 1)^2``, with ``m1`` and ``m2`` the means of
    ``Z = x^2 + p^2`` and ``Z^2`` over the (x, p) rows of ``samples``:
    ``sqrt(grad h . S grad h / n)``, ``S`` the covariance of ``(Z, Z^2)``
    over the rows (``n`` in the denominator), in extended precision."""
    with mp.workdps(dps):
        z = [mp.mpf(x) ** 2 + mp.mpf(p) ** 2 for x, p in samples]
        n = len(z)
        m1 = mp.fsum(z) / n
        m2 = mp.fsum(v**2 for v in z) / n
        dev = [(v - m1, v**2 - m2) for v in z]
        s11 = mp.fsum(d1 * d1 for d1, _ in dev) / n
        s12 = mp.fsum(d1 * d2 for d1, d2 in dev) / n
        s22 = mp.fsum(d2 * d2 for _, d2 in dev) / n

        # The partial derivatives of h by the quotient rule.
        h1 = (-4 * (m1 - 1) - 2 * (m2 - 4 * m1 + 2)) / (m1 - 1) ** 3
        h2 = 1 / (m1 - 1) ** 2
        return mp.sqrt((h1 * h1 * s11 + 2 * h1 * h2 * s12 + h2 * h2 * s22) / n)
