"""Monte Carlo simulation of the passively prepared protocol, end to end.

One round draws a thermal source state, splits it, attenuates the
outgoing arm, measures the retained arm with Alice's noisy receiver and
rescales the outcome into an estimate of the outgoing quadratures, then
applies the lossy noisy channel and Bob's receiver.  The chain is
linear, so its rows are standard normals through one fixed factor of its
map, which has the chain's law exactly, and every reported moment is
that factor applied to the Gram matrix of a partition's normals.  That
Gram matrix is drawn once per partition from its exact (Wishart) law,
by the stdlib's generator, so a run without a dump costs the same at any
round count and imports no ``numpy.random``; a dump draws the rows'
normals from numpy's generator and maps them onto the same Gram matrix.
The empirical second moments of ``(x_A, p_A, x_B, p_B)`` must reproduce
the closed-form noise budget; the outgoing quadrature is additionally
tracked as simulation-only ground truth, so every run also estimates the
preparation noise directly.

Rounds are independent, so the run is partitioned into independent
random streams and merged by summing sufficient statistics; the result
depends only on ``(master_seed, partitions)``, not on worker scheduling.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import os
import random
import shutil
import sys
import tempfile
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDataError, ParameterError
from .gaussian import DetectorModel, RngStream, _receiver_gains, _split
from .noise import ChannelModel, ProtocolParams

__all__ = [
    "SimConfig",
    "SimSummary",
    "analytic_moments",
    "empirical_mi_stderr",
    "empirical_mutual_information",
    "run_protocol",
]

DUMP_HEADER = "round,xA,pA,xB,pB"

# A dump draws its rounds' normals in chunks of one fixed size, which fixes
# which of the stream's normals each round gets.  A chunk's arrays, its four
# normals a round (128 KiB) and its four-column rows plus one scratch column
# (160 KiB), stay in L2 cache.
_CHUNK = 1 << 12
# Dump rows that orjson formats and the dump writes at a time.  Their text
# and lines take ~0.6 KB a row while they are formatted, so a whole chunk at
# once took the traced peak of a dump from 1.08 to 2.97 MB, and was no faster.
_WRITE_ROWS = 1 << 10
# The entries of Bartlett's factor, made once: numpy's index helpers leave
# small tuples that only a full collection frees, and many partitions piled them up.
_DIAG, _TRIL = np.diag_indices(6), np.tril_indices(6, -1)


@dataclass(frozen=True)
class SimConfig:
    """Inputs of one simulation run."""

    params: ProtocolParams
    det_a: DetectorModel
    det_b: DetectorModel
    channel: ChannelModel
    count: int
    master_seed: int
    partitions: int = 1

    def __post_init__(self):
        if self.count < 1:
            raise ParameterError(f"count must be >= 1, got {self.count}")
        if self.count > sys.float_info.max:  # an exact comparison: the moments divide by float(count)
            size = f"about 10**{math.log10(self.count):.1f}"
            raise ParameterError(f"count must be at most {sys.float_info.max!r}, got {size}")
        if self.partitions < 1:
            raise ParameterError(f"partitions must be >= 1, got {self.partitions}")
        RngStream(self.master_seed)  # validates the seed range


@dataclass(eq=False)
class SimSummary:
    """Accumulated statistics of a run.

    ``moments`` holds the raw second moments of ``(x_A, p_A, x_B, p_B)``
    about zero as a symmetric 4x4 matrix in SNU, with per-entry standard
    errors in ``moment_stderr``.  ``delta_hat`` is the mean squared error
    of Alice's estimate against the tracked outgoing quadrature (both
    quadratures pooled), with standard error ``delta_stderr``.  All of
    them come from one second-moment matrix of the rows
    ``(x_A, p_A, x_B, p_B, d_x, d_p)``, and both standard errors follow
    the same zero-mean Gaussian rule.
    """

    count: int
    moments: np.ndarray
    moment_stderr: np.ndarray
    delta_hat: float
    delta_stderr: float


def _coefficients(cfg: SimConfig) -> np.ndarray:
    """Per quadrature, the 3x8 map of the chain's independent standard
    normals onto ``(d, est, B)``: the estimate error ``d = est - x_out``,
    Alice's estimate and Bob's outcome.

    The inputs, in the chain's order, are the source, the two splitter
    vacua, the attenuator's vacuum, Alice's receiver noise, the channel's
    excess noise and loss vacuum, and Bob's receiver noise.  Each mode is
    its row of coefficients on them, passed through the element maps.
    """
    params, det_a, det_b = cfg.params, cfg.det_a, cfg.det_b
    src, vac1, vac2, vac_att, noise_a, excess, vac_ch, noise_b = np.eye(8)
    src = math.sqrt(2.0 * params.n0 + 1.0) * src
    # Each splitter arm gets its own vacuum admixture, so the noise on
    # Alice's estimate is independent of the noise on the outgoing
    # mode; this is the preparation model whose estimate-error
    # variance is excess_noise_alice() + 1.
    mod1 = _split(src, vac1, 0.5)
    mod2 = _split(vac2, src, 0.5, port=1)
    # Rescaled, Alice's receiver passes her arm with the attenuator's gain,
    # taken as the same float, so d's source coefficient is exactly 0: d is
    # never a difference of two samples of size sqrt(v_a).
    gain = math.sqrt(params.eta_a)
    out = gain * mod1 + math.sqrt(1.0 - params.eta_a) * vac_att
    est = gain * mod2 + math.sqrt(2.0 * params.eta_a / det_a.eta_d) * _receiver_gains(det_a)[1] * noise_a
    # Channel excess noise is injected at the channel input.
    received = _split(out + math.sqrt(params.eps0) * excess, vac_ch, cfg.channel.t)
    gain_b, amp_b = _receiver_gains(det_b)
    return np.array([est - out, est, gain_b * received + amp_b * noise_b])


def _factor(cfg: SimConfig) -> np.ndarray:
    """The 3x3 upper-triangular ``R`` for which ``z @ R``, ``z`` a row of
    three standard normals, has the law of one quadrature's
    ``(est, B, d)``; x and p share it.

    ``R.T @ R`` is the Gram matrix of the rows ``e``, ``b`` and ``d`` of
    ``_coefficients(cfg)``, and each entry is formed without cancellation,
    so every moment of ``(x_A, p_A, x_B, p_B)`` holds to a few ulps of
    itself.  ``e`` and ``b`` share only the source input, so
    ``cov(est, B) = R00 R01`` is one product.  ``R11 = |e ^ b| / |e|``
    (Lagrange's identity), where ``|b|^2 - R01^2`` would cancel terms of
    size ``v_a``.  ``d``'s dot products sum terms of one sign, and
    ``R22``, its remainder, holds to a few ulps of ``|d|``, all its
    variance needs; no entry of ``d``'s column is of size ``sqrt(v_a)``.
    """
    d, e, b = _coefficients(cfg)
    r = np.zeros((3, 3))
    r[0, 0] = math.hypot(*e)
    if r[0, 0] > 0.0:  # with v_a = 0 the estimate is exactly 0
        wedge = np.outer(e, b) - np.outer(b, e)
        r[0, 1:] = (e * b).sum() / r[0, 0], (e * d).sum() / r[0, 0]
        r[1, 1] = math.hypot(*wedge[np.triu_indices(8, 1)]) / r[0, 0]
    else:
        r[1, 1] = math.hypot(*b)
    r[1, 2] = ((b * d).sum() - r[0, 1] * r[0, 2]) / r[1, 1]
    r[2, 2] = math.sqrt(max((d * d).sum() - r[0, 2] ** 2 - r[1, 2] ** 2, 0.0))
    return r


def _bartlett(g: random.Random, n: int) -> np.ndarray:
    """The lower-triangular 6x6 Bartlett factor ``T`` of ``n >= 6`` rounds'
    normals: ``W = T T.T`` has their Gram matrix's law, Wishart_6(n, I)
    (Bartlett, Proc. R. Soc. Edinb. 53, 260 (1933)).  ``T_ii^2 ~
    chi2(n - i) = Gamma((n - i) / 2, 2)``, drawn first, and the 15 ``T_ij ~
    N(0, 1)`` below the diagonal, row by row, are independent.  Both of the
    stdlib's draws are exact in law."""
    t = np.zeros((6, 6))
    t[_DIAG] = [math.sqrt(g.gammavariate((n - i) / 2.0, 2.0)) for i in range(6)]
    t[_TRIL] = [g.gauss(0.0, 1.0) for _ in range(15)]
    return t


def _normals(stream: RngStream, n_rounds: int, buf: np.ndarray):
    """From the start of ``stream``'s numpy generator, ``n_rounds`` rounds'
    four normals ``(z0_x, z1_x, z0_p, z1_p)``: yields each chunk's first
    round and its (4, m) view of ``buf``, refilled in place."""
    g = stream.generator()
    for done in range(0, n_rounds, _CHUNK):
        m = min(_CHUNK, n_rounds - done)
        u = buf[: 4 * m].reshape(4, m)
        g.standard_normal(out=u)
        yield done, u


def _row_map(k4: np.ndarray, t4: np.ndarray, s: np.ndarray) -> np.ndarray:
    """The 4x4 ``A = k4 t4 L^-1``, ``L`` the lower Cholesky factor of ``s``:
    normals ``Z`` of Gram matrix ``s`` give rows ``A Z`` of Gram matrix
    ``k4 t4 t4.T k4.T``.  ``A`` solves ``A L = k4 t4`` column by column,
    from the last; the products go through ``np.einsum``'s loops, not BLAS."""
    low = np.zeros((4, 4))
    for j in range(4):  # Cholesky, column by column
        low[j, j] = math.sqrt(s[j, j] - (low[j, :j] ** 2).sum())
        low[j + 1 :, j] = (s[j + 1 :, j] - (low[j + 1 :, :j] * low[j, :j]).sum(axis=1)) / low[j, j]
    b = np.einsum("ij,jk->ik", k4, t4)
    a = np.zeros((4, 4))
    for j in range(3, -1, -1):
        a[:, j] = (b[:, j] - (a[:, j + 1 :] * low[j + 1 :, j]).sum(axis=1)) / low[j, j]
    return a


def _rows(a: np.ndarray, u: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """The rows ``(x_A, p_A, x_B, p_B)`` of a chunk's normals ``u`` through
    the 4x4 map ``a``, as an (m, 4) view of ``buf``.

    Each row is ``a[i, 0] z_0``, then each further normal with a nonzero
    coefficient added in turn: numpy's exactly rounded products and sums,
    not BLAS, so the rows do not depend on a BLAS build.
    """
    m = u.shape[1]
    block, scratch = buf[: 5 * m].reshape(5, m)[:4], buf[4 * m : 5 * m]
    for row, coef in zip(block, a):
        np.multiply(u[0], coef[0], out=row)
        for c, z in zip(coef[1:], u[1:]):
            if c:
                row += np.multiply(z, c, out=scratch)
    return block.T


def _block_map(r: np.ndarray) -> np.ndarray:
    """The 6x6 map of ``(z0_x, z1_x, z0_p, z1_p, z2_x, z2_p)`` onto the
    rows ``(x_A, p_A, x_B, p_B, d_x, d_p)``: ``r.T`` once per quadrature."""
    k = np.zeros((6, 6))
    for q in (0, 1):  # x, then p
        k[np.ix_([q, 2 + q, 4 + q], [2 * q, 2 * q + 1, 4 + q])] = r.T
    return k


def _write_rows(fh, block: np.ndarray, first_row: int) -> None:
    """Write ``block``'s rows as dump lines numbered from ``first_row`` to
    the binary file ``fh``: each value is the shortest text that round-trips
    it, the same bytes as its ``repr``.

    orjson formats ``_WRITE_ROWS`` rows at a time straight from the array,
    and their row numbers from a list, in two compiled calls (Ryu's
    shortest round-trip digits); the two are interleaved into lines.  Its
    text differs from ``repr`` only for a nonzero value below 1e-4 in
    magnitude, one of 1e16 or more, and a non-finite one (``null``); the
    rows holding such a value are rewritten with ``repr``.  orjson formats
    integers up to 2**64 - 1, so that is the last row number.
    """
    import orjson  # imported here: a run without a dump formats no rows

    size = np.abs(block)
    odd = (((size < 1e-4) & (block != 0.0)) | ~(size < 1e16)).any(axis=1)
    for start in range(0, len(block), _WRITE_ROWS):
        rows = np.ascontiguousarray(block[start : start + _WRITE_ROWS])
        m, first = len(rows), first_row + start
        lines = [None, b",", None, b"\n"] * m
        lines[0::4] = orjson.dumps(list(range(first, first + m)))[1:-1].split(b",")
        lines[2::4] = orjson.dumps(rows, option=orjson.OPT_SERIALIZE_NUMPY)[2:-2].split(b"],[")
        for i in np.flatnonzero(odd[start : start + m]).tolist():
            lines[4 * i + 2] = ",".join(map(repr, rows[i].tolist())).encode()
        fh.write(b"".join(lines))


def _partition_sums(r: np.ndarray, stream: RngStream, n_rounds: int, first_row: int, part_path: str | None):
    """Run one partition of ``n_rounds`` rounds drawn from ``stream``
    through ``r``; returns the 6x6 sum of ``v.T @ v`` over its rounds'
    rows ``v = (x_A, p_A, x_B, p_B, d_x, d_p)``, as ``K W K.T`` with
    ``K = _block_map(r)`` and ``W`` the Gram matrix of the rounds' normals
    ``(z0_x, z1_x, z0_p, z1_p, z2_x, z2_p)``.

    From 6 rounds on, ``W = T T.T`` with ``T`` Bartlett's factor, drawn
    from the stream's stdlib generator, so the summary costs the same at
    any ``n_rounds`` and needs no ``numpy.random``.  A smaller partition
    draws its 6 x n normals from the numpy generator, the rows' four first.

    With ``part_path`` the partition's rows ``(x_A, p_A, x_B, p_B)`` are
    also written there as dump lines numbered from ``first_row``, one chunk
    at a time, from four normals a round drawn from the start of the numpy
    generator, independent of ``T``.  From 6 rounds on those normals ``Z``
    are drawn twice: once to sum their Gram matrix ``S``, and again to map
    them through ``T4 chol(S)^-1`` (``T4`` the top left 4x4 of ``T``).
    ``chol(S)^-1 Z`` is Haar-distributed on the Stiefel manifold and
    independent of ``S`` (Muirhead, *Aspects of Multivariate Statistical
    Theory*, 1982), so ``U = T4 chol(S)^-1 Z`` has the law of the rounds'
    drawn normals jointly with ``W``, and ``U U.T`` is ``W``'s top left
    block to rounding: the rows reproduce the report.  Memory is one chunk of normals and one of rows.
    """
    k = _block_map(r)
    if n_rounds < 6:
        z = stream.generator().standard_normal((6, n_rounds))
        w = np.einsum("ik,jk->ij", z, z)
    else:
        t = _bartlett(stream.stdlib_random(), n_rounds)
        w = np.einsum("ik,jk->ij", t, t)
    # A non-finite value is reported by run_protocol's moment check, not as a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        sums = np.einsum("ia,ab,jb->ij", k, w, k)
        sums = (sums + sums.T) / 2.0  # exactly symmetric, as a Gram matrix is
        if part_path is not None:
            # One chunk array of normals and one of rows and scratch serve every chunk.
            normals, rows = np.empty(4 * min(_CHUNK, n_rounds)), np.empty(5 * min(_CHUNK, n_rounds))
            a = k[:4, :4]
            if n_rounds >= 6:
                s = sum(np.einsum("ik,jk->ij", u, u) for _, u in _normals(stream, n_rounds, normals))
                a = _row_map(a, t[:4, :4], s)
            with open(part_path, "wb") as fh:
                for done, u in _normals(stream, n_rounds, normals):
                    _write_rows(fh, _rows(a, u, rows), first_row + done)
    return sums


def _usable_cpus() -> int:
    """Number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity interface on this platform
        return os.cpu_count() or 1


def run_protocol(
    cfg: SimConfig,
    dump_path: str | None = None,
    workers: int = 1,
) -> SimSummary:
    """Simulate ``cfg.count`` protocol rounds and summarize them.

    Args:
        cfg: run configuration; ``cfg.partitions`` independent streams
            are merged in index order, so the summary is identical for
            any ``workers`` value.
        dump_path: optional CSV path for the raw per-round samples, with
            header ``round,xA,pA,xB,pB`` in SNU.  Each value is the
            shortest text that round-trips it, byte for byte its
            ``repr``, formatted by orjson from the float64 rows; rows are
            numbered up to 2**64 - 1.  Each partition writes its rows,
            1024 at a time, to a part file
            in a temporary directory beside ``dump_path``; the parts are
            then appended in partition order and removed; a failed run
            leaves the dump empty.  Memory stays O(chunk), not O(count),
            and the bytes do not depend on ``workers``.
        workers: process count for parallel partitions, at least 1;
            1 runs sequentially.  The pool is no larger than the
            number of partitions run or of CPUs this process may use.

    Returns:
        SimSummary with the moments and the estimate-error statistics.
    """
    if workers < 1:
        raise ParameterError(f"workers must be >= 1, got {workers}")
    base, rem = divmod(cfg.count, cfg.partitions)
    # Partitions beyond cfg.count would get no rounds; they are not run.  The
    # others' arguments are made as each runs, so no list grows with them.
    runs = range(min(cfg.partitions, cfg.count))
    counts = (base + (1 if k < rem else 0) for k in runs)
    first_rows = (k * base + min(k, rem) for k in runs)

    with contextlib.ExitStack() as stack:
        parts = itertools.repeat(None)
        if dump_path is not None:
            dump = stack.enter_context(open(dump_path, "wb"))
            tmp = tempfile.mkdtemp(prefix=".dump-", dir=os.path.dirname(os.path.abspath(dump_path)))
            stack.callback(shutil.rmtree, tmp, ignore_errors=True)
            parts = [os.path.join(tmp, f"part{k}.csv") for k in runs]
        mapper = map
        # The pool forks all its workers at once; more than one per
        # partition or per usable CPU would sit idle.
        pool_size = min(workers, runs.stop, _usable_cpus())
        if pool_size > 1:
            # Imported here: the serial run and the other commands never need it.
            from concurrent.futures import ProcessPoolExecutor

            mapper = stack.enter_context(ProcessPoolExecutor(max_workers=pool_size)).map
        with np.errstate(over="ignore", invalid="ignore"):
            # A non-finite coefficient (a huge n0) reaches the moment check below.
            factor = _factor(cfg)
        streams = (RngStream(cfg.master_seed, k) for k in runs)
        results = mapper(_partition_sums, itertools.repeat(factor), streams, counts, first_rows, parts)
        n = cfg.count
        with np.errstate(over="ignore", invalid="ignore"):
            # Merged in partition order as each arrives, so the sum does not depend on ``workers``.
            second = sum(results) / n
            diag = np.diag(second)
            # A non-finite quadrature at any stage reaches a diagonal moment, and the
            # mutual-information estimate multiplies those pairwise; an overflow of
            # either is reported, not warned, before any row reaches the dump.
            if not np.isfinite(np.outer(diag, diag)).all():
                raise ParameterError("simulated second moments overflow")
        if dump_path is not None:
            dump.write(DUMP_HEADER.encode() + b"\n")
            for part in parts:
                with open(part, "rb") as fh:
                    shutil.copyfileobj(fh, dump)

    # Standard error of a raw second moment of a zero-mean Gaussian
    # (Isserlis): var(m_ij) = (m_ii m_jj + m_ij^2) / n.  It is taken as a
    # hypot of square roots, so tiny moments do not underflow to zero error.
    root = np.sqrt(diag)
    stderr = np.hypot(np.outer(root, root), second) / math.sqrt(n)
    # delta_hat pools the two quadratures' error variances; by the same
    # rule its variance is (m44^2 + m55^2 + 2 m45^2) / (2n).
    m44, m55, m45 = second[4, 4], second[5, 5], second[4, 5]
    delta_stderr = math.hypot(m44, m55, m45, m45) / math.sqrt(2.0 * n)
    return SimSummary(n, second[:4, :4], stderr[:4, :4], float((m44 + m55) / 2.0), delta_stderr)


def _block_mi_bits(var_a: float, var_b: float, cov: float) -> float:
    if var_a <= 0.0 or var_b <= 0.0:
        if cov == 0.0 and var_b > 0.0:
            return 0.0  # nothing was modulated; zero information
        raise DegenerateDataError("singular empirical covariance block")
    rho2 = cov * cov / (var_a * var_b)
    if rho2 >= 1.0:
        raise DegenerateDataError(f"empirical correlation {math.sqrt(rho2):.6f} is not below 1")
    return -math.log2(1.0 - rho2)


def empirical_mutual_information(summary: SimSummary) -> float:
    """Gaussian mutual information from the empirical moment matrix.

    Computed per quadrature from the (sender estimate, receiver outcome)
    covariance blocks as a log variance ratio, then averaged over the two
    quadratures; comparable to the closed-form prediction.
    """
    m = summary.moments
    mi_x = _block_mi_bits(m[0, 0], m[2, 2], m[0, 2])
    mi_p = _block_mi_bits(m[1, 1], m[3, 3], m[1, 3])
    return 0.5 * (mi_x + mi_p)


def empirical_mi_stderr(summary: SimSummary) -> float:
    """Propagated standard error of empirical_mutual_information."""
    m = summary.moments
    n = summary.count
    total = 0.0
    for i, j in ((0, 2), (1, 3)):
        if m[i, i] <= 0.0 or m[j, j] <= 0.0:
            continue
        rho2 = m[i, j] ** 2 / (m[i, i] * m[j, j])
        # sd(rho_hat) ~ (1 - rho^2) / sqrt(n); d(mi)/d(rho) = 2 rho / (ln2 (1 - rho^2))
        total += (2.0 * math.sqrt(rho2) / math.log(2.0)) ** 2 / n
    return 0.5 * math.sqrt(total)


def analytic_moments(
    params: ProtocolParams,
    det_a: DetectorModel,
    det_b: DetectorModel,
    ch: ChannelModel,
) -> np.ndarray:
    """Predicted second-moment matrix of ``(x_A, p_A, x_B, p_B)``.

    Derived from the same linear chain the simulation implements: the
    sender estimate carries the modulation plus rescaled receiver noise,
    the receiver outcome sees the attenuated modulation plus channel
    excess noise through the trusted detector.
    """
    eta_a = params.eta_a
    var_a = params.v_a + (2.0 * eta_a / det_a.eta_d) * (1.0 + det_a.v_el)
    var_b = 0.5 * det_b.eta_d * ch.t * (params.v_a + params.eps0) + 1.0 + det_b.v_el
    cov = math.sqrt(0.5 * det_b.eta_d * ch.t) * (params.v_a + 0.5 * eta_a)
    out = np.zeros((4, 4))
    out[0, 0] = out[1, 1] = var_a
    out[2, 2] = out[3, 3] = var_b
    out[0, 2] = out[2, 0] = out[1, 3] = out[3, 1] = cov
    return out

