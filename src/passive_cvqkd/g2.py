"""Photon statistics from paired-quadrature records.

The pipeline ingests raw conjugate-homodyne samples, normalizes them to
shot-noise units against a vacuum reference record, estimates the mean
photon number of a thermal input from the excess variance, and computes
the single-time second-order intensity correlation

    g2 = (<Z^2> - 4 <Z> + 2) / (<Z> - 1)^2,   Z = X^2 + P^2,

which is 2 for any zero-mean Gaussian record regardless of its variance
(so detector loss and noise do not bias it on thermal light) and tends
to 1 for strongly displaced light.  The estimator is not scale-free, so
it refuses records that have not been calibrated to SNU.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateDataError, ParameterError, RecordFormatError, UnitError
from .gaussian import DetectorModel

__all__ = [
    "CalibrationResult",
    "G2Result",
    "QuadratureRecord",
    "RecordMoments",
    "UNIT_RAW",
    "UNIT_SNU",
    "calibrate_photon_number",
    "export_histogram",
    "g2_estimate",
    "load_quadrature_records",
]

UNIT_RAW = "raw"
UNIT_SNU = "snu"

DEGENERATE_MEAN_Z_TOL = 1e-6
HISTOGRAM_BINS = 128
HISTOGRAM_SPAN_SIGMAS = 5.0
# Rows per slice wherever a record is read or reduced: the loader's
# np.loadtxt calls, the finiteness check, the variance, the moments of Z
# and the np.histogram2d calls.  Their temporaries grow with the rows of a
# slice, not of the record.
SLICE_ROWS = 1 << 14


def _slices(n: int) -> list[slice]:
    """Row slices of at most ``SLICE_ROWS`` rows that cover ``range(n)`` in order."""
    return [slice(start, min(start + SLICE_ROWS, n)) for start in range(0, n, SLICE_ROWS)]


@dataclass(frozen=True)
class RecordMoments:
    """What the photon-number calibration reads of a record: its length,
    pooled per-quadrature variance and unit."""

    n: int
    variance: float
    unit_flag: str

    def __post_init__(self):
        if self.n < 2:
            raise ParameterError(f"n must be >= 2, got {self.n}")
        if not (self.variance >= 0.0 and math.isfinite(self.variance)):
            raise ParameterError(f"variance must be finite and >= 0, got {self.variance}")
        if self.unit_flag not in (UNIT_RAW, UNIT_SNU):
            raise ParameterError(f"unit_flag must be '{UNIT_RAW}' or '{UNIT_SNU}', got {self.unit_flag!r}")

    def moments(self) -> "RecordMoments":
        return self


@dataclass
class QuadratureRecord:
    """A sequence of paired (x, p) outcomes plus calibration metadata."""

    samples: np.ndarray
    unit_flag: str = UNIT_RAW

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 2 or self.samples.shape[1] != 2:
            raise ParameterError(f"samples must have shape (n, 2), got {self.samples.shape}")
        if len(self.samples) < 2:
            raise RecordFormatError(f"need at least 2 samples, got {len(self.samples)}")
        if not all(np.isfinite(self.samples[part]).all() for part in _slices(len(self.samples))):
            raise ParameterError("samples contain NaN or Inf values")
        if self.unit_flag not in (UNIT_RAW, UNIT_SNU):
            raise ParameterError(f"unit_flag must be '{UNIT_RAW}' or '{UNIT_SNU}', got {self.unit_flag!r}")

    def __len__(self) -> int:
        return len(self.samples)

    def pooled_variance(self) -> float:
        """Per-quadrature variance about the mean, x and p pooled; one that
        overflows is a DegenerateDataError.

        Two passes over row slices of each quadrature, the mean and then
        the squared deviations, so no record-sized temporary is made.
        """
        n = len(self)
        rows = _slices(n)
        dev = np.empty(min(n, SLICE_ROWS))
        s = 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            for col in self.samples.T:
                mean = sum(float(col[part].sum()) for part in rows) / n
                squares = 0.0
                for part in rows:
                    d = np.subtract(col[part], mean, out=dev[: part.stop - part.start])
                    squares += float(np.square(d, out=d).sum())
                s += squares / (n - 1)
        s /= 2.0
        if not math.isfinite(s):
            raise DegenerateDataError("record variance overflows")
        return s

    def moments(self) -> RecordMoments:
        return RecordMoments(len(self), self.pooled_variance(), self.unit_flag)

    def in_snu(self, shot_variance: float, *, in_place: bool = False) -> "QuadratureRecord":
        """Rescale a raw record into shot-noise units.

        ``shot_variance`` is the raw-unit variance corresponding to one
        SNU, as determined by a vacuum reference.  A record that overflows
        in shot-noise units is a DegenerateDataError.  With ``in_place``
        the samples are divided where they are, so no copy is made, and
        this record must not be used again.
        """
        if self.unit_flag == UNIT_SNU:
            raise UnitError("record is already in shot-noise units")
        if not (shot_variance > 0.0 and math.isfinite(shot_variance)):
            raise ParameterError(f"shot_variance must be > 0, got {shot_variance}")
        with np.errstate(over="ignore"):
            samples = np.divide(self.samples, math.sqrt(shot_variance), out=self.samples if in_place else None)
        try:
            return replace(self, samples=samples, unit_flag=UNIT_SNU)
        except ParameterError:
            # This record's samples are finite, so the rescaling overflowed.
            raise DegenerateDataError("record overflows in shot-noise units") from None


def load_quadrature_records(
    path: str,
    columns: tuple[str, str] | None = None,
) -> QuadratureRecord:
    """Parse a CSV file of paired quadrature outcomes, in raw units.

    Format: lines end in ``\\n``, ``\\r\\n`` or ``\\r`` (and in the other
    breaks of ``str.splitlines``); lines of only whitespace are skipped.
    The first other line is a header unless every comma-separated cell
    parses as ``float``.  Without a header every row has exactly two
    cells (x, p); with one, ``columns`` names the pair to read (needed
    unless the header has exactly two names), and every row has at least
    the cells up to the rightmost selected one.  Each selected cell must
    be a finite ``float``, and at least 2 rows are needed.  Any malformed
    row aborts the load, naming its line number.  A leading UTF-8
    byte-order mark is ignored.

    Plain ASCII files are parsed by numpy's C tokenizer; when it refuses
    a file, or a file has bytes on which the tokenizer and the rules
    above could disagree, the line scanner reads it instead.  The scanner
    defines the format, names the bad lines and accepts the rare cells
    only ``float`` takes (``1_000``, say).  Either way the values are
    bit-identical and no per-row Python objects are kept on the fast path.

    Raises:
        ParameterError: ``columns`` names one column twice.
        FileNotFoundError: the file does not exist.
        RecordFormatError: non-numeric fields, wrong column counts,
            unknown column names, fewer than 2 samples, or text that is
            not UTF-8.
    """
    if columns is not None and columns[0] == columns[1]:
        raise ParameterError(f"columns must name two different columns, got {columns}")
    lines = _plain_lines(path)
    samples = None if lines is None else _load_plain(path, columns, lines)
    if samples is not None:
        try:
            return QuadratureRecord(samples, unit_flag=UNIT_RAW)
        except ParameterError:
            pass  # a cell that is not finite; the line scanner names its line
    return QuadratureRecord(_scan(path, columns), unit_flag=UNIT_RAW)


def _resolve_columns(first_line: str | None, columns: tuple[str, str] | None, path: str) -> tuple[bool, int, int]:
    """Header rule: whether the first non-blank line is a header, and the pair's indices."""
    header = None
    if first_line is not None:
        cells = [c.strip() for c in first_line.split(",")]
        if not _all_numeric(cells):
            header = cells
    if header is None:
        if columns is not None:
            raise RecordFormatError(f"{path} has no header row to resolve columns {columns}")
        return False, 0, 1
    if columns is None:
        if len(header) != 2:
            raise RecordFormatError(
                f"{path} has {len(header)} columns; pass columns=(x_name, p_name) to select a pair"
            )
        return True, 0, 1
    try:
        return True, header.index(columns[0]), header.index(columns[1])
    except ValueError:
        raise RecordFormatError(f"columns {columns} not found in header {header} of {path}") from None


# ASCII bytes that str.splitlines() breaks lines at, or that numpy strips
# from a cell and float() does not; a file with any of them, or with any
# non-ASCII byte, goes to the line scanner.
_SCANNER_ONLY = (b"\x0b", b"\x0c", b"\x1c", b"\x1d", b"\x1e", b"\x1f")


def _plain_lines(path: str) -> int | None:
    """An upper bound on the lines of ``path`` if numpy's tokenizer and the
    line scanner split it alike, else None: one more than its line breaks,
    each ``\n``, ``\r\n`` and lone ``\r`` counted once."""
    lines, after_cr = 1, False
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            if not chunk.isascii() or any(b in chunk for b in _SCANNER_ONLY):
                return None
            # numpy compares and counts the bytes ~6x faster than bytes.count
            lines += int(np.count_nonzero(np.frombuffer(chunk, np.uint8) == ord("\n")))
            if b"\r" in chunk:
                lines += chunk.count(b"\r") - chunk.count(b"\r\n")
            if after_cr and chunk.startswith(b"\n"):
                lines -= 1  # a \r\n split between two reads
            after_cr = chunk.endswith(b"\r")
    return lines


def _load_plain(path: str, columns: tuple[str, str] | None, lines: int) -> np.ndarray | None:
    """The samples of a plain ASCII file by ``np.loadtxt``, or None if it
    refuses; the record built from them checks that they are finite.

    The rows go a slice at a time into one array of ``lines`` rows, so no
    growing buffer is copied: the load takes the record plus one slice.
    """
    data = np.empty((lines, 2))
    rows = 0
    with open(path, "r", encoding="utf-8") as fh:
        first = next((line for line in iter(fh.readline, "") if line.strip()), None)
        has_header, idx_x, idx_p = _resolve_columns(first, columns, path)
        if not has_header:
            fh.seek(0)
        usecols = (idx_x, idx_p) if has_header else None
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # loadtxt warns when there are no rows
                while True:
                    part = np.loadtxt(fh, delimiter=",", comments=None, usecols=usecols, ndmin=2, max_rows=SLICE_ROWS)
                    if len(part) == 0:
                        break
                    if part.shape[1] != 2:
                        return None
                    data[rows : rows + len(part)] = part
                    rows += len(part)
        except ValueError:
            return None
    return data[:rows] if rows >= 2 else None


def _scan(path: str, columns: tuple[str, str] | None) -> np.ndarray:
    """The line scanner: the definition of the record format."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            # A leading byte-order mark is not content.  Stripped here, not by
            # "utf-8-sig", so that a decode error names its byte in the file.
            lines = fh.read().removeprefix("\ufeff").splitlines()
        except UnicodeDecodeError as exc:
            raise RecordFormatError(f"{path}: not UTF-8 text (byte {exc.start})") from None

    first_idx = next((i for i, line in enumerate(lines) if line.strip()), None)
    has_header, idx_x, idx_p = _resolve_columns(None if first_idx is None else lines[first_idx], columns, path)
    start = first_idx + 1 if has_header else 0

    needed = max(idx_x, idx_p) + 1
    rows: list[tuple[float, float]] = []
    bad: list[int] = []
    for lineno, line in enumerate(lines[start:], start=start + 1):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) < needed or (not has_header and len(cells) != 2):
            bad.append(lineno)
            continue
        try:
            x, p = float(cells[idx_x]), float(cells[idx_p])
        except ValueError:
            bad.append(lineno)
            continue
        if not (math.isfinite(x) and math.isfinite(p)):
            bad.append(lineno)
            continue
        rows.append((x, p))

    if bad:
        shown = ", ".join(str(n) for n in bad[:20])
        more = "" if len(bad) <= 20 else f" (+{len(bad) - 20} more)"
        raise RecordFormatError(f"{path}: malformed rows at lines {shown}{more}", lines=bad)
    if len(rows) < 2:
        raise RecordFormatError(f"{path}: need at least 2 samples, got {len(rows)}")
    return np.array(rows)


def _all_numeric(cells: list[str]) -> bool:
    try:
        for c in cells:
            float(c)
    except ValueError:
        return False
    return True


@dataclass(frozen=True)
class CalibrationResult:
    """Photon-number calibration of a thermal record against vacuum."""

    n_hat: float
    stderr: float
    shot_variance: float  # raw-unit variance per SNU
    thermal_variance: float
    vacuum_variance: float


def calibrate_photon_number(
    thermal: QuadratureRecord | RecordMoments,
    vacuum: QuadratureRecord | RecordMoments,
    det: DetectorModel,
) -> CalibrationResult:
    """Mean photon number of a thermal record, normalized to vacuum noise.

    With ``s_th`` and ``s_vac`` the measured per-quadrature variances and
    ``sigma^2 = s_vac / (1 + v_el)`` the raw-unit shot-noise scale, the
    conjugate-homodyne variance law gives

        n_hat = (s_th - s_vac) / (sigma^2 * eta_d).

    Either record may be given as its ``RecordMoments``: the calibration
    reads only the length, the pooled variance and the unit.

    Raises:
        UnitError: records are not in the same units.
        DegenerateDataError: thermal variance below the vacuum reference,
            an overflow, or a shot-noise scale that underflows to 0.
    """
    if thermal.unit_flag != vacuum.unit_flag:
        raise UnitError(
            f"unit mismatch: thermal is {thermal.unit_flag!r}, vacuum is {vacuum.unit_flag!r}"
        )
    thermal, vacuum = thermal.moments(), vacuum.moments()
    s_th, s_vac = thermal.variance, vacuum.variance
    if s_vac <= 0.0:
        raise DegenerateDataError("vacuum record has zero variance")
    if s_th < s_vac:
        raise DegenerateDataError(
            f"thermal variance {s_th:.6g} is below the vacuum reference {s_vac:.6g}"
        )
    shot = s_vac / (1.0 + det.v_el)
    if shot <= 0.0:
        raise DegenerateDataError(f"shot-noise scale s_vac / (1 + v_el) underflows to 0 at v_el = {det.v_el:g}")
    k = (1.0 + det.v_el) / det.eta_d
    n_hat = k * (s_th / s_vac - 1.0)

    # Delta method on the two independent pooled variances; each has
    # var(s_hat) = 2 s^2 / dof = s^2 / (n - 1) for Gaussian data (two
    # quadratures pooled), so the relative errors add in quadrature.
    stderr = k * (s_th / s_vac) * math.sqrt(1.0 / (thermal.n - 1) + 1.0 / (vacuum.n - 1))
    if not math.isfinite(stderr):
        raise DegenerateDataError("photon-number estimate overflows")
    return CalibrationResult(
        n_hat=n_hat,
        stderr=stderr,
        shot_variance=shot,
        thermal_variance=s_th,
        vacuum_variance=s_vac,
    )


@dataclass(frozen=True)
class G2Result:
    """Second-order correlation estimate with its delta-method standard error."""

    g2: float
    mean_z: float
    mean_z2: float
    stderr: float


def g2_estimate(
    record: QuadratureRecord,
    min_samples: int = 10_000,
    rng: int = 0,
) -> G2Result:
    """Second-order intensity correlation from calibrated samples.

    Moments of ``Z = X^2 + P^2`` are taken about zero (displacement is
    part of the statistic, not an offset to remove):
    ``g2 = h(m1, m2) = (m2 - 4 m1 + 2) / (m1 - 1)^2`` with ``m1`` and
    ``m2`` the means of ``Z`` and ``Z^2``.  The standard error is the
    first-order delta method (Casella & Berger, *Statistical Inference*,
    2nd ed., 5.5.4) in ``mu = m1`` and the central moments
    ``c_k = mean (Z - mu)^k``:

        se^2 = (a^2 c2 + 2 a b c3 + b^2 (c4 - c2^2)) / n,
        a = 2 (mu - c2) / (mu - 1)^3,   b = 1 / (mu - 1)^2.

    Args:
        record: SNU-calibrated record (raw records are refused, the
            estimator is not scale invariant).
        min_samples: required record length.
        rng: ignored; the estimate draws nothing.  Kept so that callers
            that pass a seed keep working.

    Raises:
        UnitError: the record is not calibrated to SNU.
        DegenerateDataError: the mean of Z is too close to 1, or the
            moments of Z overflow.
    """
    if record.unit_flag != UNIT_SNU:
        raise UnitError("g2 requires an SNU-calibrated record; calibrate against vacuum first")
    n = len(record)
    if n < min_samples:
        raise ParameterError(f"g2 needs at least {min_samples} samples, got {n}")

    # Two passes over row slices, each forming Z a slice at a time in two
    # reused buffers: the power sums of Z about zero, then the central
    # moments.  Z^2 of a record near the float limits overflows; that is
    # reported, not warned.
    rows = _slices(n)
    x, p = record.samples.T
    z = np.empty(min(n, SLICE_ROWS))
    tmp = np.empty_like(z)

    def z_of(part: slice) -> np.ndarray:
        zs = np.square(x[part], out=z[: part.stop - part.start])
        zs += np.square(p[part], out=tmp[: len(zs)])
        return zs

    with np.errstate(over="ignore", invalid="ignore"):
        s1 = s2 = 0.0
        for part in rows:
            zs = z_of(part)
            s1 += float(zs.sum())
            s2 += float(np.square(zs, out=tmp[: len(zs)]).sum())
        mu, mean_z2 = s1 / n, s2 / n
        u = mu - 1.0
        if abs(u) < DEGENERATE_MEAN_Z_TOL:
            raise DegenerateDataError(
                f"mean of Z is {mu:.9f}, within {DEGENERATE_MEAN_Z_TOL:g} of 1; g2 is undefined"
            )
        g2 = (mean_z2 - 4.0 * mu + 2.0) / (u * u)

        # The central moments in units of mu - 1, k_j = c_j / u^j: as Z >= 0,
        # |Z - mu| <= n mu, so their fourth powers stay in range wherever Z^2
        # does.  In them, with alpha = a u, se^2 = (alpha^2 k2 + 2 alpha k3
        # + k4 - k2^2) / n.
        sums = [0.0, 0.0, 0.0]
        for part in rows:
            d = z_of(part)
            d -= mu
            d /= u
            d2 = np.square(d, out=tmp[: len(d)])
            sums[0] += float(d2.sum())
            sums[1] += float(np.multiply(d, d2, out=d).sum())
            sums[2] += float(np.square(d2, out=d2).sum())
        k2, k3, k4 = (s / n for s in sums)
        alpha = 2.0 * (mu / u / u - k2)
        # The bracket is the mean square of alpha d + d^2 - k2 over the
        # record, d = (Z - mu) / u, so it is >= 0 but for rounding.
        stderr = math.sqrt(max(alpha * alpha * k2 + 2.0 * alpha * k3 + k4 - k2 * k2, 0.0) / n)
    if not (math.isfinite(g2) and math.isfinite(stderr)):
        raise DegenerateDataError("g2 overflows: Z^2 exceeds the float range")
    return G2Result(g2=g2, mean_z=mu, mean_z2=mean_z2, stderr=stderr)


def export_histogram(
    record: QuadratureRecord,
    path: str | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fixed-binning 2-D histogram of a record, optionally written as CSV.

    ``HISTOGRAM_BINS`` bins per axis span a symmetric range,
    ``HISTOGRAM_SPAN_SIGMAS`` standard deviations of the pooled
    per-quadrature spread on each side of zero.  The CSV carries
    one row per bin with the bin-center coordinates: ``bin_x,bin_p,count``.

    Returns:
        ``(counts, x_edges, p_edges)`` with counts shaped
        ``(HISTOGRAM_BINS, HISTOGRAM_BINS)``.
    """
    s = record.pooled_variance()
    if s <= 0.0:
        raise DegenerateDataError("record has zero spread; histogram range is empty")
    half = HISTOGRAM_SPAN_SIGMAS * math.sqrt(s)
    # Every slice has the same edges, so the summed counts are those of
    # one call over the whole record, without its record-sized temporaries.
    counts = np.zeros((HISTOGRAM_BINS, HISTOGRAM_BINS))
    for part in _slices(len(record)):
        x, p = record.samples[part].T
        c, x_edges, p_edges = np.histogram2d(x, p, bins=HISTOGRAM_BINS, range=[[-half, half], [-half, half]])
        counts += c
    counts = counts.astype(np.int64)
    if path is not None:
        # Each bin center is formatted once, not once per line.
        x_centers = [f"{c:.9g}," for c in 0.5 * (x_edges[:-1] + x_edges[1:])]
        p_centers = [f"{c:.9g}," for c in 0.5 * (p_edges[:-1] + p_edges[1:])]
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("bin_x,bin_p,count\n")
            for xc, row in zip(x_centers, counts.tolist()):
                fh.write("".join(f"{xc}{pc}{count}\n" for pc, count in zip(p_centers, row)))
    return counts, x_edges, p_edges
