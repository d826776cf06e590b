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

import codecs
import copy
import itertools
import math
import tempfile
import weakref
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np
import orjson

from .errors import DegenerateDataError, ParameterError, RecordFormatError, UnitError
from .gaussian import DetectorModel

__all__ = [
    "CalibrationResult",
    "G2Result",
    "QuadratureRecord",
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
# Rows per slice wherever a record is read or reduced: the finiteness
# checks, the variance, the moments of Z and the histogram's bins.
# Their temporaries grow with the rows of a slice, not of the record.
SLICE_ROWS = 1 << 14
# Bytes per read of a record file's raw text; the loader converts and
# spills the rows of one read at a time.
_READ_BYTES = 1 << 16
# Malformed lines a load error names; the rest are only counted.
_SHOWN_BAD = 20


def _slices(n: int) -> list[slice]:
    """Row slices of at most ``SLICE_ROWS`` rows that cover ``range(n)`` in order."""
    return [slice(start, min(start + SLICE_ROWS, n)) for start in range(0, n, SLICE_ROWS)]


class _Spill:
    """(x, p) rows as float64 pairs, 16 bytes a row, in an anonymous
    temporary file: unlinked as it is made, closed when the spill is
    collected."""

    def __init__(self):
        self._fh = tempfile.TemporaryFile()
        weakref.finalize(self, self._fh.close)
        self._rows = 0

    def __len__(self) -> int:
        return self._rows

    def append(self, rows: np.ndarray) -> None:
        """Write a C-contiguous ``(k, 2)`` float64 array after the rows already spilled."""
        self._fh.write(rows)
        self._rows += len(rows)

    def slices(self) -> Iterator[np.ndarray]:
        """The rows, ``SLICE_ROWS`` at a time, read into one reused buffer."""
        buf = np.empty((min(self._rows, SLICE_ROWS), 2))
        for rows in _slices(self._rows):
            part = buf[: rows.stop - rows.start]
            self._fh.seek(16 * rows.start)
            if self._fh.readinto(part) != part.nbytes:
                raise OSError(f"temporary record file ends before row {rows.stop}")
            yield part


class QuadratureRecord:
    """A sequence of paired (x, p) outcomes plus calibration metadata.

    The samples are an ``(n, 2)`` array in memory, or the rows that
    ``load_quadrature_records`` spilled to a temporary file.  Every
    reduction reads them through ``slices()``, so the two give the same
    values bit for bit, and a spilled record is never held in memory.
    """

    def __init__(self, samples: np.ndarray | _Spill, unit_flag: str = UNIT_RAW):
        if not isinstance(samples, _Spill):  # the loader checks what it spills
            samples = np.asarray(samples, dtype=np.float64)
            if samples.ndim != 2 or samples.shape[1] != 2:
                raise ParameterError(f"samples must have shape (n, 2), got {samples.shape}")
            if len(samples) < 2:
                raise RecordFormatError(f"need at least 2 samples, got {len(samples)}")
            if not all(np.isfinite(samples[part]).all() for part in _slices(len(samples))):
                raise ParameterError("samples contain NaN or Inf values")
        if unit_flag not in (UNIT_RAW, UNIT_SNU):
            raise ParameterError(f"unit_flag must be '{UNIT_RAW}' or '{UNIT_SNU}', got {unit_flag!r}")
        self._source = samples
        self._divisor: float | None = None  # set by in_snu
        self.unit_flag = unit_flag

    def __len__(self) -> int:
        return len(self._source)

    def slices(self) -> Iterator[np.ndarray]:
        """The samples in the record's units, ``SLICE_ROWS`` rows at a time,
        in order.  Each slice may be overwritten once the next is drawn."""
        if isinstance(self._source, _Spill):
            parts = self._source.slices()
        else:
            parts = (self._source[rows] for rows in _slices(len(self)))
        if self._divisor is None:
            yield from parts
            return
        out = np.empty((min(len(self), SLICE_ROWS), 2))
        for part in parts:
            yield np.divide(part, self._divisor, out=out[: len(part)])

    @property
    def samples(self) -> np.ndarray:
        """The samples in the record's units as one ``(n, 2)`` array: the
        array itself for an unscaled in-memory record, else a new one."""
        if self._divisor is None and not isinstance(self._source, _Spill):
            return self._source
        out = np.empty((len(self), 2))
        for rows, part in zip(_slices(len(self)), self.slices()):
            out[rows] = part
        return out

    def pooled_variance(self) -> float:
        """Per-quadrature variance about the mean, x and p pooled; one that
        overflows is a DegenerateDataError.

        Two passes over the slices for each quadrature, the mean and then
        the squared deviations, so no record-sized temporary is made.
        """
        n = len(self)
        dev = np.empty(min(n, SLICE_ROWS))
        s = 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            for col in (0, 1):
                mean = sum(float(part[:, col].sum()) for part in self.slices()) / n
                squares = 0.0
                for part in self.slices():
                    d = np.subtract(part[:, col], mean, out=dev[: len(part)])
                    squares += float(np.square(d, out=d).sum())
                s += squares / (n - 1)
        s /= 2.0
        if not math.isfinite(s):
            raise DegenerateDataError("record variance overflows")
        return s

    def in_snu(self, shot_variance: float) -> "QuadratureRecord":
        """Rescale a raw record into shot-noise units.

        ``shot_variance`` is the raw-unit variance corresponding to one
        SNU, as determined by a vacuum reference.  The new record shares
        this one's samples and divides each slice as it is read; one that
        overflows in shot-noise units is a DegenerateDataError.
        """
        if self.unit_flag == UNIT_SNU:
            raise UnitError("record is already in shot-noise units")
        if not (shot_variance > 0.0 and math.isfinite(shot_variance)):
            raise ParameterError(f"shot_variance must be > 0, got {shot_variance}")
        snu = copy.copy(self)
        snu.unit_flag, snu._divisor = UNIT_SNU, math.sqrt(shot_variance)
        with np.errstate(over="ignore"):
            if not all(np.isfinite(part).all() for part in snu.slices()):
                # This record's samples are finite, so the rescaling overflowed.
                raise DegenerateDataError("record overflows in shot-noise units")
        return snu


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

    The file is opened once and its text read once, 64 KiB at a time, so
    ``path`` may be a pipe.  orjson's compiled number parser, which gives
    ``float``'s bits, converts each read whose text holds only digits,
    ``.eE+-``, spaces, tabs and commas, whose every non-empty line has the
    header's cell count (2 without a header) in at most 768 characters,
    and whose selected cells orjson reads as finite floats.  Any other
    read, and every read after a malformed line, go by the rules above,
    line by line: a read with an integer such as ``1`` or ``-0`` in the
    pair (orjson reads ``-0`` as +0), a cell such as ``+1``, ``.5``,
    ``5.``, ``01`` or ``1_000`` that only ``float`` takes, or a ragged,
    whitespace-only or longer line.  The line rules name the bad lines,
    and either way the values are bit-identical.
    Each read's rows go into an anonymous temporary file of 16 bytes a
    row, which backs the returned record, so a load holds one read of
    text and its rows at any record length.

    Raises:
        ParameterError: ``columns`` names one column twice.
        FileNotFoundError: the file does not exist.
        OSError: the temporary file cannot be written.
        RecordFormatError: non-numeric fields, wrong column counts,
            unknown column names, fewer than 2 samples, or text that is
            not UTF-8.
    """
    if columns is not None and columns[0] == columns[1]:
        raise ParameterError(f"columns must name two different columns, got {columns}")
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


# The line breaks of str.splitlines().
_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


def _text_lines(path: str) -> Iterator[tuple[int, list[str]]]:
    """The lines of ``path``, as ``str.splitlines`` splits its whole UTF-8
    text with a leading byte-order mark removed, decoded ``_READ_BYTES`` at
    a time.  For each read: the number of its first line, and its lines."""
    decoder = codecs.getincrementaldecoder("utf-8")()
    offset, carry, lineno, at_start = 0, "", 1, True
    with open(path, "rb") as fh:
        while True:
            chunk = fh.read(_READ_BYTES)
            held = len(decoder.getstate()[0])  # bytes of a character split by the last read
            try:
                text = decoder.decode(chunk, final=not chunk)
            except UnicodeDecodeError as exc:
                raise RecordFormatError(f"{path}: not UTF-8 text (byte {offset - held + exc.start})") from None
            if at_start and text:
                # A leading byte-order mark is not content.  Stripped here, not by
                # "utf-8-sig", so that a decode error names its byte in the file.
                text, at_start = text.removeprefix("\ufeff"), False
            offset += len(chunk)
            text = carry + text
            lines = text.splitlines()
            # Before the end of the file, the last line goes on in the next
            # read unless it ended in a break, and one that ended in a \r may
            # yet end in a \r\n.
            carry = ""
            if chunk and lines and text[-1] not in _BREAKS:
                carry = lines.pop()
            elif chunk and text.endswith("\r"):
                carry = lines.pop() + "\r"
            yield lineno, lines
            lineno += len(lines)
            if not chunk:
                return


# The bytes of a cell that orjson converts: JSON's number grammar and the
# spaces and tabs that float() strips too.  Then each of orjson's values is
# one cell, and a null one of the separators that _convert puts in.
_CELL_BYTES = b"0123456789.eE+- \t,"
# orjson 3.8 keeps a number's first 768 significant digits, and reads one
# that is exactly halfway between two floats there and has only zeros after
# them as above halfway: the midpoint of 0 and 5e-324 with 17 more zeros
# reads as 5e-324, where float() reads 0.0.  No shorter line holds one.
_LONGEST_LINE = 768


def _convert(lines: list[str], width: int, ix: int, ip: int) -> np.ndarray | None:
    """orjson's conversion of a read's lines of ``width`` cells to ``(k, 2)``
    rows of cells ``ix`` and ``ip``; None unless each non-empty line holds
    ``width`` cells of ``_CELL_BYTES`` in at most ``_LONGEST_LINE``
    characters, and its pair are finite floats."""
    if "" in lines:
        lines = [line for line in lines if line]
    if max(map(len, lines), default=0) > _LONGEST_LINE:
        return None
    n = len(lines)
    text = ("[" + ",null,".join(lines) + "]").encode()
    if text.translate(None, _CELL_BYTES) != b"[" + b"null" * (n - 1) + b"]":
        return None
    try:
        cells = orjson.loads(text)
    except orjson.JSONDecodeError:
        return None
    step = width + 1
    if len(cells) != step * n - 1 or cells[width::step].count(None) != n - 1:
        return None  # a line of another width
    x, p = cells[ix::step], cells[ip::step]
    # orjson reads an integer as an int, and -0 as 0, not float's -0.0.
    if not (all(map(float.__instancecheck__, x)) and all(map(float.__instancecheck__, p))):
        return None
    rows = np.empty((n, 2))
    rows[:, 0], rows[:, 1] = np.fromiter(x, float, n), np.fromiter(p, float, n)
    return rows if np.isfinite(rows).all() else None


def _scan(path: str, columns: tuple[str, str] | None) -> _Spill:
    """The one pass over a record's text: the header rule, then orjson's
    conversion of each read that ``_convert`` accepts and the line rules
    for any other.  It holds one read of text and its rows, and counts
    every bad line but keeps the numbers of only the first ``_SHOWN_BAD``."""
    reads = _text_lines(path)  # it yields at least one read
    first = None
    for start, lines in reads:
        first = next((i for i, line in enumerate(lines) if line.strip()), None)
        if first is not None:
            break
    try:
        has_header, idx_x, idx_p = _resolve_columns(None if first is None else lines[first], columns, path)
    except RecordFormatError:
        for _ in reads:
            pass  # text that is not UTF-8 is reported first, wherever it is
        raise
    skip = (first or 0) + has_header
    needed = max(idx_x, idx_p) + 1
    width = len(lines[first].split(",")) if has_header else 2
    spill = _Spill()
    bad: list[int] = []  # the first _SHOWN_BAD bad lines
    n_bad = 0

    def by_rules(lines: list[str], start: int) -> np.ndarray:
        """The rows of one read by the line rules, counting its bad lines.
        A small function of its own because tracemalloc, which the memory
        tests run, looks up each allocation's line number in time that
        grows with its offset in the function's bytecode."""
        nonlocal n_bad
        rows: list[float] = []  # x, p, x, p, ...
        for lineno, line in enumerate(lines, start):
            if not line.strip():
                continue
            cells = line.split(",")
            ok = len(cells) >= needed and (has_header or len(cells) == 2)
            if ok:
                try:
                    x, p = float(cells[idx_x]), float(cells[idx_p])
                except ValueError:
                    ok = False
                else:
                    ok = math.isfinite(x) and math.isfinite(p)
            if not ok:
                n_bad += 1
                if n_bad <= _SHOWN_BAD:
                    bad.append(lineno)
            elif not n_bad:  # after a bad line no row is kept
                rows.append(x)
                rows.append(p)
        return np.array(rows).reshape(-1, 2)

    # chain() holds its arguments to the end; an exhausted iter() lets go of the first read.
    for start, lines in itertools.chain(iter([(start + skip, lines[skip:])]), reads):
        part = _convert(lines, width, idx_x, idx_p) if not n_bad else None
        if part is None:
            part = by_rules(lines, start)
        if not n_bad:
            spill.append(part)

    if n_bad:
        shown = ", ".join(map(str, bad))
        more = "" if n_bad <= _SHOWN_BAD else f" (+{n_bad - _SHOWN_BAD} more)"
        raise RecordFormatError(f"{path}: malformed rows at lines {shown}{more}", lines=bad, count=n_bad)
    if len(spill) < 2:
        raise RecordFormatError(f"{path}: need at least 2 samples, got {len(spill)}")
    return spill


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
    thermal: QuadratureRecord,
    vacuum: QuadratureRecord,
    det: DetectorModel,
) -> CalibrationResult:
    """Mean photon number of a thermal record, normalized to vacuum noise.

    With ``s_th`` and ``s_vac`` the measured per-quadrature variances and
    ``sigma^2 = s_vac / (1 + v_el)`` the raw-unit shot-noise scale, the
    conjugate-homodyne variance law gives

        n_hat = (s_th - s_vac) / (sigma^2 * eta_d).

    Raises:
        UnitError: records are not in the same units.
        DegenerateDataError: thermal variance below the vacuum reference,
            an overflow, or a shot-noise scale that underflows to 0.
    """
    if thermal.unit_flag != vacuum.unit_flag:
        raise UnitError(
            f"unit mismatch: thermal is {thermal.unit_flag!r}, vacuum is {vacuum.unit_flag!r}"
        )
    s_th, s_vac = thermal.pooled_variance(), vacuum.pooled_variance()
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
    stderr = k * (s_th / s_vac) * math.sqrt(1.0 / (len(thermal) - 1) + 1.0 / (len(vacuum) - 1))
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

    # Two passes over the record's slices, each forming Z a slice at a time
    # in two reused buffers: the power sums of Z about zero, then the
    # central moments.  Z^2 of a record near the float limits overflows;
    # that is reported, not warned.
    z = np.empty(min(n, SLICE_ROWS))
    tmp = np.empty_like(z)

    def z_of(part: np.ndarray) -> np.ndarray:
        zs = np.square(part[:, 0], out=z[: len(part)])
        zs += np.square(part[:, 1], out=tmp[: len(zs)])
        return zs

    with np.errstate(over="ignore", invalid="ignore"):
        s1 = s2 = 0.0
        for part in record.slices():
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
        for part in record.slices():
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
    # np.histogram2d's edges and bins, as np.histogram finds uniform bins:
    # scale and floor, then correct by one bin against the edges.  The last
    # bin holds the upper edge.  The counts of the slices add up to those
    # of one call over the whole record.
    edges = np.linspace(-half, half, HISTOGRAM_BINS + 1)
    scale = HISTOGRAM_BINS / (2.0 * half)
    last = HISTOGRAM_BINS - 1

    def bins(v: np.ndarray) -> np.ndarray:
        i = np.minimum(((v + half) * scale).astype(np.intp), last)
        i -= v < edges[i]
        i += (v >= edges[i + 1]) & (i < last)
        return i

    counts = np.zeros(HISTOGRAM_BINS * HISTOGRAM_BINS, dtype=np.int64)
    for part in record.slices():
        x, p = part[:, 0], part[:, 1]
        inside = (x >= -half) & (x <= half) & (p >= -half) & (p <= half)
        if not inside.all():
            x, p = x[inside], p[inside]
        counts += np.bincount(bins(x) * HISTOGRAM_BINS + bins(p), minlength=counts.size)
    counts = counts.reshape(HISTOGRAM_BINS, HISTOGRAM_BINS)
    if path is not None:
        # Each bin center is formatted once, not once per line; x and p share them.
        centers = [f"{c:.9g}," for c in 0.5 * (edges[:-1] + edges[1:])]
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("bin_x,bin_p,count\n")
            for xc, row in zip(centers, counts.tolist()):
                fh.write("".join(f"{xc}{pc}{count}\n" for pc, count in zip(centers, row)))
    return counts, edges, edges.copy()
