"""Record ingestion, photon-number calibration, and the g2 estimator."""

import math
import os
import struct
import tempfile
import tracemalloc
from decimal import Decimal, localcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import displaced_gaussian_g2, g2_stderr_mp, pooled_variance_mp
from passive_cvqkd import (
    DegenerateDataError,
    DetectorModel,
    ParameterError,
    QuadratureRecord,
    RecordFormatError,
    RngStream,
    UnitError,
    calibrate_photon_number,
    export_histogram,
    g2_estimate,
    load_quadrature_records,
)
from passive_cvqkd import g2
from passive_cvqkd.cli import EXIT_DATA, main
from passive_cvqkd.g2 import HISTOGRAM_BINS, HISTOGRAM_SPAN_SIGMAS, SLICE_ROWS, UNIT_SNU
from synthetic import heterodyne_measure, sample_thermal_quadratures

IV_DET = DetectorModel(0.5, 0.35)


def spilled(record):
    """The record with its samples in a temporary file, as the loader leaves them."""
    spill = g2._Spill()
    for part in record.slices():
        spill.append(np.ascontiguousarray(part))
    return QuadratureRecord(spill, record.unit_flag)


def synthetic_records(n_mean, det, count, seed, scale=1.0):
    """Measured thermal and vacuum records, optionally in scaled raw units."""
    thermal = heterodyne_measure(
        sample_thermal_quadratures(n_mean, count, RngStream(seed, 0)), det, RngStream(seed, 1)
    )
    vacuum = heterodyne_measure(
        sample_thermal_quadratures(0.0, count, RngStream(seed, 2)), det, RngStream(seed, 3)
    )
    return (
        QuadratureRecord(thermal * scale),
        QuadratureRecord(vacuum * scale),
    )


class TestLoader:
    def test_two_row_file(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("0.5,-1.5\n2.0,3.0\n")
        record = load_quadrature_records(str(path))
        assert len(record) == 2
        assert record.unit_flag == "raw"
        assert np.array_equal(record.samples, [[0.5, -1.5], [2.0, 3.0]])

    def test_header_is_detected(self, tmp_path):
        path = tmp_path / "with_header.csv"
        path.write_text("x,p\n1.0,2.0\n3.0,4.0\n")
        record = load_quadrature_records(str(path))
        assert len(record) == 2

    def test_malformed_row_reports_line_number(self, tmp_path):
        rows = ["x,p"] + [f"{i}.0,{i}.5" for i in range(100)]
        rows[57] = "3.0,oops"
        path = tmp_path / "bad.csv"
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(RecordFormatError) as err:
            load_quadrature_records(str(path))
        assert err.value.lines == [58]
        assert "58" in str(err.value)

    def test_many_malformed_rows_keep_twenty_line_numbers_and_a_count(self, tmp_path):
        # The error names the first 20 bad lines and counts the rest, so the
        # scanner's memory does not grow with the bad rows.  Both files span
        # several reads of text, so they hold the same text at a time.
        shown = ", ".join(str(n) for n in range(2, 22))
        peaks = []
        for n in (20_000, 200_000):
            path = tmp_path / f"bad-{n}.csv"
            path.write_text("x,p\n" + "1.0,oops\n" * n)
            assert path.stat().st_size > 2 * g2._READ_BYTES
            if not peaks:
                with pytest.raises(RecordFormatError):
                    load_quadrature_records(str(path))  # first-call caches are not the scanner's
            tracemalloc.start()
            try:
                with pytest.raises(RecordFormatError) as err:
                    load_quadrature_records(str(path))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert err.value.lines == list(range(2, 22))
            assert err.value.count == n
            assert str(err.value) == f"{path}: malformed rows at lines {shown} (+{n - 20} more)"
        assert peaks[1] < 1.25 * peaks[0]

    def test_wrong_column_count_is_malformed(self, tmp_path):
        path = tmp_path / "cols.csv"
        path.write_text("1.0,2.0\n1.0,2.0,3.0\n4.0,5.0\n")
        with pytest.raises(RecordFormatError) as err:
            load_quadrature_records(str(path))
        assert err.value.lines == [2]

    def test_missing_file(self):
        with pytest.raises(FileNotFoundError):
            load_quadrature_records("/nonexistent/place/data.csv")

    def test_too_few_samples(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("1.0,2.0\n")
        with pytest.raises(RecordFormatError):
            load_quadrature_records(str(path))

    def test_column_selection_requires_header(self, tmp_path):
        path = tmp_path / "nohdr.csv"
        path.write_text("1.0,2.0\n3.0,4.0\n")
        with pytest.raises(RecordFormatError):
            load_quadrature_records(str(path), columns=("xA", "pA"))

    def test_one_column_named_twice_is_refused_before_the_file_is_read(self, tmp_path):
        with pytest.raises(ParameterError, match="columns must name two different columns"):
            load_quadrature_records(str(tmp_path / "never-read.csv"), columns=("xB", "xB"))

    def test_unknown_column_names(self, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text("a,b\n1.0,2.0\n3.0,4.0\n")
        with pytest.raises(RecordFormatError):
            load_quadrature_records(str(path), columns=("xA", "pA"))

    def test_text_that_is_not_utf8_is_a_format_error(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"x,p\n1.0,2.0\n3.0,\xff4.0\n")
        with pytest.raises(RecordFormatError, match="not UTF-8"):
            load_quadrature_records(str(path))

    def test_non_finite_values_are_malformed(self, tmp_path):
        path = tmp_path / "inf.csv"
        path.write_text("1.0,2.0\ninf,0.0\n3.0,4.0\n")
        with pytest.raises(RecordFormatError) as err:
            load_quadrature_records(str(path))
        assert err.value.lines == [2]

    def test_byte_order_mark_is_not_a_header(self, tmp_path):
        rows = "".join(f"{i}.25,{-i}.5\n" for i in range(50))
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(rows)
        marked.write_bytes(b"\xef\xbb\xbf" + rows.encode())
        got = load_quadrature_records(str(marked)).samples
        assert got.shape == (50, 2)
        assert got.tobytes() == load_quadrature_records(str(plain)).samples.tobytes()

    def test_byte_order_mark_before_a_header_resolves_columns(self, tmp_path):
        path = tmp_path / "marked.csv"
        path.write_bytes("\ufeffx,p\n1.0,2.0\n3.0,4.0\n".encode())
        record = load_quadrature_records(str(path), columns=("x", "p"))
        assert np.array_equal(record.samples, [[1.0, 2.0], [3.0, 4.0]])

    def test_decode_error_names_its_byte_in_a_file_with_a_byte_order_mark(self, tmp_path):
        path = tmp_path / "marked.csv"
        path.write_bytes(b"\xef\xbb\xbfx,p\n1,\xff2\n")
        with pytest.raises(RecordFormatError, match=r"not UTF-8 text \(byte 9\)"):
            load_quadrature_records(str(path))

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_plain_file_of_several_slices_loads_without_the_line_scanner(self, tmp_path, monkeypatch, end):
        # orjson converts every read of a plain file, whatever its line
        # breaks; a bad row in a later slice goes by the line rules, which
        # name its line in the whole file.
        rows = RngStream(84).generator().standard_normal((2 * SLICE_ROWS + 5, 2))
        lines = ["x,p"] + [f"{x!r},{p!r}" for x, p in rows.tolist()]
        lines.insert(SLICE_ROWS, "")
        path = tmp_path / "long.csv"
        path.write_bytes(end.join(lines).encode())
        converted = []
        convert = g2._convert
        with monkeypatch.context() as m:
            m.setattr(g2, "_convert", lambda *args: converted.append(convert(*args)) or converted[-1])
            assert load_quadrature_records(str(path)).samples.tobytes() == rows.tobytes()
        assert len(converted) > path.stat().st_size // g2._READ_BYTES
        assert all(part is not None for part in converted)
        lines[2 * SLICE_ROWS] = "1.0,oops"
        path.write_bytes(end.join(lines).encode())
        with pytest.raises(RecordFormatError) as err:
            load_quadrature_records(str(path))
        assert err.value.lines == [2 * SLICE_ROWS + 1]


    @pytest.mark.parametrize("kind", ["ascii", "byte-order-mark", "bad-row-in-the-third-slice"])
    def test_each_file_is_opened_once_per_load(self, tmp_path, monkeypatch, kind):
        # The text is read once, so a record may be a pipe.
        rows = RngStream(85).generator().standard_normal((3 * SLICE_ROWS, 2))
        lines = ["x,p"] + [f"{x!r},{p!r}" for x, p in rows.tolist()]
        if kind == "bad-row-in-the-third-slice":
            lines[2 * SLICE_ROWS + 10] = "1.0,oops"
        path = tmp_path / "records.csv"
        path.write_text("\ufeff" * (kind == "byte-order-mark") + "\n".join(lines) + "\n", encoding="utf-8")
        opened = []
        monkeypatch.setattr(g2, "open", lambda *args, **kw: opened.append(args[0]) or open(*args, **kw), raising=False)
        try:
            assert load_quadrature_records(str(path)).samples.tobytes() == rows.tobytes()
        except RecordFormatError as exc:
            assert kind == "bad-row-in-the-third-slice" and exc.lines == [2 * SLICE_ROWS + 11]
        assert opened == [str(path)]

    @pytest.mark.parametrize("end", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
    @pytest.mark.parametrize("prefix", [b"", b"\xef\xbb\xbf"], ids=["ascii", "byte-order-mark"])
    def test_line_break_split_between_two_reads_is_one_break(self, tmp_path, end, prefix):
        # The text is read 64 KiB at a time, and the header's line break starts
        # on the last byte of the first read: a \r\n is split between two
        # reads.  Counted as two breaks, it would shift every line number.
        header = prefix + b"x,p".ljust(g2._READ_BYTES - 1 - len(prefix))
        rows = [b"%d.0,2.0" % i for i in range(1000)]
        path = tmp_path / "breaks.csv"
        path.write_bytes(header + end + end.join(rows) + end)
        assert load_quadrature_records(str(path)).samples.tolist() == [[float(i), 2.0] for i in range(1000)]
        rows[500] = b"1.0,oops"
        path.write_bytes(header + end + end.join(rows) + end)
        with pytest.raises(RecordFormatError) as err:
            load_quadrature_records(str(path))
        assert err.value.lines == [502]

    @pytest.mark.parametrize("byte", ["\x0c", "\x1f", "\xa0"], ids=["form-feed", "unit-separator", "no-break-space"])
    def test_a_byte_only_the_scanner_reads_right_after_the_first_slice(self, tmp_path, byte):
        # The byte sits in the third slice and past the first read of text,
        # and the read that holds it goes by the line rules: a form feed
        # ends its line, float() refuses a unit separator, and it strips a
        # no-break space.
        rows = RngStream(89).generator().standard_normal((3 * SLICE_ROWS, 2))
        lines = ["x,p"] + [f"{x!r},{p!r}" for x, p in rows.tolist()]
        lines[2 * SLICE_ROWS + 7] += byte
        path = tmp_path / "late.csv"
        for bad in (None, 2 * SLICE_ROWS + 100):
            if bad is not None:
                lines[bad] = "1.0,oops"
            text = "\n".join(lines) + "\n"
            assert len(text[: text.index(byte)].encode()) > g2._READ_BYTES
            path.write_text(text, encoding="utf-8")
            expected = reference_load(text, None)
            try:
                got = load_quadrature_records(str(path)).samples
            except RecordFormatError as exc:
                assert exc.lines == expected[:20]
                assert exc.count == len(expected)
            else:
                assert got.tobytes() == expected.tobytes() == rows.tobytes()
        shift = byte == "\x0c"  # the bad line comes one later
        assert expected == [2 * SLICE_ROWS + 8] * (byte == "\x1f") + [2 * SLICE_ROWS + 101 + shift]


class TestRecord:
    @pytest.mark.parametrize(
        "samples, error, message",
        [
            (np.zeros((4, 3)), ParameterError, r"samples must have shape \(n, 2\), got \(4, 3\)"),
            (np.zeros(4), ParameterError, r"samples must have shape \(n, 2\), got \(4,\)"),
            (np.zeros((1, 2)), RecordFormatError, "need at least 2 samples, got 1"),
            ([[0.0, 1.0], [math.nan, 2.0]], ParameterError, "samples contain NaN or Inf values"),
            ([[0.0, 1.0], [math.inf, 2.0]], ParameterError, "samples contain NaN or Inf values"),
        ],
        ids=["three-columns", "one-dimensional", "one-row", "nan", "inf"],
    )
    def test_bad_samples_are_rejected(self, samples, error, message):
        with pytest.raises(error, match=message):
            QuadratureRecord(samples)

    def test_unknown_unit_flag_is_rejected(self):
        with pytest.raises(ParameterError, match="unit_flag must be 'raw' or 'snu', got 'volts'"):
            QuadratureRecord(np.zeros((2, 2)), "volts")

    def test_record_in_snu_is_not_rescaled_again(self):
        with pytest.raises(UnitError, match="record is already in shot-noise units"):
            QuadratureRecord(np.ones((2, 2)), UNIT_SNU).in_snu(2.0)

    @pytest.mark.parametrize("shot_variance", [0.0, -1.0, math.inf, math.nan])
    def test_shot_variance_must_be_positive_and_finite(self, shot_variance):
        with pytest.raises(ParameterError, match="shot_variance must be > 0"):
            QuadratureRecord(np.ones((2, 2))).in_snu(shot_variance)

    @pytest.mark.parametrize("source", ["array", "spill"])
    def test_rescaling_divides_each_slice_as_it_is_read(self, source):
        # The record in shot-noise units shares the samples, so rescaling
        # allocates a slice's read buffer, its divided copy and the check's
        # temporaries; its values are those of one division of the array.
        samples = RngStream(83).generator().standard_normal((200_000, 2))
        record = QuadratureRecord(samples) if source == "array" else spilled(QuadratureRecord(samples))
        record.in_snu(2.5)  # pays the first call's one-time costs
        tracemalloc.start()
        try:
            scaled = record.in_snu(2.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 16 * SLICE_ROWS
        assert scaled.unit_flag == UNIT_SNU and record.unit_flag == "raw"
        assert scaled.samples.tobytes() == (samples / math.sqrt(2.5)).tobytes()
        assert record.samples.tobytes() == samples.tobytes()

    def test_finiteness_check_allocates_no_more_than_a_slice(self):
        # A whole-array check of a 200k-row record would make a 0.40 MB
        # boolean temporary; a slice's takes 2 * SLICE_ROWS bytes.
        samples = np.ones((200_000, 2))
        QuadratureRecord(samples)  # pays the first call's one-time costs
        tracemalloc.start()
        try:
            QuadratureRecord(samples)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * (2 * SLICE_ROWS)
        samples[-1, 1] = math.nan  # in the last, short slice
        with pytest.raises(ParameterError, match="samples contain NaN or Inf values"):
            QuadratureRecord(samples)

    def test_load_and_rescale_scan_each_array_once(self, tmp_path, monkeypatch):
        # The record's own finiteness check is the only pass over a loaded
        # array and over its copy in shot-noise units.
        path = tmp_path / "r.csv"
        np.savetxt(path, np.ones((1000, 2)), delimiter=",")
        shapes = []
        isfinite = np.isfinite
        monkeypatch.setattr(np, "isfinite", lambda a, *args: shapes.append(np.shape(a)) or isfinite(a, *args))
        load_quadrature_records(str(path)).in_snu(2.0)
        assert shapes.count((1000, 2)) == 2


# The oracle takes ~0.3 s per 16384 rows, so the examples are few.
@settings(derandomize=True, database=None, max_examples=4, deadline=None)
@given(
    rows=st.sampled_from([2, SLICE_ROWS - 1, SLICE_ROWS, 2 * SLICE_ROWS + 123]),
    offsets=st.tuples(st.floats(-1e8, 1e8), st.floats(-1e8, 1e8)),
    log_scale=st.floats(-150.0, 150.0),
    seed=st.integers(0, 2**32 - 1),
)
@example(rows=2 * SLICE_ROWS + 123, offsets=(1e8, -1e8), log_scale=150.0, seed=0)
@example(rows=SLICE_ROWS, offsets=(-1e8, 0.0), log_scale=-150.0, seed=1)
def test_pooled_variance_matches_the_two_pass_oracle(rows, offsets, log_scale, seed):
    # Offsets of up to 1e8 standard deviations: a mean that is off by a
    # relative 1e-16 moves each deviation by ~1e-8 of its own size.
    z = RngStream(seed).generator().standard_normal((rows, 2))
    record = QuadratureRecord(10.0**log_scale * (z + offsets))
    want = pooled_variance_mp(record.samples.T.tolist())
    assert abs(record.pooled_variance() - want) <= 1e-13 * want


def plus_minus(value):
    """A two-row record of ``±value`` in x and 0 in p."""
    return QuadratureRecord([[value, 0.0], [-value, 0.0]])


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: plus_minus(1e300).pooled_variance(), "record variance overflows"),
        (
            lambda: calibrate_photon_number(plus_minus(1e150), plus_minus(1e-150), IV_DET),
            "photon-number estimate overflows",
        ),
        (lambda: g2_estimate(plus_minus(1e100).in_snu(1.0), min_samples=2), "g2 overflows"),
        (lambda: plus_minus(1e300).in_snu(1e-300), "record overflows in shot-noise units"),
        (lambda: spilled(plus_minus(1e300)).in_snu(1e-300), "record overflows in shot-noise units"),
    ],
    ids=["variance", "photon-number", "g2", "in-snu", "in-snu-spilled"],
)
def test_overflow_is_degenerate_data(call, message):
    # A numpy RuntimeWarning fails the test, so none may be raised on the way.
    with pytest.raises(DegenerateDataError, match=message):
        call()


# Line breaks of str.splitlines() beyond \n and \r, and whitespace that
# float() and a JSON parser strip differently.
_ODD_SPACE = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\u2028", "\u2029", "\xa0"]
_ODD_CELLS = ["nan", "inf", "-inf", "1_000", "abc", "", " 2.5 ", "\t-0.0", "0x1p3", "1e400", "\u0661", "3.0\x00"]
_ODD_CELLS += ["4.0#x"] + [f"2.0{c}3.0" for c in _ODD_SPACE]
_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def record_files(draw):
    """CSV text in the record format with up to three flaws, and the ``columns`` to load it with."""
    has_header = draw(st.booleans())
    width = draw(st.integers(2, 5)) if has_header else 2
    names = [f"c{i}" for i in range(width)]
    ix, ip = draw(st.permutations(range(width)))[:2]
    columns = (names[ix], names[ip]) if has_header and (width != 2 or draw(st.booleans())) else None
    clean = _FINITE.map(repr if draw(st.booleans()) else "{:.18e}".format)
    rows = [[draw(clean) for _ in range(width)] for _ in range(draw(st.integers(0, 12)))]
    for _ in range(draw(st.sampled_from([0, 1, 1, 2, 3])) if rows else 0):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        flaw = draw(st.sampled_from(["cell", "space", "short", "long"]))
        if flaw == "long" or not row:
            row.append(draw(clean))
        elif flaw == "short":
            row.pop()
        else:
            k = draw(st.integers(0, len(row) - 1))
            padded = [row[k] + c for c in _ODD_SPACE] + [c + row[k] for c in _ODD_SPACE]
            row[k] = draw(st.sampled_from(_ODD_CELLS if flaw == "cell" else padded))
    lines = [",".join(row) for row in rows]
    if has_header:
        lines.insert(0, draw(st.sampled_from([",", " , "])).join(names))
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", " ", "\t"] + _ODD_SPACE)))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return end.join(lines) + (end if draw(st.booleans()) else ""), columns


def _float_or_none(text):
    try:
        return float(text)
    except ValueError:
        return None


def reference_load(text, columns):
    """The documented record format: the samples, or the bad line numbers."""
    text = text.removeprefix("\ufeff")
    lines = [(n, line) for n, line in enumerate(text.splitlines(), start=1) if line.strip()]
    first = [c.strip() for c in lines[0][1].split(",")] if lines else []
    header = first if any(_float_or_none(c) is None for c in first) else None
    if header is None:
        if columns is not None:
            return []
        ix, ip = 0, 1
    else:
        lines = lines[1:]
        if columns is None:
            if len(header) != 2:
                return []
            ix, ip = 0, 1
        elif columns[0] in header and columns[1] in header:
            ix, ip = header.index(columns[0]), header.index(columns[1])
        else:
            return []
    rows, bad = [], []
    for n, line in lines:
        cells = line.split(",")
        fits = len(cells) == 2 if header is None else len(cells) > max(ix, ip)
        pair = (_float_or_none(cells[ix]), _float_or_none(cells[ip])) if fits else (None, None)
        if None in pair or not all(math.isfinite(v) for v in pair):
            bad.append(n)
        else:
            rows.append(pair)
    if bad or len(rows) < 2:
        return bad
    return np.array(rows)


def agrees_with_the_documented_format(text, columns):
    """Load ``text`` from a file and check it against ``reference_load``:
    the same values bit for bit, or the same bad lines and count."""
    expected = reference_load(text, columns)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "records.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        try:
            got = load_quadrature_records(path, columns=columns).samples
        except RecordFormatError as exc:
            assert exc.lines == expected[:20]
            assert exc.count == len(expected)
        else:
            assert isinstance(expected, np.ndarray)
            assert got.shape == expected.shape and got.tobytes() == expected.tobytes()


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(record_files())
@example(("1,2\n3,4\n5,6\n", None))
@example(("1,2,3\n4,5,6\n", None))
@example(("1,2\n", None))
@example((" \n1_000,2\n3,4\n", None))
@example(("1,2\nnan,4\n5,6\n", None))
@example(("1,2\n3,4#x\n", None))
@example(("1.5\x1f,2\n3,4\n", None))
@example(("c0,c1,c2\n1,2\x1c,3\n4,5,6\n", ("c0", "c1")))
@example(("c0,c1,c2\n1,2\u2028,3\n4,5,6\n", ("c0", "c1")))
@example(("\ufeff1,2\n3,4\n", None))
@example(("\ufeffc0,c1\n1,2\n3,4\n", ("c1", "c0")))
def test_loader_agrees_with_the_documented_format(case):
    agrees_with_the_documented_format(*case)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(record_files(), st.integers(8, 64))
@example(("x,p\n1.0,2.0\n3.0,4.0\n1.5\x1f,2.0\n5.0,6.0\n", None), 8)
@example(("x,p\n1.0,2.0\n3.0,4.0\n5.0,oops\n7.0,8.0\n9.0,1_0\n", None), 12)
def test_loader_agrees_with_the_documented_format_a_few_bytes_at_a_time(case, read_bytes):
    # Reads of 8 to 64 bytes put clean and flawed rows in different reads,
    # so orjson converts some reads and the line rules take the others.
    with mock.patch.object(g2, "_READ_BYTES", read_bytes):
        agrees_with_the_documented_format(*case)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(
    text=st.text(st.sampled_from(list("a,1 \t\r\n\x0b\x0c\x1c\x85\u2028\xe9\u20ac\U0001f600\ufeff")), max_size=30),
    bom=st.booleans(),
    junk_at=st.none() | st.integers(0, 60),
    read_bytes=st.integers(1, 5),
)
@example(text="a\r\nb", bom=False, junk_at=None, read_bytes=2)
@example(text="\xe9\xe9", bom=True, junk_at=4, read_bytes=2)
@example(text="1\x1f,2\n3,4", bom=False, junk_at=None, read_bytes=3)
def test_lines_read_a_few_bytes_at_a_time_are_those_of_the_whole_text(text, bom, junk_at, read_bytes):
    # Reads of 1 to 5 bytes split every line break, \r\n pair and UTF-8
    # character that a record's reads could split.  The lines of all reads,
    # numbered from each read's first, are those of the whole text.
    data = b"\xef\xbb\xbf" * bom + text.encode()
    if junk_at is not None:
        data = data[:junk_at] + b"\xff" + data[junk_at:]
    try:
        expected = list(enumerate(data.decode().removeprefix("\ufeff").splitlines(), start=1))
    except UnicodeDecodeError as exc:
        expected = f"not UTF-8 text (byte {exc.start})"
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(g2, "_READ_BYTES", read_bytes):
        path = os.path.join(tmp, "records.csv")
        with open(path, "wb") as fh:
            fh.write(data)
        try:
            reads = list(g2._text_lines(path))
            got = [(start + i, line) for start, lines in reads for i, line in enumerate(lines)]
        except RecordFormatError as exc:
            got = str(exc).split(": ", 1)[1]
    assert got == expected


def _float64(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def _midpoint(bits):
    """The exact decimal halfway between the float64 of ``bits`` and the
    next one up, as the mantissa and the exponent of its e-notation."""
    with localcontext() as ctx:
        ctx.prec = 800  # exact: a midpoint has at most 767 significant digits
        mid = (Decimal(_float64(bits)) + Decimal(_float64(bits + 1))) / 2
    return f"{mid:e}".split("e")


@st.composite
def number_texts(draw):
    """The text of a number: a float64 bit pattern as repr, %.17g, %.18e or
    %.25e write it; the exact decimal halfway between two adjacent doubles,
    or one unit of its last digit below or above it, with up to 20 zeros
    after it (a subnormal's midpoint has ~750 digits); or an integer near
    2^53, 2^63 or 2^64."""
    kind = draw(st.sampled_from(["bits", "halfway", "integer"]))
    sign = draw(st.sampled_from(["", "-"]))
    if kind == "bits":
        x = _float64(draw(st.integers(0, 0x7FEFFFFFFFFFFFFF)))  # every finite magnitude, subnormals too
        return sign + draw(st.sampled_from([repr, "%.17g".__mod__, "%.18e".__mod__, "%.25e".__mod__]))(x)
    if kind == "halfway":
        mantissa, exponent = _midpoint(draw(st.one_of(st.integers(0, 0x7FEFFFFFFFFFFFFE), st.integers(0, 2**53))))
        zeros = "0" * draw(st.integers(0, 20))
        mantissa = draw(
            st.sampled_from(
                [mantissa + zeros, mantissa[:-1] + str(int(mantissa[-1]) - 1) + zeros, mantissa + zeros + "1"]
            )
        )
        return f"{sign}{mantissa}e{exponent}"
    n = draw(st.sampled_from([2**53, 2**63, 2**64])) + draw(st.integers(-3, 3))
    return sign + str(n) + draw(st.sampled_from(["", ".0", "e0"]))


_SUBNORMAL_MIDPOINT, _ = _midpoint(0)  # 752 digits, then e-324


@settings(derandomize=True, database=None, max_examples=1500, deadline=None)
@given(number_texts())
@example("0.0")
@example("-0.0")
@example("-0e0")
@example("-0")
@example("5e-324")
@example("2.4703282292062328e-324")  # above half the smallest subnormal: 5e-324
@example(_SUBNORMAL_MIDPOINT + "e-324")  # exactly half of it: 0.0, to even
@example(_SUBNORMAL_MIDPOINT + "0" * 6 + "e-324")  # in a line of 768 characters
@example(_SUBNORMAL_MIDPOINT + "0" * 17 + "e-324")  # 769 digits, orjson's 5e-324: refused
@example("2.2250738585072011e-308")  # the largest subnormal, written short
@example("1.7976931348623157e308")
@example("1.7976931348623158e308")  # rounds down to the largest float
@example("9007199254740993")  # 2^53 + 1, an int to orjson
@example("9007199254740993.0")  # halfway between two floats: rounds to even
@example("18446744073709551617")  # above 2^64, a float to orjson
def test_orjson_reads_a_number_with_floats_bits(text):
    # The fast route rests on orjson's number parser rounding as float()
    # does; an orjson whose parser rounds otherwise fails here.  A -0 cell,
    # which orjson reads as the int 0, and a line longer than 768
    # characters are refused, and the read goes by the line rules; any
    # other number, int or float to orjson, must have float()'s bits.
    line = f"{text},0.5"
    got = g2._convert([line], 2, 0, 1)
    if got is None:
        assert text == "-0" or len(line) > g2._LONGEST_LINE
    else:
        assert got.tobytes() == np.array([[float(text), 0.5]]).tobytes()


# Rows whose read _convert refuses, one class each: cells orjson reads as
# other than a number, cells only float() takes or refuses, lines of
# another width or of more than 768 characters, and a -0 cell with an
# integer in the pair.  The "header-" rows go under the header c0,c1,c2
# with the pair (c2, c0).
_REFUSED_ROWS = {
    "true": "true,2.5",
    "false": "1.5,false",
    "null": "null,2.5",
    "quoted": '"1.5",2.5',
    "brackets": "[1.5],2.5",
    "ragged-long": "1.5,2.5,3.5",
    "ragged-short": "1.5",
    "whitespace-only-line": " \t ",
    "minus-zero-integer": "-0,2.5",
    "plus": "+1.5,2.5",
    "no-leading-digit": ".5,2.5",
    "no-trailing-digit": "5.,2.5",
    "leading-zero": "01.5,2.5",
    "overflow": "1e400,2.5",
    "longer-than-768-characters": "0." + "3" * 800 + ",2.5",
    "header-true-outside-the-pair": "1.5,true,2.5",
    "header-null-outside-the-pair": "1.5,null,2.5",
    "header-quoted-outside-the-pair": '1.5,"x",2.5',
    "header-ragged-long": "1.5,2.5,3.5,4.5",
    "header-ragged-short": "1.5,2.5",
    # Two cells too many and then two too few: as many cells as two rows.
    "header-ragged-pair": "1.5,2.5,3.5,4.5,5.5\n6.5",
    "header-minus-zero-in-the-pair": "1.5,2.5,-0",
}

# Rows of integers, which orjson reads as ints, whose read _convert takes:
# float() of an int rounds as float() of its text.  -0 written as a float
# or with an exponent, and an exponent of -0, stay floats.
_INTEGER_ROWS = {
    "integer": "1.5,7",
    "zero": "0,2.5",
    "2^53+1": "9007199254740993,2.5",
    "2^64-1": "1.5,18446744073709551615",
    "-2^63": "-9223372036854775808,2.5",
    "minus-zero-floats": "-0.0,-0e0\n1e-0,7",
    "header-integer-in-the-pair": "3,1.5,2.5",
}


def _among_clean_rows(name, rows):
    """Three clean rows, ``rows``, three more: the lines, their width, the
    pair's indices, the columns to load and the text of the file.  A
    "header-" name puts them under the header c0,c1,c2 with the pair (c2, c0)."""
    header = name.startswith("header-")
    width, ix, ip, columns = (3, 2, 0, ("c2", "c0")) if header else (2, 0, 1, None)
    clean = ["1.5,2.5,-3.25", "4.0e-3,5.5,6.125"] * 3 if header else ["1.5,2.5", "4.0e-3,5.5"] * 3
    assert g2._convert(clean, width, ix, ip) is not None
    lines = clean[:3] + rows.split("\n") + clean[3:]
    return lines, width, ix, ip, columns, "c0,c1,c2\n" * header + "\n".join(lines) + "\n"


@pytest.mark.parametrize("name", list(_REFUSED_ROWS))
def test_a_read_orjson_refuses_goes_by_the_line_rules(name):
    # Six clean rows are orjson's; with the rows among them the read is
    # refused, and the load gives the line rules' values, or their error
    # naming a line of those rows.
    lines, width, ix, ip, columns, text = _among_clean_rows(name, _REFUSED_ROWS[name])
    assert g2._convert(lines, width, ix, ip) is None
    expected = reference_load(text, columns)
    first, rows = 4 + name.startswith("header-"), len(_REFUSED_ROWS[name].split("\n"))
    assert isinstance(expected, np.ndarray) or set(expected) <= set(range(first, first + rows))
    agrees_with_the_documented_format(text, columns)


@pytest.mark.parametrize("name", list(_INTEGER_ROWS))
def test_a_read_of_integer_cells_is_orjsons(name):
    lines, width, ix, ip, columns, text = _among_clean_rows(name, _INTEGER_ROWS[name])
    assert g2._convert(lines, width, ix, ip).tobytes() == reference_load(text, columns).tobytes()
    agrees_with_the_documented_format(text, columns)


def calibrate_each_form(thermal, vacuum, det):
    """``calibrate_photon_number`` of two records, after checking that the
    calibration with the vacuum spilled to a temporary file, as the loader
    leaves it, and with both records spilled, gives the same result bit for
    bit or the same error and message."""
    outcomes = []
    for th, va in ((thermal, vacuum), (thermal, spilled(vacuum)), (spilled(thermal), spilled(vacuum))):
        try:
            outcomes.append(repr(calibrate_photon_number(th, va, det)))
        except (UnitError, DegenerateDataError) as exc:
            outcomes.append((type(exc), str(exc)))
    assert outcomes == outcomes[:1] * 3
    return calibrate_photon_number(thermal, vacuum, det)


class TestCalibration:
    def test_vacuum_against_itself_gives_zero_photons(self):
        _, vacuum = synthetic_records(800.0, IV_DET, 200_000, seed=60)
        cal = calibrate_each_form(vacuum, vacuum, IV_DET)
        assert cal.n_hat == 0.0

    def test_independent_vacuum_pair_is_consistent_with_zero(self):
        # Noise can push the thermal-side variance below the reference,
        # which is rejected; otherwise the estimate must be consistent
        # with zero photons.
        _, vacuum = synthetic_records(800.0, IV_DET, 200_000, seed=60)
        other = QuadratureRecord(
            heterodyne_measure(
                sample_thermal_quadratures(0.0, 200_000, RngStream(61, 0)), IV_DET, RngStream(61, 1)
            )
        )
        try:
            cal = calibrate_each_form(other, vacuum, IV_DET)
        except DegenerateDataError:
            return
        assert abs(cal.n_hat) < 5.0 * cal.stderr

    def test_bright_source_recovered_within_two_percent(self):
        thermal, vacuum = synthetic_records(800.0, IV_DET, 1_000_000, seed=62, scale=2.5)
        cal = calibrate_each_form(thermal, vacuum, IV_DET)
        assert abs(cal.n_hat - 800.0) / 800.0 < 0.02
        assert cal.stderr > 0.0
        assert cal.shot_variance == pytest.approx(2.5**2, rel=0.01)

    def test_dim_source_recovered_within_five_percent(self):
        thermal, vacuum = synthetic_records(15.0, IV_DET, 1_000_000, seed=63, scale=0.3)
        cal = calibrate_each_form(thermal, vacuum, IV_DET)
        assert abs(cal.n_hat - 15.0) / 15.0 < 0.05

    def test_thermal_below_vacuum_is_rejected(self):
        thermal, vacuum = synthetic_records(5.0, IV_DET, 50_000, seed=64)
        with pytest.raises(DegenerateDataError):
            calibrate_each_form(vacuum, thermal, IV_DET)

    def test_unit_mismatch_is_rejected(self):
        thermal, vacuum = synthetic_records(5.0, IV_DET, 10_000, seed=65)
        snu = thermal.in_snu(1.0)
        with pytest.raises(UnitError):
            calibrate_each_form(snu, vacuum, IV_DET)

    def test_shot_noise_scale_underflow_names_v_el(self, tmp_path, capsys):
        # s_vac / (1 + v_el) underflows to 0: the data cannot be calibrated
        # at this v_el, and no shot_variance was ever set by the caller.
        vacuum = np.random.default_rng(68).normal(0.0, 1e-10, (20_000, 2))
        with pytest.raises(DegenerateDataError, match="underflows to 0 at v_el = 1e"):
            calibrate_each_form(QuadratureRecord(vacuum), QuadratureRecord(vacuum), DetectorModel(1.0, 1e308))
        path = tmp_path / "va.csv"
        np.savetxt(path, vacuum, delimiter=",")
        assert main(["analyze", str(path), str(path), "--v-el", "1e308", "--eta-d", "1"]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error: shot-noise scale") and err.count("\n") == 1

    def test_loop_closure(self):
        # Records synthesized at the calibrated photon number reproduce
        # the measured thermal variance.
        thermal, vacuum = synthetic_records(120.0, IV_DET, 500_000, seed=66, scale=1.7)
        cal = calibrate_each_form(thermal, vacuum, IV_DET)
        regenerated, _ = synthetic_records(cal.n_hat, IV_DET, 500_000, seed=67, scale=1.7)
        s_th = thermal.pooled_variance()
        s_re = regenerated.pooled_variance()
        tol = 5.0 * s_th * math.sqrt(2.0 / 500_000)
        assert abs(s_re - s_th) < 2.0 * tol  # two independent estimates


class TestG2:
    def test_thermal_statistics_give_two(self):
        thermal, vacuum = synthetic_records(800.0, IV_DET, 1_000_000, seed=70, scale=3.1)
        cal = calibrate_photon_number(thermal, vacuum, IV_DET)
        result = g2_estimate(thermal.in_snu(cal.shot_variance))
        assert abs(result.g2 - 2.0) < 0.02
        assert result.stderr > 0.0
        # mean of Z for per-quadrature variance s is 2 s
        assert result.mean_z == pytest.approx(2.0 * 401.35, rel=0.01)

    def test_any_zero_mean_gaussian_gives_two(self):
        for variance, seed in ((1.0, 71), (7.3, 72), (401.35, 73)):
            samples = math.sqrt(variance) * RngStream(seed).generator().standard_normal((200_000, 2))
            result = g2_estimate(QuadratureRecord(samples, UNIT_SNU))
            assert abs(result.g2 - 2.0) < 5.0 * result.stderr + 0.02

    def test_displaced_light_tends_to_one(self):
        g = RngStream(74).generator()
        displacement = math.sqrt(1000.0 / 2.0)  # per quadrature; total power 1000
        samples = g.standard_normal((1_000_000, 2)) + displacement
        result = g2_estimate(QuadratureRecord(samples, UNIT_SNU))
        assert abs(result.g2 - displaced_gaussian_g2(1000)) < 5.0 * result.stderr
        assert abs(result.g2 - 1.0) < 0.02

    def test_refuses_uncalibrated_records(self):
        samples = RngStream(75).generator().standard_normal((20_000, 2))
        with pytest.raises(UnitError):
            g2_estimate(QuadratureRecord(samples, "raw"))

    def test_degenerate_mean_z(self):
        # Samples on the unit circle put the mean of Z exactly at 1.
        samples = np.full((20_000, 2), math.sqrt(0.5))
        with pytest.raises(DegenerateDataError):
            g2_estimate(QuadratureRecord(samples, UNIT_SNU))

    def test_sample_floor(self):
        samples = RngStream(77).generator().standard_normal((5_000, 2))
        with pytest.raises(ParameterError):
            g2_estimate(QuadratureRecord(samples, UNIT_SNU))
        result = g2_estimate(QuadratureRecord(samples, UNIT_SNU), min_samples=1_000)
        assert math.isfinite(result.g2)

    def test_estimate_is_deterministic(self):
        samples = 2.0 * RngStream(78).generator().standard_normal((50_000, 2))
        record = QuadratureRecord(samples, UNIT_SNU)
        a = g2_estimate(record)
        b = g2_estimate(record)
        assert a.g2 == b.g2
        assert a.stderr == b.stderr

    def test_traced_peak_does_not_grow_with_the_record(self):
        # The moments of Z are summed a slice at a time in two reused
        # buffers, so no array grows with the record; the record itself is
        # made before tracing starts.
        peaks = []
        for n in (100_000, 400_000):
            record = QuadratureRecord(RngStream(82).generator().standard_normal((n, 2)), UNIT_SNU)
            g2_estimate(record)  # first-call caches are not the estimator's
            tracemalloc.start()
            try:
                g2_estimate(record)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.25 * peaks[0]
        assert peaks[1] < 16 * SLICE_ROWS + 100_000

    def test_stderr_scales_as_inverse_root_count(self):
        g = RngStream(79).generator()
        big = 3.0 * g.standard_normal((400_000, 2))
        small_record = QuadratureRecord(big[:100_000], UNIT_SNU)
        big_record = QuadratureRecord(big, UNIT_SNU)
        se_small = g2_estimate(small_record).stderr
        se_big = g2_estimate(big_record).stderr
        assert abs(se_small / se_big - 2.0) < 0.2 * 2.0

    def test_stderr_is_the_spread_of_g2_over_independent_records(self):
        # The sample SD of g2 over 400 thermal records of 1e4 rows has a
        # relative standard error of ~4%, so 15% is about 4 of them.
        g2s, stderrs = [], []
        for k in range(400):
            samples = 3.0 * RngStream(84, k).generator().standard_normal((10_000, 2))
            result = g2_estimate(QuadratureRecord(samples, UNIT_SNU))
            g2s.append(result.g2)
            stderrs.append(result.stderr)
        assert abs(np.std(g2s, ddof=1) / np.mean(stderrs) - 1.0) < 0.15

    def test_scale_dependence_motivates_the_unit_guard(self):
        # The estimator is not scale-free (zero-mean Gaussians are the
        # special case where it is); a displaced record shifts visibly
        # under rescaling, which is why uncalibrated input is refused.
        samples = RngStream(80).generator().standard_normal((100_000, 2)) + 3.0
        raw = g2_estimate(QuadratureRecord(samples, UNIT_SNU))
        scaled = g2_estimate(QuadratureRecord(samples * 3.0, UNIT_SNU))
        assert abs(raw.g2 - scaled.g2) > 0.01


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(
    rows=st.integers(20, 300),
    kind=st.sampled_from(["thermal", "displaced"]),
    level=st.floats(0.5, 400.0),
    # Above ~1e39 the fourth powers of Z overflow in float while its squares do not.
    scale=st.sampled_from([1.0, 1.0, 1e-3, 0.3, 7.0, 1e45, 1e60, 1e70]),
    seed=st.integers(0, 2**32 - 1),
)
@example(rows=300, kind="thermal", level=400.0, scale=1e70, seed=0)
@example(rows=20, kind="displaced", level=400.0, scale=1e45, seed=1)
def test_g2_stderr_matches_the_delta_method_oracle(rows, kind, level, scale, seed):
    # level is a thermal record's per-quadrature variance, or a displaced
    # record's mean-square displacement on unit-variance quadratures.
    z = RngStream(seed).generator().standard_normal((rows, 2))
    samples = scale * (math.sqrt(level) * z if kind == "thermal" else z + math.sqrt(level / 2.0))
    assume(abs(np.square(samples).sum(axis=1).mean() - 1.0) > 1e-3)
    result = g2_estimate(QuadratureRecord(samples, UNIT_SNU), min_samples=2)
    assert math.isfinite(result.g2) and math.isfinite(result.stderr)
    want = g2_stderr_mp(samples.tolist())
    assert abs(result.stderr - want) <= 1e-9 * want


@pytest.mark.parametrize("offset", [-5e-7, 0.0, 5e-7, -2e-6, 2e-6])
def test_g2_is_refused_within_1e_6_of_a_unit_mean_z(offset):
    # A thermal record rescaled so that its mean of Z is 1 + offset.
    samples = 2.0 * RngStream(88).generator().standard_normal((1_000, 2))
    mean_z = float(np.square(samples).sum(axis=1).mean())
    record = QuadratureRecord(samples * math.sqrt((1.0 + offset) / mean_z), UNIT_SNU)
    if abs(offset) < 1e-6:
        with pytest.raises(DegenerateDataError, match="within 1e-06 of 1; g2 is undefined"):
            g2_estimate(record, min_samples=2)
    else:
        result = g2_estimate(record, min_samples=2)
        assert math.isfinite(result.g2) and math.isfinite(result.stderr)
        want = g2_stderr_mp(record.samples.tolist())
        assert abs(result.stderr - want) <= 1e-9 * want


class TestHistogram:
    def test_shape_range_and_csv(self, tmp_path):
        samples = 2.0 * RngStream(85).generator().standard_normal((100_000, 2))
        record = QuadratureRecord(samples, UNIT_SNU)
        path = tmp_path / "hist.csv"
        counts, x_edges, p_edges = export_histogram(record, path=str(path))
        assert counts.shape == (128, 128)
        assert len(x_edges) == 129
        span = 5.0 * math.sqrt(record.pooled_variance())
        assert x_edges[0] == pytest.approx(-span)
        assert x_edges[-1] == pytest.approx(span)
        assert 0.999 * len(record) <= counts.sum() <= len(record)
        lines = path.read_text().splitlines()
        assert lines[0] == "bin_x,bin_p,count"
        assert len(lines) == 1 + 128 * 128
        assert sum(int(line.rsplit(",", 1)[1]) for line in lines[1:]) == counts.sum()

    @staticmethod
    def assert_equals_one_whole_record_histogram(record, half):
        counts, x_edges, p_edges = export_histogram(record)
        x, p = record.samples[:, 0], record.samples[:, 1]
        whole, x_whole, p_whole = np.histogram2d(x, p, bins=HISTOGRAM_BINS, range=[[-half, half], [-half, half]])
        assert np.array_equal(x_edges, x_whole) and np.array_equal(p_edges, p_whole)
        assert counts.dtype == np.int64 and np.array_equal(counts, whole)
        return counts

    @pytest.mark.parametrize(
        "rows",
        [
            pytest.param(1_000, id="shorter-than-a-slice"),
            pytest.param(SLICE_ROWS, id="one-slice"),
            pytest.param(2 * SLICE_ROWS + 123, id="not-a-multiple-of-the-slice"),
        ],
    )
    def test_sliced_counts_equal_one_whole_record_histogram(self, rows):
        samples = 2.0 * RngStream(86).generator().standard_normal((rows, 2))
        samples[-3:] = [[1e3, 0.0], [0.0, -1e3], [-1e3, 1e3]]  # outside the range, in the last slice
        record = QuadratureRecord(samples, UNIT_SNU)
        half = HISTOGRAM_SPAN_SIGMAS * math.sqrt(record.pooled_variance())
        counts = self.assert_equals_one_whole_record_histogram(record, half)
        assert counts.sum() == rows - 3

    @pytest.mark.parametrize("pairs", [10, 2_700], ids=["shorter-than-a-slice", "not-a-multiple-of-the-slice"])
    def test_samples_on_the_range_limits_are_counted_as_in_one_whole_record_histogram(self, pairs):
        # Each quadrature has mean 0 and a sum of squares of 50 * pairs over
        # 50 * pairs + 1 rows, so its variance is exactly 1 and the range is
        # exactly [-5, 5].  p holds `pairs` pairs of +-5 and zeros; x holds
        # five fewer pairs of +-5, one pair at +-10, outside the range, and
        # one each at +-3 and +-4.
        n = 50 * pairs + 1
        x, p = np.zeros(n), np.zeros(n)
        x[: 2 * pairs - 4] = [5.0, -5.0] * (pairs - 5) + [10.0, -10.0, 3.0, -3.0, 4.0, -4.0]
        p[: 2 * pairs] = [5.0, -5.0] * pairs
        g = RngStream(87).generator()
        record = QuadratureRecord(np.column_stack([g.permutation(x), g.permutation(p)]), UNIT_SNU)
        assert record.pooled_variance() == 1.0
        counts = self.assert_equals_one_whole_record_histogram(record, 5.0)
        assert counts.sum() == n - 2

    @pytest.mark.parametrize("variance", [1.0, 0.7, 1e-300, 3e300])
    def test_samples_at_and_beside_every_bin_edge_are_counted_as_in_one_whole_record_histogram(
        self, monkeypatch, variance
    ):
        # Each edge and the floats on either side of it, in x and then in p:
        # scaled and floored, some of them fall one bin off, and the
        # correction against the edges puts each where np.histogram2d does.
        # The range comes from the variance, not from these samples.
        half = HISTOGRAM_SPAN_SIGMAS * math.sqrt(variance)
        edges = np.linspace(-half, half, HISTOGRAM_BINS + 1)
        near = np.concatenate([edges, np.nextafter(edges, math.inf), np.nextafter(edges, -math.inf)])
        other = RngStream(90).generator().uniform(-half, half, len(near))
        samples = np.concatenate([np.column_stack([near, other]), np.column_stack([other, near])])
        record = QuadratureRecord(samples, UNIT_SNU)
        monkeypatch.setattr(record, "pooled_variance", lambda: variance)
        counts = self.assert_equals_one_whole_record_histogram(record, half)
        assert counts.sum() == len(samples) - 4  # one float beyond each end, in x and in p

    def test_zero_spread_is_degenerate(self):
        record = QuadratureRecord(np.zeros((100, 2)), UNIT_SNU)
        with pytest.raises(DegenerateDataError):
            export_histogram(record)
