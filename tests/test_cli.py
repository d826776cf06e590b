"""Command-line front end: config handling, outputs, exit codes."""

import io
import math
import os
import re
import subprocess
import sys
import tempfile
import threading
import tracemalloc
import warnings
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import passive_cvqkd
from passive_cvqkd import (
    ChannelModel,
    DegenerateDataError,
    DetectorModel,
    ParameterError,
    ProtocolParams,
    RngStream,
    TransmittanceFloorWarning,
    excess_noise_alice,
    secure_key_rate,
)
from passive_cvqkd.cli import (
    _MAX_AXIS_POINTS,
    DEFAULTS,
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_IO,
    EXIT_NUMERIC,
    EXIT_OK,
    compute_sweep,
    main,
    parse_axis,
    parse_config_file,
)
from passive_cvqkd.g2 import SLICE_ROWS
from passive_cvqkd.simulate import analytic_moments
from synthetic import heterodyne_measure, sample_thermal_quadratures


def report_of(path):
    return dict(line.split("=", 1) for line in path.read_text().splitlines())


def write_records(tmp_path, n_mean=50.0, det=DetectorModel(0.5, 0.35), count=20_000, seed=90, scale=1.3):
    thermal = heterodyne_measure(
        sample_thermal_quadratures(n_mean, count, RngStream(seed, 0)), det, RngStream(seed, 1)
    )
    vacuum = heterodyne_measure(
        sample_thermal_quadratures(0.0, count, RngStream(seed, 2)), det, RngStream(seed, 3)
    )
    th_path, va_path = tmp_path / "thermal.csv", tmp_path / "vacuum.csv"
    np.savetxt(th_path, thermal * scale, delimiter=",", header="x,p", comments="")
    np.savetxt(va_path, vacuum * scale, delimiter=",", header="x,p", comments="")
    return str(th_path), str(va_path)


_AXIS_NUMBERS = st.one_of(
    st.floats().map(repr),
    st.integers(-(10**7), 10**7).map(str),
    st.sampled_from(["inf", "-inf", "nan", "1e308", "1e-308", "1e-9", "1e9", "0", ""]),
)


@st.composite
def axis_texts(draw):
    """Numbers, inf and nan joined by ':' and ','."""
    values = draw(st.lists(_AXIS_NUMBERS, min_size=1, max_size=4))
    seps = draw(st.lists(st.sampled_from(":,"), min_size=len(values) - 1, max_size=len(values) - 1))
    return values[0] + "".join(sep + value for sep, value in zip(seps, values[1:]))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(axis_texts())
@example("0:inf:1")
@example("0:1e308:1e-308")
@example("0:1e9:1e-9")
@example("nan:1:1")
@example("0:1:nan")
@example("1,nan")
@example("0:1.7976931348623157e+308:8.988465676558696e+307")
def test_axis_is_bounded_and_finite_or_a_parameter_error(text):
    try:
        points = parse_axis(text)
    except ParameterError:
        return
    assert len(points) <= _MAX_AXIS_POINTS
    assert all(isinstance(p, float) and math.isfinite(p) for p in points)


class TestParsing:
    def test_axis_range_is_inclusive(self):
        assert parse_axis("0:100:1") == [float(v) for v in range(101)]
        assert parse_axis("0:40:20") == [0.0, 20.0, 40.0]

    def test_axis_list_and_scalar(self):
        assert parse_axis("50,100,500") == [50.0, 100.0, 500.0]
        assert parse_axis("12.5") == [12.5]

    def test_axis_errors(self):
        with pytest.raises(ParameterError):
            parse_axis("")
        with pytest.raises(ParameterError):
            parse_axis("0:10")
        with pytest.raises(ParameterError):
            parse_axis("10:0:1")
        for text in ("abc", "0:abc:1", "1,x"):
            with pytest.raises(ParameterError, match="numeric"):
                parse_axis(text)
        for text in ("inf", "1,nan", "0:inf:1", "nan:1:1", "0:1:nan"):
            with pytest.raises(ParameterError, match="finite"):
                parse_axis(text)
        for text in ("0:1e308:1e-308", "0:1e9:1e-9", "-1e308:1e308:1", f"0:{_MAX_AXIS_POINTS}:1"):
            with pytest.raises(ParameterError, match="points"):
                parse_axis(text)
        with pytest.raises(ParameterError, match="largest float"):
            parse_axis("0:1.7976931348623157e+308:8.988465676558696e+307")

    def test_axis_range_may_have_the_maximum_point_count(self):
        points = parse_axis(f"0:{_MAX_AXIS_POINTS - 1}:1")
        assert len(points) == _MAX_AXIS_POINTS
        assert points[-1] == _MAX_AXIS_POINTS - 1

    @pytest.mark.parametrize("length", ["0:1e9:1e-9", "0:inf:1", "0:1:nan"])
    def test_unbounded_axis_is_usage_error(self, length, capsys):
        assert main(["sweep", "--n0", "100", "--length", length]) == EXIT_CONFIG
        assert "error:" in capsys.readouterr().err

    def test_config_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\ngamma = 0.25\nn0=100\n\nv_el=0.2 # inline\n")
        settings = parse_config_file(str(cfg))
        assert settings == {"gamma": "0.25", "n0": "100", "v_el": "0.2"}

    @pytest.mark.parametrize(
        "argv", [["sweep", "--n0", "abc"], ["sweep", "--length", "0:abc:1"], ["optimize", "--n0", "100", "--length", "x"]]
    )
    def test_non_numeric_axis_is_usage_error(self, argv, capsys):
        assert main(argv) == EXIT_CONFIG
        assert "numeric" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["sweep", "simulate"])
    def test_non_numeric_va_in_config_is_usage_error(self, command, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("va=abc\n")
        argv = [command, "--config", str(cfg), "--n0", "100", "--length", "5"]
        assert main(argv) == EXIT_CONFIG
        assert "'va' must be numeric" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, flag",
        [
            ("sweep", "--count"),
            ("sweep", "--seed"),
            ("optimize", "--va"),
            ("optimize", "--count"),
            ("optimize", "--seed"),
            ("simulate", "--f"),
            *(
                ("analyze", flag)
                for flag in ("--gamma", "--eps0", "--f", "--n0", "--va", "--length", "--count", "--seed")
            ),
        ],
    )
    def test_flag_of_a_setting_the_command_does_not_read_is_usage_error(self, command, flag, capsys):
        files = ["thermal.csv", "vacuum.csv"] if command == "analyze" else []
        with pytest.raises(SystemExit) as exc:
            main([command, *files, flag, "2"])
        assert exc.value.code == EXIT_CONFIG
        assert f"unrecognized arguments: {flag} 2" in capsys.readouterr().err

    def test_config_keys_the_command_does_not_read_are_ignored(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("va=2\ncount=abc\nseed=abc\npartitions=0\n")
        plain, configured = tmp_path / "plain.txt", tmp_path / "configured.txt"
        argv = ["optimize", "--n0", "500", "--length", "20", "--out"]
        assert main(argv + [str(plain)]) == EXIT_OK
        assert main(argv + [str(configured), "--config", str(cfg)]) == EXIT_OK
        assert configured.read_bytes() == plain.read_bytes()
        cfg.write_text("f=abc\n")
        argv = ["simulate", "--n0", "340", "--va", "1", "--length", "10", "--count", "1000", "--out"]
        assert main(argv + [str(plain)]) == EXIT_OK
        assert main(argv + [str(configured), "--config", str(cfg)]) == EXIT_OK
        assert configured.read_bytes() == plain.read_bytes()

    def test_defaults_are_the_reference_configuration(self):
        assert DEFAULTS == {
            "gamma": "0.2", "eps0": "0.01", "v_el": "0.1", "eta_d": "0.5", "f": "0.95", "n0": "50,100,500",
            "va": "", "length": "0:100:1", "count": "1000000", "seed": "42", "partitions": "1", "workers": "1",
        }  # fmt: skip

    @pytest.mark.parametrize(
        "command, key, value, message",
        [
            ("sweep", "gamma", "abc", "error: setting 'gamma' must be numeric, got 'abc'"),
            ("sweep", "va", "1,2", "error: setting 'va' must be numeric, got '1,2'"),
            ("simulate", "count", "1e3", "error: setting 'count' must be an integer, got '1e3'"),
            ("simulate", "seed", "x", "error: setting 'seed' must be an integer, got 'x'"),
        ],
    )
    def test_bad_value_fails_alike_from_flag_and_config(self, command, key, value, message, tmp_path, capsys):
        argv = [command, "--n0", "100", "--length", "5"]
        assert main(argv + [f"--{key}", value]) == EXIT_CONFIG
        from_flag = capsys.readouterr().err
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key}={value}\n")
        assert main(argv + ["--config", str(cfg)]) == EXIT_CONFIG
        assert from_flag == capsys.readouterr().err == message + "\n"

    def test_empty_va_flag_means_unset(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("va=2\n")
        plain, unset = tmp_path / "plain.csv", tmp_path / "unset.csv"
        argv = ["sweep", "--n0", "100", "--length", "0,10", "--out"]
        assert main(argv + [str(plain)]) == EXIT_OK
        assert main(argv + [str(unset), "--config", str(cfg), "--va", ""]) == EXIT_OK
        assert unset.read_bytes() == plain.read_bytes()

    @pytest.mark.parametrize("command", ["sweep", "simulate"])
    def test_va_help_states_each_commands_default(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == EXIT_OK
        text = " ".join(capsys.readouterr().out.split())
        assert "--va VA fixed modulation variance (sweep optimizes it when unset; simulate uses 1)" in text
        assert "default: optimize" not in text

    def test_config_that_is_not_utf8_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"gamma=0.2\xff\n")
        with pytest.raises(ParameterError, match="UTF-8"):
            parse_config_file(str(cfg))
        assert main(["optimize", "--config", str(cfg), "--n0", "100", "--length", "5"]) == EXIT_CONFIG
        assert "UTF-8" in capsys.readouterr().err

    def test_config_with_a_byte_order_mark(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"\xef\xbb\xbfgamma=0.25\nn0=100\n")
        assert parse_config_file(str(cfg)) == {"gamma": "0.25", "n0": "100"}
        configured, flagged = tmp_path / "configured.txt", tmp_path / "flagged.txt"
        argv = ["optimize", "--length", "20", "--out"]
        assert main(argv + [str(configured), "--config", str(cfg)]) == EXIT_OK
        assert main(argv + [str(flagged), "--gamma", "0.25", "--n0", "100"]) == EXIT_OK
        assert configured.read_bytes() == flagged.read_bytes()

    def test_config_rejects_unknown_key(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("gama=0.2\n")
        with pytest.raises(ParameterError, match="gama"):
            parse_config_file(str(cfg))


class TestSweep:
    def test_small_grid_shape_and_monotonicity(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--n0", "50,100", "--length", "0:20:5", "--out", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "L_km,n0,V_A_opt,I_AB,chi_BE,R_raw,R"
        assert len(lines) == 1 + 2 * 5
        rows = [line.split(",") for line in lines[1:]]
        by_n0 = {}
        for row in rows:
            by_n0.setdefault(float(row[1]), []).append(float(row[6]))
        for rates in by_n0.values():
            assert all(b <= a + 1e-12 for a, b in zip(rates, rates[1:]))

    def test_optimized_dominates_fixed(self, tmp_path):
        opt_out, fix_out = tmp_path / "opt.csv", tmp_path / "fix.csv"
        args = ["sweep", "--n0", "100", "--length", "0:30:10"]
        assert main(args + ["--out", str(opt_out)]) == EXIT_OK
        assert main(args + ["--va", "1", "--out", str(fix_out)]) == EXIT_OK
        opt_rows = [line.split(",") for line in opt_out.read_text().splitlines()[1:]]
        fix_rows = [line.split(",") for line in fix_out.read_text().splitlines()[1:]]
        for opt_row, fix_row in zip(opt_rows, fix_rows):
            assert float(opt_row[6]) >= float(fix_row[6]) - 1e-12

    def test_default_grid_has_303_rows(self, tmp_path):
        out = tmp_path / "default.csv"
        assert main(["sweep", "--out", str(out)]) == EXIT_OK
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 303
        rates = {}
        for line in lines[1:]:
            cells = line.split(",")
            rates.setdefault(cells[1], []).append(float(cells[6]))
        assert sorted(rates) == ["100", "50", "500"]
        for per_n0 in rates.values():
            assert all(b <= a + 1e-12 for a, b in zip(per_n0, per_n0[1:]))

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["sweep", "--n0", "500", "--length", "0,10,25"]
        main(argv + ["--out", str(a)])
        main(argv + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n0=100\nlength=0,10\nva=2\n")
        out1, out2 = tmp_path / "o1.csv", tmp_path / "o2.csv"
        main(["sweep", "--config", str(cfg), "--out", str(out1)])
        main(["sweep", "--config", str(cfg), "--va", "1", "--out", str(out2)])
        rows1 = out1.read_text().splitlines()[1:]
        rows2 = out2.read_text().splitlines()[1:]
        assert len(rows1) == len(rows2) == 2
        assert all(row.split(",")[2] == "2" for row in rows1)
        assert all(row.split(",")[2] == "1" for row in rows2)

    def test_empty_axis_is_usage_error(self):
        assert main(["sweep", "--length", " "]) == EXIT_CONFIG

    def test_one_channel_per_length(self, monkeypatch):
        built = []

        def channel(gamma, length):
            built.append(length)
            return ChannelModel(gamma, length)

        monkeypatch.setattr("passive_cvqkd.noise.ChannelModel", channel)
        rows = compute_sweep({**DEFAULTS, "va": "1"})
        assert len(rows) == 303
        assert built == [float(length) for length in range(101)]

    def test_default_sweep_allocates_no_grid_sized_array(self):
        """Peak traced allocation of the default sweep, its 303 results
        included: ~245 kB measured (~175 kB of it the results), where one
        float array over the whole 303 x 256 coarse grid alone is 620 kB."""
        compute_sweep(DEFAULTS)  # first-call caches are not the sweep's
        tracemalloc.start()
        try:
            compute_sweep(DEFAULTS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 400_000


class TestSimulate:
    def test_report_passes_and_reproduces(self, tmp_path):
        a, b = tmp_path / "ra.txt", tmp_path / "rb.txt"
        argv = [
            "simulate", "--n0", "340", "--va", "1", "--length", "10",
            "--count", "100000", "--seed", "42", "--partitions", "3",
        ]
        assert main(argv + ["--out", str(a)]) == EXIT_OK
        assert main(argv + ["--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()
        report = dict(line.split("=", 1) for line in a.read_text().splitlines())
        assert report["eps_A_verdict"] == "PASS"
        assert report["delta_verdict"] == "PASS"
        assert report["I_AB_verdict"] == "PASS"
        assert report["moments_verdict"] == "PASS"
        assert report["eps_A_analytic"] == "0.01"

    def test_workers_leave_report_unchanged(self, tmp_path):
        a, b = tmp_path / "wa.txt", tmp_path / "wb.txt"
        argv = [
            "simulate", "--n0", "100", "--va", "1", "--length", "5",
            "--count", "60000", "--seed", "7", "--partitions", "4",
        ]
        assert main(argv + ["--workers", "1", "--out", str(a)]) == EXIT_OK
        assert main(argv + ["--workers", "2", "--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_tiny_count_still_reports(self, tmp_path):
        out = tmp_path / "tiny.txt"
        argv = ["simulate", "--n0", "340", "--count", "10", "--length", "0", "--out", str(out)]
        assert main(argv) == EXIT_OK
        text = out.read_text()
        assert "delta_empirical=" in text

    def test_degenerate_mutual_information_is_skipped(self, tmp_path, monkeypatch):
        def degenerate(summary):
            raise DegenerateDataError("singular empirical covariance block")

        plain, skipped = tmp_path / "plain.txt", tmp_path / "skipped.txt"
        argv = ["simulate", "--n0", "340", "--va", "1", "--length", "10", "--count", "1000", "--out"]
        assert main(argv + [str(plain)]) == EXIT_OK
        monkeypatch.setattr("passive_cvqkd.simulate.empirical_mutual_information", degenerate)
        assert main(argv + [str(skipped)]) == EXIT_OK
        expected = report_of(plain)
        expected.update(I_AB_empirical="nan", I_AB_stderr="nan", I_AB_z="nan", I_AB_verdict="SKIP")
        assert list(report_of(skipped).items()) == list(expected.items())

    def test_no_modulation_passes_its_exact_information_verdict(self, tmp_path):
        """At v_a = 0 the estimate, its closed form and its standard error
        are all exactly 0: an exact agreement, z = 0."""
        out = tmp_path / "report.txt"
        argv = ["simulate", "--n0", "340", "--va", "0", "--length", "10", "--count", "20000"]
        assert main(argv + ["--partitions", "3", "--workers", "2", "--out", str(out)]) == EXIT_OK
        report = report_of(out)
        assert [report[f"I_AB_{k}"] for k in ("analytic", "empirical", "stderr", "z", "verdict")] == [
            "0", "0", "0", "0", "PASS",
        ]

    def test_zero_stderr_disagreement_fails(self, tmp_path, monkeypatch):
        out = tmp_path / "report.txt"
        monkeypatch.setattr("passive_cvqkd.simulate.empirical_mutual_information", lambda summary: 1e-3)
        argv = ["simulate", "--n0", "340", "--va", "0", "--length", "10", "--count", "20000", "--out", str(out)]
        assert main(argv) == EXIT_OK
        report = report_of(out)
        assert (report["I_AB_stderr"], report["I_AB_z"], report["I_AB_verdict"]) == ("0", "inf", "FAIL")

    def test_zero_stderr_moment_disagreement_fails(self, tmp_path, monkeypatch):
        """At v_a = 0 Alice's moments and their standard errors are exactly 0;
        a closed form that is not 0 there is an infinite z, as for I_AB."""

        def shifted(*args):
            predicted = analytic_moments(*args)
            predicted[0, 0] = 1e-3
            return predicted

        plain, shifted_out = tmp_path / "plain.txt", tmp_path / "shifted.txt"
        argv = ["simulate", "--n0", "340", "--va", "0", "--length", "10", "--count", "20000", "--out"]
        assert main(argv + [str(plain)]) == EXIT_OK
        monkeypatch.setattr("passive_cvqkd.simulate.analytic_moments", shifted)
        assert main(argv + [str(shifted_out)]) == EXIT_OK
        report = report_of(shifted_out)
        assert report_of(plain)["moments_verdict"] == "PASS"
        assert (report["moments_max_z"], report["moments_verdict"]) == ("inf", "FAIL")

    def test_multiple_n0_is_usage_error(self):
        assert main(["simulate", "--n0", "50,100", "--count", "10"]) == EXIT_CONFIG


class TestDetectorOverrides:
    """Config-only keys that give the sender (_a) or the receiver (_b) its own detector."""

    def test_sender_electronic_noise(self, tmp_path):
        cfg, out = tmp_path / "run.cfg", tmp_path / "report.txt"
        cfg.write_text("v_el_a=0.35\n")
        argv = ["simulate", "--config", str(cfg), "--n0", "20000", "--va", "1", "--length", "10", "--out", str(out)]
        assert main(argv) == EXIT_OK
        report = report_of(out)
        eps_a = excess_noise_alice(ProtocolParams(n0=20000.0, v_a=1.0), DetectorModel(0.5, 0.35))
        assert report["eps_A_analytic"] == "0.00022" == f"{eps_a:.9g}"
        assert [report[f"{name}_verdict"] for name in ("eps_A", "delta", "I_AB", "moments")] == ["PASS"] * 4

    def test_receiver_efficiency(self, tmp_path):
        cfg, out = tmp_path / "run.cfg", tmp_path / "sweep.csv"
        cfg.write_text("eta_d_b=0.6\n")
        argv = ["sweep", "--config", str(cfg), "--va", "1", "--n0", "100,500", "--length", "0,10,30"]
        assert main(argv + ["--out", str(out)]) == EXIT_OK
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert len(rows) == 6
        for row in rows:
            params = ProtocolParams(n0=float(row[1]), v_a=1.0)
            ch = ChannelModel(0.2, float(row[0]))
            r = secure_key_rate(params, DetectorModel(0.5, 0.1), DetectorModel(0.6, 0.1), ch)
            assert row[3:] == [f"{x:.9g}" for x in (r.i_ab, r.chi_be, r.rate_raw, r.rate)]

    def test_empty_override_takes_the_shared_value(self, tmp_path):
        cfg, plain, configured = tmp_path / "run.cfg", tmp_path / "plain.csv", tmp_path / "configured.csv"
        cfg.write_text("eta_d_a=\nv_el_a=\neta_d_b=\nv_el_b=\n")
        argv = ["sweep", "--va", "1", "--n0", "100", "--length", "0,10", "--eta-d", "0.6", "--v-el", "0.2", "--out"]
        assert main(argv + [str(plain)]) == EXIT_OK
        assert main(argv + [str(configured), "--config", str(cfg)]) == EXIT_OK
        assert configured.read_bytes() == plain.read_bytes()

    def test_non_numeric_override_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("v_el_a=abc\n")
        assert main(["simulate", "--config", str(cfg), "--n0", "20000", "--va", "1", "--length", "10"]) == EXIT_CONFIG
        assert "'v_el_a' must be numeric" in capsys.readouterr().err


class TestAnalyze:
    def test_synthetic_pipeline(self, tmp_path):
        th, va = write_records(tmp_path, n_mean=50.0)
        out = tmp_path / "report.txt"
        hist = tmp_path / "hist.csv"
        code = main([
            "analyze", th, va, "--eta-d", "0.5", "--v-el", "0.35",
            "--histogram", str(hist), "--out", str(out),
        ])
        assert code == EXIT_OK
        report = dict(line.split("=", 1) for line in out.read_text().splitlines())
        n_hat = float(report["n_hat"])
        assert abs(n_hat - 50.0) / 50.0 < 0.05
        assert abs(float(report["g2"]) - 2.0) < 0.1
        assert hist.read_text().splitlines()[0] == "bin_x,bin_p,count"

    def test_vacuum_for_both_inputs(self, tmp_path):
        _, va = write_records(tmp_path, n_mean=50.0, seed=91)
        out = tmp_path / "report.txt"
        code = main([
            "analyze", va, va, "--eta-d", "0.5", "--v-el", "0.35",
            "--min-samples", "1000", "--out", str(out),
        ])
        # Identical records: zero excess variance, so n_hat is exactly 0,
        # and the SNU record has near-vacuum variance.
        if code == EXIT_OK:
            report = dict(line.split("=", 1) for line in out.read_text().splitlines())
            assert abs(float(report["n_hat"])) < 0.01
        else:
            assert code == EXIT_DATA  # degenerate g2 denominator is also acceptable

    def test_missing_file_is_io_error(self, tmp_path):
        _, va = write_records(tmp_path, seed=92, count=2_000)
        assert main(["analyze", str(tmp_path / "nope.csv"), va]) == EXIT_IO

    def test_parse_error_is_data_error(self, tmp_path):
        th, va = write_records(tmp_path, seed=93, count=2_000)
        bad = tmp_path / "bad.csv"
        bad.write_text("x,p\n1.0,2.0\nbroken,row\n3.0,4.0\n")
        assert main(["analyze", str(bad), va, "--min-samples", "2"]) == EXIT_DATA

    def test_column_selection(self, tmp_path):
        th, va = write_records(tmp_path, seed=94, count=12_000)
        renamed = tmp_path / "renamed.csv"
        with open(th) as fh:
            lines = fh.read().splitlines()
        lines[0] = "xA,pA"
        renamed.write_text("\n".join(lines) + "\n")
        out = tmp_path / "report.txt"
        code = main([
            "analyze", str(renamed), va, "--columns", "x,p",
            "--min-samples", "1000", "--out", str(out),
        ])
        assert code == EXIT_DATA  # thermal file lacks those names
        code = main([
            "analyze", str(renamed), str(renamed), "--columns", "xA,pA",
            "--min-samples", "1000", "--eta-d", "0.5", "--v-el", "0.35",
            "--out", str(out),
        ])
        assert code in (EXIT_OK, EXIT_DATA)


    @pytest.mark.parametrize("config", ["eta_d_b=abc\n", "v_el_a=0.35\n"])
    def test_detector_overrides_are_ignored(self, config, tmp_path):
        # analyze calibrates one receiver, from eta_d and v_el; the _a/_b
        # keys belong to the commands that build two detectors.
        th, va = write_records(tmp_path, n_mean=100.0, det=DetectorModel(0.5, 0.1), seed=95)
        cfg, plain, configured = tmp_path / "run.cfg", tmp_path / "plain.txt", tmp_path / "configured.txt"
        cfg.write_text(config)
        argv = ["analyze", th, va, "--out"]
        assert main(argv + [str(plain)]) == EXIT_OK
        assert main(argv + [str(configured), "--config", str(cfg)]) == EXIT_OK
        assert configured.read_bytes() == plain.read_bytes()


    def test_analyze_holds_under_two_record_sized_arrays(self, tmp_path):
        """Peak traced allocation of ``analyze`` with a histogram, on a
        200k-row thermal and a 200k-row vacuum record: ~0.47 times the 3.2 MB
        sample array of one record (measured; 0.35 without the histogram).
        Both records stay in their loaders' temporary files and are read a
        slice at a time, so the peak is a read's text and rows and slice
        temporaries; holding either record in memory adds a record-sized
        array to that."""
        count = 200_000
        g = RngStream(98).generator()
        argv = ["analyze"]
        for name, sigma in (("thermal", 3.0), ("vacuum", 1.0)):
            path = tmp_path / f"{name}.csv"
            path.write_text("".join(f"{x:.6g},{p:.6g}\n" for x, p in (sigma * g.standard_normal((count, 2))).tolist()))
            argv.append(str(path))
        argv += ["--histogram", str(tmp_path / "hist.csv")]
        with redirect_stdout(io.StringIO()):
            assert main(argv) == EXIT_OK  # first-call caches are not the command's
            tracemalloc.start()
            try:
                assert main(argv) == EXIT_OK
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 1.75 * 16 * count


    @pytest.mark.parametrize("route", ["ascii", "byte-order-mark"])
    def test_analyze_peak_does_not_grow_with_the_record(self, tmp_path, route):
        """Peak traced allocation of ``analyze`` with a histogram, on a
        thermal record of 4e5 rows against one of 1e5 rows, with the same
        20k-row vacuum: the records are read through their temporary files
        a slice at a time, and each file, with a byte-order mark or
        without, is parsed a read of text at a time."""
        g = RngStream(99).generator()

        def write(name, count, sigma, prefix=""):
            path = tmp_path / name
            rows = (sigma * g.standard_normal((count, 2))).tolist()
            path.write_text(prefix + "".join(f"{x:.6g},{p:.6g}\n" for x, p in rows), encoding="utf-8")
            return str(path)

        vacuum = write("vacuum.csv", 20_000, 1.0)
        peaks = []
        for count in (100_000, 400_000):
            thermal = write(f"thermal-{count}.csv", count, 3.0, "\ufeff" if route == "byte-order-mark" else "")
            argv = ["analyze", thermal, vacuum, "--histogram", str(tmp_path / "hist.csv")]
            with redirect_stdout(io.StringIO()):
                if not peaks:
                    assert main(argv) == EXIT_OK  # first-call caches are not the command's
                tracemalloc.start()
                try:
                    assert main(argv) == EXIT_OK
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
        assert peaks[1] < 1.25 * peaks[0]

    def test_a_spill_that_cannot_be_written_is_an_io_error(self, tmp_path, monkeypatch, capsys):
        def full(*args, **kwargs):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr("passive_cvqkd.g2.tempfile.TemporaryFile", full)
        assert main(["analyze", *write_records(tmp_path, count=2_000, seed=96)]) == EXIT_IO
        assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
    def test_records_may_be_pipes(self, tmp_path, capsys):
        # Each record's text is read once, so records given as FIFOs give
        # the report of the same records given as files.
        files = write_records(tmp_path, count=20_000, seed=97)
        assert main(["analyze", *files]) == EXIT_OK
        want = capsys.readouterr().out
        fifos = [str(tmp_path / f"{name}.fifo") for name in ("thermal", "vacuum")]
        done = threading.Event()
        writers = []
        for fifo, path in zip(fifos, files):
            os.mkfifo(fifo)
            with open(path, "rb") as fh:
                writers.append(threading.Thread(target=_serve_fifo, args=(fifo, fh.read(), done)))
            writers[-1].start()
        try:
            code = main(["analyze", *fifos])
        finally:
            done.set()
            for writer in writers:
                writer.join(timeout=10)
        assert not any(writer.is_alive() for writer in writers)
        got = capsys.readouterr()
        assert code == EXIT_OK, got.err
        without_files = [[line for line in out.splitlines() if not re.match(r"\w+_file=", line)] for out in (got.out, want)]
        assert without_files[0] == without_files[1]

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_analyze_leaks_no_file_descriptor_in_dev_mode(self, tmp_path):
        # Every run opens its records and their temporary files; an error
        # part way through a file must close them too.  Dev mode makes an
        # unclosed file a ResourceWarning, and -W error a printed error.
        dirs = [tmp_path / name for name in ("good", "bad", "scanned")]
        for d in dirs:
            d.mkdir()
        th, va = write_records(dirs[0], count=2_000, seed=96)
        bad = _bad_in_the_third_slice("oops")(dirs[1])[1]
        scanned = _bad_in_the_third_slice("inf", "\ufeff")(dirs[2])[1]
        runs = [
            [th, va, "--min-samples", "2", "--histogram", str(tmp_path / "hist.csv")],
            [bad, va],
            [scanned, va],
            [th, scanned],
            [str(tmp_path / "missing.csv"), va],
        ]
        script = (
            "import io, os, sys, contextlib\n"
            "from passive_cvqkd.cli import main\n"
            "fds = lambda: len(os.listdir('/proc/self/fd'))\n"
            f"runs = {runs!r}\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    main(['analyze', *runs[0]])\n"
            "    before = fds()\n"
            "    codes = [main(['analyze', *argv]) for argv in runs]\n"
            "print(codes, fds() - before)\n"
        )
        src = os.path.dirname(os.path.dirname(passive_cvqkd.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        run = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-c", script],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert run.stdout == f"{[EXIT_OK, EXIT_DATA, EXIT_DATA, EXIT_DATA, EXIT_IO]} 0\n", run.stderr
        assert [line.split(":")[0] for line in run.stderr.splitlines()] == ["error"] * 4


class TestOptimizeCommand:
    def test_report_fields(self, tmp_path):
        out = tmp_path / "opt.txt"
        assert main(["optimize", "--n0", "500", "--length", "20", "--out", str(out)]) == EXIT_OK
        report = dict(line.split("=", 1) for line in out.read_text().splitlines())
        assert report["feasible"] == "true"
        assert float(report["R"]) > 0.0
        assert 0.0 < float(report["V_A_opt"]) <= 20.0

    def test_infeasible_point(self, tmp_path):
        out = tmp_path / "opt.txt"
        code = main(["optimize", "--n0", "50", "--length", "50", "--eps0", "1.0", "--out", str(out)])
        assert code == EXIT_OK
        report = dict(line.split("=", 1) for line in out.read_text().splitlines())
        assert report["feasible"] == "false"
        assert report["R"] == "0"


def _config_without_equals(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("gamma 0.2\n")
    return ["sweep", "--config", str(cfg), "--va", "1", "--n0", "100", "--length", "1"]


def _constant_vacuum(tmp_path):
    th, _ = write_records(tmp_path, count=2_000, seed=96)
    vacuum = tmp_path / "constant.csv"
    vacuum.write_text("x,p\n" + "1.0,1.0\n" * 2_000)
    return ["analyze", th, str(vacuum)]


def _three_columns(tmp_path):
    _, va = write_records(tmp_path, count=2_000, seed=96)
    wide = tmp_path / "wide.csv"
    wide.write_text("x,p,q\n" + "1.0,2.0,3.0\n" * 10)
    return ["analyze", str(wide), va]


def _serve_fifo(fifo, data, done):
    """Write ``data`` once into the FIFO ``fifo`` as its first reader reads
    it, then, until ``done`` is set, let a reader that opens the FIFO again
    read end-of-file, as from a drained pipe, instead of waiting for a
    writer.  Nothing blocks for longer than the reader reads."""
    fd = None
    while fd is None and not done.is_set():
        try:
            fd = os.open(fifo, os.O_WRONLY | os.O_NONBLOCK)  # ENXIO until a reader opens it
        except OSError:
            done.wait(0.01)
    if fd is not None:
        os.set_blocking(fd, True)
        try:
            with open(fd, "wb") as fh:
                fh.write(data)
        except BrokenPipeError:
            pass  # the reader stopped before the end
    while not done.wait(0.01):
        try:
            os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
        except OSError:
            pass


def _bad_in_the_third_slice(cell, prefix="", vacuum_too=False):
    """A thermal record of three slices and more whose line
    ``2 * SLICE_ROWS + 11`` has ``cell`` for p, against a plain vacuum or,
    with ``vacuum_too``, a vacuum with the same fault.  A ``prefix`` goes
    before the text of each faulty file."""

    def make(tmp_path):
        lines = ["x,p"] + [f"{0.001 * k!r},{-0.002 * k!r}" for k in range(2 * SLICE_ROWS + 100)]
        lines[2 * SLICE_ROWS + 10] = f"1.5,{cell}"
        th, va = write_records(tmp_path, count=2_000, seed=96)
        for path in [th, va] if vacuum_too else [th]:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(prefix + "\n".join(lines) + "\n")
        return ["analyze", th, va, "--min-samples", "2"]

    return make


def _vacuum_variance_overflows_and_thermal_is_malformed(tmp_path):
    th, va = _bad_in_the_third_slice("oops")(tmp_path)[1:3]
    with open(va, "w", encoding="utf-8") as fh:
        fh.write("x,p\n1e300,0\n-1e300,0\n")
    return ["analyze", th, va, "--min-samples", "2"]


def _analyze(*flags):
    return lambda tmp_path: ["analyze", *write_records(tmp_path, count=2_000, seed=96), *flags]


def _at_100_photons_10_km(*argv):
    # The command comes first; the flags after it override these defaults.
    return lambda _: [argv[0], "--n0", "100", "--length", "10", *argv[1:]]


@pytest.mark.parametrize(
    "make_argv, code, message",
    [
        pytest.param(_config_without_equals, EXIT_CONFIG, "expected key=value", id="config-line-without-equals"),
        pytest.param(lambda _: ["sweep", "--n0", ","], EXIT_CONFIG, "axes must be non-empty", id="empty-axis"),
        pytest.param(_analyze("--columns", "xB"), EXIT_CONFIG, "--columns needs two names", id="one-column"),
        pytest.param(
            _analyze("--columns", "x,x"), EXIT_CONFIG, "columns must name two different columns", id="one-column-twice"
        ),
        pytest.param(
            _analyze("--min-samples", "x"), EXIT_CONFIG, "--min-samples must be an integer, got 'x'", id="min-samples-x"
        ),
        *(
            pytest.param(
                _bad_in_the_third_slice(cell, prefix),
                EXIT_DATA,
                f"thermal.csv: malformed rows at lines {2 * SLICE_ROWS + 11}\n",
                id=f"{cell}-in-the-third-slice-{route}",
            )
            for cell in ("oops", "inf")
            for prefix, route in (("", "ascii"), ("\ufeff", "byte-order-mark"))
        ),
        pytest.param(
            _bad_in_the_third_slice("oops", vacuum_too=True),
            EXIT_DATA,
            f"vacuum.csv: malformed rows at lines {2 * SLICE_ROWS + 11}\n",
            id="two-bad-files-report-the-vacuum",
        ),
        pytest.param(
            _vacuum_variance_overflows_and_thermal_is_malformed,
            EXIT_DATA,
            "error: record variance overflows\n",
            id="overflowing-vacuum-before-malformed-thermal",
        ),
        pytest.param(
            lambda _: ["optimize", "--n0", "0", "--length", "1"], EXIT_CONFIG, "photon number", id="no-photons"
        ),
        pytest.param(
            lambda p: ["sweep", "--va", "1", "--n0", "100", "--length", "1", "--out", str(p)],
            EXIT_IO,
            "Is a directory",
            id="out-is-a-directory",
        ),
        pytest.param(_constant_vacuum, EXIT_DATA, "vacuum record has zero variance", id="constant-vacuum"),
        pytest.param(
            _three_columns, EXIT_DATA, "has 3 columns; pass columns=(x_name, p_name)", id="three-columns-unselected"
        ),
        # Overflow of the key-rate chain, at a fixed variance and in the search.
        *(
            pytest.param(_at_100_photons_10_km(*argv), EXIT_NUMERIC, message, id="-".join(argv).replace("--", ""))
            for argv, message in [
                (("sweep", "--va", "1", "--eps0", "1e200"), "eigenvalue pair overflows"),
                (("sweep", "--va", "1", "--v-el", "1e300"), "eigenvalue pair overflows"),
                (("sweep", "--va", "1", "--eta-d", "1e-300"), "eigenvalue pair overflows"),
                (("sweep", "--va", "1", "--eps0", "1e100"), "eigenvalue pair overflows"),
                (("optimize", "--eps0", "1e200"), "eigenvalue pair overflows"),
                (("optimize", "--eta-d", "1e-300"), "eigenvalue pair overflows"),
                (("optimize", "--eps0", "1e100"), "eigenvalue pair overflows"),
                (("optimize", "--v-el", "1e308"), "noise budget overflows"),
            ]
        ),
        # Overflow of the simulator's statistics is a configuration error.
        *(
            pytest.param(
                _at_100_photons_10_km("simulate", "--va", "1", "--count", "1000", *argv),
                EXIT_CONFIG,
                "simulated second moments overflow",
                id="-".join(("simulate", *argv)).replace("--", ""),
            )
            for argv in [("--v-el", "1e300"), ("--v-el", "1e308"), ("--eta-d", "1e-300"), ("--n0", "1e308")]
        ),
    ],
)
def test_error_exit_prints_one_error_line(make_argv, code, message, tmp_path, capsys):
    argv = make_argv(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning escapes main as an exception
        assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize("seed", range(20))
def test_overflowing_sums_print_one_error_line_at_any_seed(seed, capsys):
    # A partition's sums are made symmetric where their overflow is ignored,
    # so no draw lets a RuntimeWarning out ahead of the error line.
    argv = _at_100_photons_10_km("simulate", "--va", "1", "--count", "1000", "--v-el", "1e308")(None)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([*argv, "--seed", str(seed)]) == EXIT_CONFIG
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == "error: simulated second moments overflow\n"


# Values at the edges of a numeric setting's domain or outside it: signed
# zeros, the smallest subnormal, values near the float limits, non-finite
# text, integers beyond any float, and text that is empty, blank or not
# ASCII ("٣" and "１e3" parse as numbers).
_HOSTILE = st.one_of(
    st.sampled_from(
        ["0", "-0", "-0.0", "5e-324", "-5e-324", "1e-300", "1e308", "-1e308", "inf", "-inf", "nan", "-nan"]
        + ["9" * 400, "-" + "9" * 400, "", " ", "é", "٣", "１e3", "0x10", "1_0"]
    ),
    st.floats().map(repr),
    st.integers(-(10**30), 10**30).map(str),
)
_SIMULATE_FLOATS = ["n0", "va", "length", "eps0", "v_el", "eta_d", "gamma"]


@settings(derandomize=True, database=None, max_examples=300, deadline=3000)
@given(
    overrides=st.dictionaries(st.sampled_from(_SIMULATE_FLOATS), _HOSTILE, max_size=len(_SIMULATE_FLOATS)),
    # Bounded on purpose: every example runs, and workers=2 starts a real pool.
    count=st.integers(0, 20_000),
    partitions=st.integers(0, 4),
    workers=st.sampled_from([1, 2]),
    # Whether an overflow warns can hang on the draws, so the seed varies too.
    seed=st.integers(0, 2**64 - 1),
)
@example(overrides={"n0": "1e308"}, count=1000, partitions=2, workers=1, seed=42)
@example(overrides={"v_el": "1e300"}, count=1000, partitions=1, workers=1, seed=42)
@example(overrides={"v_el": "1e308"}, count=1000, partitions=1, workers=1, seed=2)
@example(overrides={"eta_d": "5e-324"}, count=1000, partitions=1, workers=1, seed=42)
@example(overrides={"length": "1e308", "eps0": "1e308"}, count=1000, partitions=1, workers=1, seed=42)
@example(overrides={"va": "-0", "gamma": "0"}, count=2, partitions=4, workers=2, seed=42)
# A count beyond the largest float: 2 and 308 zeros.
@example(overrides={}, count=2 * 10**308, partitions=1, workers=1, seed=42)
def test_simulate_exits_cleanly_over_its_numeric_domain(overrides, count, partitions, workers, seed):
    values = {"n0": "340", "va": "1", "length": "10", **overrides}
    values.update(count=str(count), partitions=str(partitions), workers=str(workers), seed=str(seed))
    # --key=value keeps argparse from reading a value like -inf as a flag.
    argv = ["simulate"] + [f"--{key.replace('_', '-')}={value}" for key, value in values.items()]
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, redirect_stdout(stdout), redirect_stderr(stderr):
        warnings.simplefilter("always")
        code = main(argv)
    assert code in (EXIT_OK, EXIT_CONFIG)
    if code == EXIT_OK:
        assert stdout.getvalue().startswith("command=simulate\n") and stderr.getvalue() == ""
    else:
        err = stderr.getvalue()
        assert err.startswith("error:") and err.count("\n") == 1
    assert [w.category for w in caught if w.category is not TransmittanceFloorWarning] == []


_KEY_RATE_FLOATS = ["gamma", "eps0", "v_el", "eta_d", "f", "n0", "length", "va"]


@settings(derandomize=True, database=None, max_examples=300, deadline=3000)
@given(
    command=st.sampled_from(["sweep", "optimize"]),
    overrides=st.dictionaries(st.sampled_from(_KEY_RATE_FLOATS), _HOSTILE, max_size=len(_KEY_RATE_FLOATS)),
)
@example(command="sweep", overrides={"va": "1e308", "n0": "1e308"})
@example(command="optimize", overrides={"n0": "5e-324", "length": "1e308"})
@example(command="optimize", overrides={"v_el": "1e308", "eps0": "1e308", "gamma": "0"})
def test_key_rate_commands_exit_cleanly_over_their_numeric_domain(command, overrides):
    if command == "optimize":
        overrides.pop("va", None)  # optimize searches the modulation variance
    # No hostile value holds ',' or ':', so each axis is one point.
    values = {"n0": "100", "length": "10", **overrides}
    argv = [command] + [f"--{key.replace('_', '-')}={value}" for key, value in values.items()]
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, redirect_stdout(stdout), redirect_stderr(stderr):
        warnings.simplefilter("always")
        code = main(argv)
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERIC)
    if code == EXIT_OK:
        assert stderr.getvalue() == ""
    else:
        err = stderr.getvalue()
        assert err.startswith("error:") and err.count("\n") == 1
    assert [w.category for w in caught if w.category is not TransmittanceFloorWarning] == []


# Record cells: any float, non-finite text, and text that is no number or
# that only float() reads.
_CELLS = st.one_of(
    st.floats().map(repr),
    st.sampled_from(["", " ", "x", "nan", "-inf", "1e999", "1_0", "0x10", "٣", "é"]),
)
_BOM = b"\xef\xbb\xbf"
_RARELY = st.sampled_from([False] * 7 + [True])
_KEYS_ANALYZE = ["v_el", "eta_d"]


def _hostile_bytes(draw, text):
    """``text`` as UTF-8, maybe behind a byte-order mark, now and then with a 0xff byte in it."""
    data = (_BOM if draw(st.booleans()) else b"") + text.encode()
    if draw(_RARELY):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


def _record_bytes(draw, header, span):
    """A record file: ``header`` if any, up to 24 rows of numbers in
    ``[-span, span]`` times a scale from subnormal to near the float limit,
    now and then one row replaced by a ragged row of hostile cells, and a
    drawn line break."""
    width = 2 if header is None else header.count(",") + 1
    scale = draw(st.sampled_from([1.0, 1.0, 1.0, 1e-160, 1e77, 1e150, 1e300]))
    n = draw(st.integers(0, 24))
    cells = draw(st.lists(st.floats(-span, span), min_size=n * width, max_size=n * width))
    lines = [",".join(repr(v * scale) for v in cells[i : i + width]) for i in range(0, len(cells), width)]
    if lines and draw(_RARELY):
        lines[draw(st.integers(0, len(lines) - 1))] = ",".join(draw(st.lists(_CELLS, min_size=1, max_size=5)))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return _hostile_bytes(draw, newline.join(([header] if header else []) + lines) + newline)


@st.composite
def _records(draw):
    """A thermal and a vacuum record file with one header, and ``--columns``:
    mostly a layout that resolves, now and then one that does not.  The
    vacuum is narrower, so that the thermal variance is mostly the larger."""
    header, columns = draw(
        st.sampled_from(
            [(None, None), (None, None), ("x,p", None), ("1,p", None), ("xA,pA,xB,pB", "xA,pA")]
            + [("xA,pA,xB,pB", None), ("x", None), ("x,p", "xB"), (None, "xA,pA")]
        )
    )
    return _record_bytes(draw, header, 10.0), _record_bytes(draw, header, 3.0), columns


@st.composite
def _config_bytes(draw):
    """A config file: ``key=value`` lines with keys repeated at will, their
    values sane or hostile, now and then a blank, comment or bad line, and a
    drawn line break."""
    values = st.sampled_from(["0.5", "0.1", "3"]) | _HOSTILE
    pair = st.tuples(st.sampled_from(_KEYS_ANALYZE + ["gamma", "count", "seed"]), values)
    other = st.sampled_from(["# note", "", " ", "v_el", "bogus=1"])
    lines = draw(st.lists(st.one_of(pair.map("=".join), pair.map("=".join), other), max_size=6))
    return _hostile_bytes(draw, draw(st.sampled_from(["\n", "\r\n"])).join(lines))


@settings(derandomize=True, database=None, max_examples=150, deadline=3000)
@given(
    records=_records(),
    vacuum_file=st.sampled_from(["vacuum", "vacuum", "vacuum", "thermal", "missing", "directory"]),
    # Branches are drawn alike, so a repeated one weighs more.
    config=st.one_of(st.none(), st.none(), _config_bytes()),
    overrides=st.one_of(
        st.just({}), st.just({}), st.dictionaries(st.sampled_from(_KEYS_ANALYZE), _HOSTILE, max_size=2)
    ),
    histogram=st.booleans(),
    # Small on purpose: a drawn record has at most 24 rows.
    min_samples=st.integers(-1, 12),
)
@example(  # a plain pair of records, CRLF, with a histogram: exit 0
    records=(b"x,p\r\n3,1\r\n-2,4\r\n0.5,-3\r\n", b"x,p\r\n1,0\r\n0,-1\r\n-1,0.5\r\n", None), vacuum_file="vacuum",
    config=None, overrides={}, histogram=True, min_samples=2,
)
@example(  # byte-order marks, a duplicate key and a 0xff byte in the config
    records=(_BOM + b"xA,pA\n1,2\n3,5\n", b"", "xA,pA"), vacuum_file="thermal",
    config=_BOM + b"seed=1\r\nseed=\xff2\r\nv_el=0.1\r\n", overrides={}, histogram=False, min_samples=2,
)
@example(  # the squared variance overflowed: OverflowError out of main
    records=(b"round,xA,pA,xB,pB\n0.0,0.0,2.315841784746324e+77\n0.0,0.0,0.0,0.0,0.0\n", b"", "xA,pA"),
    vacuum_file="thermal", config=None, overrides={}, histogram=False, min_samples=0,
)
@example(  # the variance overflowed: a RuntimeWarning, then exit 2 for "shot_variance ... inf"
    records=(b"1e300,1\n-1e300,2\n", b"1,2\n3,4\n", None), vacuum_file="vacuum", config=None, overrides={},
    histogram=False, min_samples=2,
)
def test_analyze_exits_cleanly_over_its_input_domain(
    records, vacuum_file, config, overrides, histogram, min_samples
):
    thermal, vacuum, columns = records
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: os.path.join(tmp, name + ".csv") for name in ("thermal", "vacuum", "missing", "run", "hist")}
        paths["directory"] = tmp
        for name, data in (("thermal", thermal), ("vacuum", vacuum), ("run", config or b"")):
            with open(paths[name], "wb") as fh:
                fh.write(data)
        argv = ["analyze", paths["thermal"], paths[vacuum_file], f"--min-samples={min_samples}"]
        # --key=value keeps argparse from reading a value like -inf as a flag.
        argv += [f"--{key.replace('_', '-')}={value}" for key, value in overrides.items()]
        argv += [f"--config={paths['run']}"] if config is not None else []
        argv += [f"--columns={columns}"] if columns is not None else []
        argv += [f"--histogram={paths['hist']}"] if histogram else []
        stdout, stderr = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, redirect_stdout(stdout), redirect_stderr(stderr):
            warnings.simplefilter("always")
            code = main(argv)
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_IO, EXIT_DATA, EXIT_NUMERIC)
    if code == EXIT_OK:
        assert stderr.getvalue() == ""
        report = dict(line.split("=", 1) for line in stdout.getvalue().splitlines())
        assert report.pop("command") == "analyze"
        # Every value but a file name is a finite number.
        assert all(math.isfinite(float(v)) for key, v in report.items() if not key.endswith("_file"))
    else:
        err = stderr.getvalue()
        assert err.startswith("error:") and err.count("\n") == 1
    assert [w.category for w in caught] == []


@pytest.mark.parametrize(
    "argv, code, unloaded",
    [
        (None, None, ["numpy", "concurrent"]),
        (["sweep", "--bogus", "1"], EXIT_CONFIG, ["numpy", "concurrent"]),
        (["sweep", "--n0", "500", "--length", "0:20:10"], EXIT_OK, ["passive_cvqkd.g2", "passive_cvqkd.simulate"]),
        (["optimize", "--n0", "500", "--length", "20"], EXIT_OK, ["passive_cvqkd.g2", "passive_cvqkd.simulate"]),
        (["analyze"], EXIT_OK, ["passive_cvqkd.keyrate", "passive_cvqkd.simulate"]),
    ],
    ids=["parser", "usage-error", "sweep", "optimize", "analyze"],
)
def test_a_command_imports_only_its_layers(tmp_path, argv, code, unloaded):
    # Each command imports the layers it calls when it runs, so building the
    # parser (and --help, and a usage error) loads no numpy, and only a
    # pooled simulate run needs concurrent.futures.  A fresh interpreter
    # runs the command, then lists the modules it must not have loaded.
    if argv == ["analyze"]:
        argv += write_records(tmp_path)
    script = (
        "import contextlib, io, sys\n"
        "from passive_cvqkd.cli import build_parser, main\n"
        f"argv, unloaded = {argv!r}, {unloaded!r}\n"
        "code = None\n"
        "if argv is None:\n"
        "    build_parser()\n"
        "else:\n"
        "    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "        try:\n"
        "            code = main(argv)\n"
        "        except SystemExit as exc:\n"
        "            code = exc.code\n"
        "print(code, sorted(m for m in sys.modules if any(m == u or m.startswith(u + '.') for u in unloaded)))\n"
    )
    src = os.path.dirname(os.path.dirname(passive_cvqkd.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    assert run.stdout == f"{code} []\n"


USAGE_ERRORS = [
    ["frobnicate"],
    [],
    ["sweep", "--bogus", "1"],
    ["sweep", "--n0"],
    ["optimize", "--bogus", "1"],
    ["optimize", "--length"],
    ["simulate", "--bogus", "1"],
    ["simulate", "--n0"],
    ["analyze", "thermal.csv"],
    ["analyze", "thermal.csv", "vacuum.csv", "--bogus", "1"],
    ["analyze", "thermal.csv", "vacuum.csv", "--columns"],
    ["analyze", "thermal.csv", "vacuum.csv", "--n-boot", "200"],
]


def test_unknown_command_exits_with_usage_error(capsys):
    # An unknown command or flag, a missing positional or a flag without its
    # value is argparse's to report: its usage block, then one error line,
    # exit 2.  CI's smoke step checks a real process for the traceback.
    for argv in USAGE_ERRORS:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_CONFIG, argv
        out, err = capsys.readouterr()
        assert out == "", argv
        lines = err.splitlines()
        assert lines[0].startswith("usage: passive-cvqkd"), argv
        assert re.match(r"passive-cvqkd( [a-z]+)?: error: ", lines[-1]), argv
