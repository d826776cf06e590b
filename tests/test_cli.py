"""Command-line front end: config handling, outputs, exit codes."""

import math
import os
import subprocess
import sys
import tracemalloc
import warnings

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
    excess_noise_alice,
    heterodyne_measure,
    sample_thermal_quadratures,
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
            *(("analyze", flag) for flag in ("--gamma", "--eps0", "--f", "--n0", "--va", "--length", "--count")),
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
        monkeypatch.setattr("passive_cvqkd.cli.empirical_mutual_information", degenerate)
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
        monkeypatch.setattr("passive_cvqkd.cli.empirical_mutual_information", lambda summary: 1e-3)
        argv = ["simulate", "--n0", "340", "--va", "0", "--length", "10", "--count", "20000", "--out", str(out)]
        assert main(argv) == EXIT_OK
        report = report_of(out)
        assert (report["I_AB_stderr"], report["I_AB_z"], report["I_AB_verdict"]) == ("0", "inf", "FAIL")

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
            "--histogram", str(hist), "--n-boot", "50", "--seed", "3", "--out", str(out),
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
            "--min-samples", "1000", "--n-boot", "50", "--out", str(out),
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
            "--min-samples", "1000", "--n-boot", "20", "--out", str(out),
        ])
        assert code == EXIT_DATA  # thermal file lacks those names
        code = main([
            "analyze", str(renamed), str(renamed), "--columns", "xA,pA",
            "--min-samples", "1000", "--n-boot", "20", "--eta-d", "0.5", "--v-el", "0.35",
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
        argv = ["analyze", th, va, "--n-boot", "20", "--out"]
        assert main(argv + [str(plain)]) == EXIT_OK
        assert main(argv + [str(configured), "--config", str(cfg)]) == EXIT_OK
        assert configured.read_bytes() == plain.read_bytes()


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


def _analyze(*flags):
    return lambda tmp_path: ["analyze", *write_records(tmp_path, count=2_000, seed=96), *flags]


def _at_100_photons_10_km(*argv):
    return lambda _: [*argv, "--n0", "100", "--length", "10"]


@pytest.mark.parametrize(
    "make_argv, code, message",
    [
        pytest.param(_config_without_equals, EXIT_CONFIG, "expected key=value", id="config-line-without-equals"),
        pytest.param(lambda _: ["sweep", "--n0", ","], EXIT_CONFIG, "axes must be non-empty", id="empty-axis"),
        pytest.param(_analyze("--columns", "xB"), EXIT_CONFIG, "--columns needs two names", id="one-column"),
        pytest.param(
            _analyze("--n-boot", "1", "--min-samples", "1000"), EXIT_CONFIG, "n_boot must be >= 2", id="one-resample"
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
            for argv in [("--v-el", "1e300"), ("--v-el", "1e308"), ("--eta-d", "1e-300")]
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


def test_importing_the_cli_leaves_the_process_pool_unloaded():
    # Only a pooled simulate run needs concurrent.futures; the import costs
    # every other command memory and start-up time.
    src = os.path.dirname(os.path.dirname(passive_cvqkd.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    code = "import sys, passive_cvqkd.cli; print(sorted(m for m in sys.modules if m.startswith('concurrent')))"
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert run.stdout == "[]\n"


def test_unknown_command_exits_with_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
