"""Tests of the benchmark harness's own logic (not of the package).

``TestKnownDefects`` pins two program defects, each marked as an
expected failure until the package is fixed: one makes ``optimize-points``
runs incorrect, the other keeps the simulate workloads at a bright source.
"""

import math
import random

import pytest

from checks import check_analyze, check_optimize, check_sweep_csv, check_verdicts, parse_report
from run import percentile, samples_beyond, tail_permille
from spans import SpanRecorder, span_times
from workloads import WORKLOADS, McSimulate, RecordPipeline, workload_rng


class TestTailPercentile:
    @pytest.mark.parametrize(
        "n, expected",
        [(0, None), (19, None), (21, 500), (91, 500), (92, 900), (100, 900), (999, 990), (1000, 990), (10009, 999)],
    )
    def test_highest_percentile_with_ten_samples_beyond(self, n, expected):
        assert tail_permille(n) == expected

    def test_samples_beyond_counts_sorted_samples(self):
        rng = random.Random(3)
        for n in (11, 57, 100, 101, 1234):
            values = [rng.random() for _ in range(n)]
            for permille in (500, 900, 990, 999):
                cut = percentile(values, permille)
                assert sum(v > cut for v in values) == samples_beyond(n, permille)


class TestSelfTime:
    # root [0,100] > a [10,40] > a1 [15,25];  root > b [50,90]
    START = [0, 10, 15, 50]
    END = [100, 40, 25, 90]
    PARENT = [-1, 0, 1, 0]

    def test_self_time_subtracts_direct_children(self):
        t = span_times(self.START, self.END, self.PARENT)
        assert t.self_time.tolist() == [30, 20, 10, 40]
        assert t.duration.tolist() == [100, 30, 10, 40]

    def test_recorder_cost_is_removed_per_span(self):
        t = span_times(self.START, self.END, self.PARENT, overhead_ns=2.0)
        assert t.duration.tolist() == [94, 28, 10, 40]  # root has 3 descendants, a has 1
        assert t.self_time.tolist() == [26, 18, 10, 40]  # root has 2 children, a has 1

    def test_recorder_links_nested_calls(self):
        rec = SpanRecorder()
        inner = rec.wrap(lambda x: x + 1, "inner", observe=lambda r: r)
        outer = rec.wrap(lambda: inner(1) + inner(2), "outer")
        rec.op_id = 7
        assert outer() == 5
        arr = rec.arrays()
        names = [rec.names[i] for i in arr["name_id"]]
        assert names == ["outer", "inner", "inner"]
        assert arr["parent"].tolist() == [-1, 0, 0]
        assert arr["op"].tolist() == [7, 7, 7]
        assert rec.observed["inner"] == [2, 3]
        assert (arr["end_ns"] >= arr["start_ns"]).all()
        assert arr["start_ns"][1] >= arr["start_ns"][0] and arr["end_ns"][2] <= arr["end_ns"][0]


class TestInputs:
    @staticmethod
    def first_ops(name, seed, n=5):
        ops = WORKLOADS[name](2).ops(workload_rng(name, seed), "work")
        return [(op.argvs, op.meta) for op in (next(ops) for _ in range(n))]

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_same_seed_same_inputs(self, name):
        assert self.first_ops(name, 7) == self.first_ops(name, 7)
        assert self.first_ops(name, 7) != self.first_ops(name, 8)

    def test_vacuum_record_depends_only_on_seed(self, tmp_path):
        for sub, seed in (("a", 5), ("b", 5), ("c", 6)):
            (tmp_path / sub).mkdir()
            RecordPipeline(2).setup(str(tmp_path / sub), seed)
        read = lambda sub: (tmp_path / sub / "vacuum.csv").read_bytes()  # noqa: E731
        assert read("a") == read("b") != read("c")
        assert read("a").startswith(b"xB,pB\n")


class TestCheckersRejectCorruptOutput:
    def test_sweep_row_with_flipped_rate_sign(self, tmp_path):
        from passive_cvqkd.cli import main

        out = tmp_path / "rates.csv"
        assert main(["sweep", "--n0", "500", "--length", "0,10", "--out", str(out)]) == 0
        csv = out.read_text()
        assert check_sweep_csv(csv, [500.0], [0.0, 10.0], [0, 1]) == []
        lines = csv.splitlines()
        cells = lines[2].split(",")
        cells[5] = "-" + cells[5]
        lines[2] = ",".join(cells)
        problems = check_sweep_csv("\n".join(lines) + "\n", [500.0], [0.0, 10.0], [0, 1])
        assert [p.split(":")[0] for p in problems] == ["value"]
        assert check_sweep_csv("\n".join(lines[:2]) + "\n", [500.0], [0.0, 10.0], [0, 1])[0].startswith("format")

    def test_fail_verdict_line(self, capsys):
        from passive_cvqkd.cli import main

        assert main(["simulate", "--n0", "340", "--va", "1", "--length", "10", "--count", "20000"]) == 0
        report = capsys.readouterr().out
        assert check_verdicts(report) == []
        problems = check_verdicts(report.replace("delta_verdict=PASS", "delta_verdict=FAIL"))
        assert problems == ["delta_verdict: FAIL"]

    def test_analyze_report_with_wrong_g2(self):
        report = "n_hat=7.93\nn_stderr=0.032\ng2={}\ng2_stderr=0.0053\n"
        assert check_analyze(report.format("2.0036"), 7.947) == []
        problems = check_analyze(report.format("1.5"), 7.947)
        assert [p.split(":")[0] for p in problems] == ["g2"]

    def test_feasible_claim_where_oracle_rate_is_not_positive(self):
        report = "V_A_opt=0.0103839101\nfeasible={}\nR_raw=1.49748629e-13\n"
        assert [p.split(":")[0] for p in check_optimize(report.format("true"), "500", "600")] == ["feasibility"]
        assert check_optimize(report.format("false"), "500", "600") == []


def _cli_report(argv):
    import contextlib
    import io

    from passive_cvqkd.cli import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(argv) == 0
    return buf.getvalue()


def _i_ab_gap(n0, va, length, count):
    """Printed ``I_AB_analytic`` minus the information of the simulated
    chain (``analytic_moments``), in units of the empirical stderr at ``count``."""
    from passive_cvqkd.cli import DEFAULTS
    from passive_cvqkd.gaussian import DetectorModel
    from passive_cvqkd.noise import ChannelModel, ProtocolParams
    from passive_cvqkd.simulate import analytic_moments

    argv = ["simulate", "--n0", str(n0), "--va", str(va), "--length", str(length), "--count", "20000"]
    printed = float(parse_report(_cli_report(argv))["I_AB_analytic"])
    det = DetectorModel(float(DEFAULTS["eta_d"]), float(DEFAULTS["v_el"]))
    params = ProtocolParams(n0=float(n0), v_a=float(va), eps0=float(DEFAULTS["eps0"]))
    m = analytic_moments(params, det, det, ChannelModel(float(DEFAULTS["gamma"]), float(length)))
    rho2 = m[0, 2] ** 2 / (m[0, 0] * m[2, 2])
    stderr = math.sqrt(2.0 * rho2) / (math.log(2.0) * math.sqrt(count))
    return (printed + math.log2(1.0 - rho2)) / stderr


class TestKnownDefects:
    @pytest.mark.xfail(reason="ROADMAP item 2: beyond ~525 km the optimizer reports round-off as feasible")
    def test_optimize_at_700_km(self):
        report = _cli_report(["optimize", "--n0", "500", "--length", "700"])
        assert check_optimize(report, "500", "700") == []

    @pytest.mark.xfail(reason="simulate's I_AB verdict compares against the closed form for the sender's modulation")
    def test_i_ab_verdict_reference_at_readme_config(self):
        assert abs(_i_ab_gap(340, 1, 10, McSimulate.COUNT)) < 0.5

    @pytest.mark.parametrize("workload", [McSimulate, RecordPipeline])
    def test_simulate_workloads_sit_where_the_i_ab_gap_is_negligible(self, workload):
        assert abs(_i_ab_gap(workload.N0, workload.VA, workload.LENGTH, workload.COUNT)) < 0.1
