"""Monte Carlo protocol simulation against the closed-form model."""

import linecache
import math
import os
import pickle
import tracemalloc
import warnings

import numpy as np
import pytest

from passive_cvqkd import (
    ChannelModel,
    DetectorModel,
    ParameterError,
    ProtocolParams,
    RngStream,
    SimConfig,
    TransmittanceFloorWarning,
    beamsplitter,
    empirical_mutual_information,
    excess_noise_alice,
    load_quadrature_records,
    run_protocol,
    total_noise,
)
from passive_cvqkd import cli
from passive_cvqkd.cli import EXIT_IO, main
from passive_cvqkd.keyrate import mutual_information
from passive_cvqkd.simulate import (
    _CHUNK,
    _chunk,
    _chunk_buffers,
    _usable_cpus,
    analytic_moments,
    empirical_mi_stderr,
)

REF_DET = DetectorModel(0.5, 0.1)


def make_config(n0=340.0, v_a=1.0, length=10.0, count=250_000, seed=42, partitions=2, **kw):
    params = ProtocolParams(n0=n0, v_a=v_a, eps0=kw.pop("eps0", 0.01))
    return SimConfig(
        params=params,
        det_a=kw.pop("det_a", REF_DET),
        det_b=kw.pop("det_b", REF_DET),
        channel=ChannelModel(0.2, length),
        count=count,
        master_seed=seed,
        partitions=partitions,
        **kw,
    )


def reference_chunk(cfg, m, g):
    """The simulator's chain, written with the public allocating beam
    splitter and the written formulas of the source and the receivers,
    which ``tests/test_gaussian.py`` pins ``sample_thermal_quadratures``
    and ``heterodyne_measure`` to.

    Every splitter computes both outputs and every stage is checked for
    finiteness; the draws are taken in the same order as in ``_chunk``.
    """
    params, det_a, det_b = cfg.params, cfg.det_a, cfg.det_b
    eta_a = params.eta_a

    def heterodyne(samples, det):
        measured, _ = beamsplitter(samples, g.standard_normal((m, 2)), det.eta_d / 2.0)
        return measured + math.sqrt(det.v_el) * g.standard_normal((m, 2))

    src = g.normal(0.0, math.sqrt(2.0 * params.n0 + 1.0), size=(m, 2))
    mod1, _ = beamsplitter(src, g.standard_normal((m, 2)), 0.5)
    _, mod2 = beamsplitter(g.standard_normal((m, 2)), src, 0.5)
    out, _ = beamsplitter(mod1, g.standard_normal((m, 2)), eta_a)
    est = math.sqrt(2.0 * eta_a / det_a.eta_d) * heterodyne(mod2, det_a)
    excess = math.sqrt(params.eps0) * g.standard_normal((m, 2))
    received, _ = beamsplitter(out + excess, g.standard_normal((m, 2)), cfg.channel.t)
    return np.concatenate([est, heterodyne(received, det_b)], axis=1), out


def peak_memory(count, seed, dump_path=None):
    """Peak traced allocation of a one-partition run of ``count`` rounds."""
    tracemalloc.start()
    try:
        run_protocol(make_config(count=count, partitions=1, seed=seed), dump_path=dump_path)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestChunk:
    @pytest.mark.parametrize(
        "kw",
        [
            {},
            {"v_a": 0.0},
            {"det_a": DetectorModel(1.0, 0.0), "det_b": DetectorModel(1.0, 0.0)},
            {"length": 0.0, "eps0": 0.0},
        ],
        ids=["reference", "v_a=0", "eta_d=1,v_el=0", "L=0"],
    )
    def test_matches_the_public_chain_bit_for_bit(self, kw):
        cfg = make_config(**kw)
        g, g_ref = RngStream(31, 2).generator(), RngStream(31, 2).generator()
        bufs = _chunk_buffers(_CHUNK)
        # A full chunk, then a shorter tail that reuses the same arrays.
        for m in (_CHUNK, 1000):
            block, est, out = _chunk(cfg, g, *(b[:m] for b in bufs))
            ref_block, ref_out = reference_chunk(cfg, m, g_ref)
            assert np.array_equal(block, ref_block)
            assert np.array_equal(est, ref_block[:, :2])
            assert np.array_equal(out, ref_out)

    @pytest.mark.parametrize("v_a", [0.0, 1.0])
    def test_overflow_is_a_parameter_error(self, v_a):
        cfg = make_config(n0=1e308, v_a=v_a, count=1000, partitions=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match="NaN or Inf"):
                run_protocol(cfg)


class TestEstimateError:
    def test_delta_matches_closed_form_at_threshold(self):
        cfg = make_config(n0=340.0, v_a=1.0)
        summary = run_protocol(cfg)
        delta = excess_noise_alice(cfg.params, cfg.det_a) + 1.0
        assert delta == pytest.approx(1.01, rel=1e-12)
        assert abs(summary.delta_hat - delta) < 5.0 * summary.delta_stderr

    @pytest.mark.parametrize("n0, v_a, seed", [(340.0, 1.0, 3), (100.0, 1.0, 4), (500.0, 2.0, 5)])
    def test_excess_noise_matches_closed_form(self, n0, v_a, seed):
        cfg = make_config(n0=n0, v_a=v_a, seed=seed)
        summary = run_protocol(cfg)
        expected = excess_noise_alice(cfg.params, cfg.det_a)
        assert abs(summary.delta_hat - 1.0 - expected) < 5.0 * summary.delta_stderr

    def test_no_outgoing_signal_means_no_excess_noise(self):
        cfg = make_config(v_a=0.0, seed=6)
        summary = run_protocol(cfg)
        assert abs(summary.delta_hat - 1.0) < 5.0 * summary.delta_stderr

    def test_stderr_scales_as_inverse_root_count(self):
        small = run_protocol(make_config(count=100_000, seed=8))
        large = run_protocol(make_config(count=200_000, seed=8))
        ratio = small.delta_stderr / large.delta_stderr
        assert abs(ratio - math.sqrt(2.0)) < 0.2 * math.sqrt(2.0)


class TestMomentMatrix:
    @pytest.mark.parametrize(
        "n0, v_a, length, det_b, seed",
        [
            (340.0, 1.0, 10.0, REF_DET, 42),
            (100.0, 2.5, 0.0, DetectorModel(0.8, 0.05), 10),
            (500.0, 5.0, 40.0, DetectorModel(0.5, 0.35), 11),
            (50.0, 0.2, 25.0, REF_DET, 12),
            (800.0, 19.0, 5.0, DetectorModel(0.9, 0.0), 13),
        ],
    )
    def test_matches_analytic_prediction(self, n0, v_a, length, det_b, seed):
        cfg = make_config(n0=n0, v_a=v_a, length=length, det_b=det_b, seed=seed)
        summary = run_protocol(cfg)
        predicted = analytic_moments(cfg.params, cfg.det_a, cfg.det_b, cfg.channel)
        z = np.abs(summary.moments - predicted) / summary.moment_stderr
        assert np.nanmax(z) < 5.0

    def test_moment_matrix_is_positive_semidefinite(self):
        summary = run_protocol(make_config(seed=12))
        eigenvalues = np.linalg.eigvalsh(summary.moments)
        assert np.all(eigenvalues > -1e-9)

    def test_x_and_p_statistics_are_exchangeable(self):
        summary = run_protocol(make_config(seed=13))
        m, se = summary.moments, summary.moment_stderr
        for i, j in ((0, 1), (2, 3)):
            combined = math.hypot(se[i, i], se[j, j])
            assert abs(m[i, i] - m[j, j]) < 5.0 * combined
        cov_combined = math.hypot(se[0, 2], se[1, 3])
        assert abs(m[0, 2] - m[1, 3]) < 5.0 * cov_combined

    def test_zero_modulation_decorrelates_the_link(self):
        summary = run_protocol(make_config(v_a=0.0, seed=14))
        assert summary.moments[0, 2] == 0.0
        assert summary.moments[1, 3] == 0.0


class TestMutualInformation:
    def test_matches_closed_form_at_reference_point(self):
        cfg = make_config(count=1_000_000, seed=42, partitions=4)
        summary = run_protocol(cfg)
        budget = total_noise(cfg.params, cfg.det_a, cfg.det_b, cfg.channel)
        predicted = mutual_information(cfg.params.v_a, budget.chi_tot)
        z = (empirical_mutual_information(summary) - predicted) / empirical_mi_stderr(summary)
        assert abs(z) < 5.0

    def test_zero_modulation_gives_zero_information(self):
        summary = run_protocol(make_config(v_a=0.0, seed=15))
        assert empirical_mutual_information(summary) == 0.0

    def test_lossless_ideal_link(self):
        ideal = DetectorModel(1.0, 0.0)
        cfg = make_config(
            n0=1e9, v_a=1.0, length=0.0, det_a=ideal, det_b=ideal, eps0=0.0, seed=16
        )
        summary = run_protocol(cfg)
        predicted = mutual_information(1.0, 1.0)  # chi_tot reduces to chi_het = 1
        z = (empirical_mutual_information(summary) - predicted) / empirical_mi_stderr(summary)
        assert abs(z) < 5.0


class TestDeterminism:
    def test_identical_seed_and_partitions_reproduce_bitwise(self):
        a = run_protocol(make_config(count=40_000, partitions=3, seed=17))
        b = run_protocol(make_config(count=40_000, partitions=3, seed=17))
        assert np.array_equal(a.moments, b.moments)
        assert a.delta_hat == b.delta_hat

    def test_workers_do_not_change_the_result(self):
        cfg = make_config(count=40_000, partitions=4, seed=18)
        seq = run_protocol(cfg, workers=1)
        par = run_protocol(cfg, workers=2)
        assert np.array_equal(seq.moments, par.moments)
        assert seq.delta_hat == par.delta_hat
        assert seq.delta_stderr == par.delta_stderr

    def test_partition_count_changes_the_stream_layout(self):
        a = run_protocol(make_config(count=40_000, partitions=1, seed=19))
        b = run_protocol(make_config(count=40_000, partitions=2, seed=19))
        assert not np.array_equal(a.moments, b.moments)

    def test_plain_summation_matches_exact_sums(self):
        # Several chunks per partition and a merge of two partitions: the
        # moments must agree with an exactly rounded sum of the same chunk
        # products far below their statistical error.
        cfg = make_config(count=5 * _CHUNK + 17, partitions=2, seed=28)
        summary = run_protocol(cfg)
        products = []
        for index, n_rounds in enumerate((cfg.count - cfg.count // 2, cfg.count // 2)):
            g = RngStream(cfg.master_seed, index).generator()
            bufs = _chunk_buffers(_CHUNK)
            for done in range(0, n_rounds, _CHUNK):
                v4, _, _ = _chunk(cfg, g, *(b[: min(_CHUNK, n_rounds - done)] for b in bufs))
                products.append(v4.T @ v4)
        assert len(products) == 6
        exact = np.array([[math.fsum(p[i, j] for p in products) for j in range(4)] for i in range(4)]) / cfg.count
        diag = np.diag(exact)
        assert np.all(np.abs(summary.moments - exact) <= 1e-14 * np.sqrt(np.outer(diag, diag)))


SIM_800_KM = ["simulate", "--n0", "500", "--va", "1", "--length", "800", "--count", "3000", "--partitions", "3"]


@pytest.fixture
def sizes(monkeypatch):
    """Pool sizes asked for.  The stand-in executor maps in-process and
    starts no process, but like a real pool it sends each call's
    arguments and result through pickle.  64 CPUs are usable unless a
    test says otherwise."""
    sizes = []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            calls = (pickle.loads(pickle.dumps(args)) for args in zip(*iterables))
            return [pickle.loads(pickle.dumps(fn(*args))) for args in calls]

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr("passive_cvqkd.simulate._usable_cpus", lambda: 64)
    return sizes


def floor_warnings(argv):
    """File and source line of each TransmittanceFloorWarning that ``main(argv)`` raises."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 0
    return [
        (w.filename, linecache.getline(w.filename, w.lineno).strip())
        for w in caught
        if w.category is TransmittanceFloorWarning
    ]


class TestPool:
    @pytest.mark.parametrize(
        "count, partitions, workers, expected",
        [(1000, 2, 5000, [2]), (1000, 4, 3, [3]), (2, 5, 8, [2]), (1000, 3, 1, []), (1000, 1, 4, [])],
    )
    def test_pool_is_no_larger_than_the_partition_count(self, sizes, count, partitions, workers, expected):
        cfg = make_config(count=count, partitions=partitions, seed=29)
        pooled = run_protocol(cfg, workers=workers)
        assert sizes == expected
        assert np.array_equal(pooled.moments, run_protocol(cfg).moments)

    @pytest.mark.parametrize(
        "partitions, workers, cpus, expected",
        [(4, 2, 2, [2]), (4, 8, 2, [2]), (8, 8, 3, [3]), (4, 4, 1, [])],
    )
    def test_pool_is_no_larger_than_the_usable_cpus(self, sizes, monkeypatch, partitions, workers, cpus, expected):
        monkeypatch.setattr("passive_cvqkd.simulate._usable_cpus", lambda: cpus)
        cfg = make_config(count=1000, partitions=partitions, seed=30)
        pooled = run_protocol(cfg, workers=workers)
        assert sizes == expected
        assert np.array_equal(pooled.moments, run_protocol(cfg).moments)

    @pytest.mark.parametrize("workers", [0, -1])
    def test_workers_below_one_are_rejected(self, sizes, workers, capsys):
        with pytest.raises(ParameterError, match="workers"):
            run_protocol(make_config(count=1000, partitions=2, seed=31), workers=workers)
        argv = ["simulate", "--n0", "340", "--va", "1", "--length", "10", "--count", "1000", "--partitions", "2"]
        assert main(argv + ["--workers", str(workers)]) == 2
        assert f"workers must be >= 1, got {workers}" in capsys.readouterr().err
        assert sizes == []

    def test_usable_cpus_is_a_positive_count(self):
        assert 1 <= _usable_cpus() <= (os.cpu_count() or 1)

    def test_cli_workers_above_partitions(self, sizes):
        argv = ["simulate", "--n0", "340", "--va", "1", "--length", "10", "--count", "1000"]
        assert main(argv + ["--partitions", "2", "--workers", "5000"]) == 0
        assert sizes == [2]

    def test_cli_workers_above_usable_cpus(self, sizes, monkeypatch):
        monkeypatch.setattr("passive_cvqkd.simulate._usable_cpus", lambda: 2)
        argv = ["simulate", "--n0", "340", "--va", "1", "--length", "10", "--count", "5000"]
        assert main(argv + ["--partitions", "5000", "--workers", "5000"]) == 0
        assert sizes == [2]


class TestFloorWarning:
    """A clamped channel warns once per command, at the CLI line that built it."""

    BUILT_AT = [(cli.__file__, 'ch = ChannelModel(s["gamma"], length)')]

    def test_serial_run(self, sizes):
        assert floor_warnings(SIM_800_KM + ["--workers", "1"]) == self.BUILT_AT
        assert sizes == []

    def test_pooled_run(self, sizes):
        assert floor_warnings(SIM_800_KM + ["--workers", "2"]) == self.BUILT_AT
        assert sizes == [2]

    def test_optimize(self):
        assert floor_warnings(["optimize", "--n0", "500", "--length", "800"]) == self.BUILT_AT


class TestDump:
    def test_header_and_roundtrip_identity(self, tmp_path):
        cfg = make_config(count=500, partitions=1, seed=20)
        g = RngStream(cfg.master_seed, 0).generator()
        samples, _, _ = _chunk(cfg, g, *_chunk_buffers(cfg.count))
        path = tmp_path / "rounds.csv"
        run_protocol(cfg, dump_path=str(path))
        text = path.read_text().splitlines()
        assert text[0] == "round,xA,pA,xB,pB"
        assert len(text) == cfg.count + 1
        alice = load_quadrature_records(str(path), columns=("xA", "pA"))
        bob = load_quadrature_records(str(path), columns=("xB", "pB"))
        assert np.array_equal(alice.samples, samples[:, :2])
        assert np.array_equal(bob.samples, samples[:, 2:])

    def test_rows_are_numbered_across_partitions(self, tmp_path):
        cfg = make_config(count=1001, partitions=3, seed=23)
        path = tmp_path / "rounds.csv"
        run_protocol(cfg, dump_path=str(path), workers=2)
        rows = path.read_text().splitlines()[1:]
        assert [int(r.split(",", 1)[0]) for r in rows] == list(range(cfg.count))

    def test_peak_memory_does_not_grow_with_count(self, tmp_path):
        dump = str(tmp_path / "r.csv")
        assert peak_memory(4 * _CHUNK, 24, dump) <= 1.25 * peak_memory(_CHUNK, 24, dump)

    def test_peak_memory_without_dump_does_not_grow_with_count(self):
        assert peak_memory(4 * _CHUNK, 27) <= 1.25 * peak_memory(_CHUNK, 27)

    def test_no_part_file_is_left_behind(self, tmp_path):
        run_protocol(make_config(count=2000, partitions=3, seed=25), dump_path=str(tmp_path / "r.csv"), workers=2)
        assert [p.name for p in tmp_path.iterdir()] == ["r.csv"]

    def test_failed_run_removes_its_part_files(self, tmp_path, monkeypatch):
        def fail(*args):
            raise OSError("disk full")

        monkeypatch.setattr("passive_cvqkd.simulate._write_rows", fail)
        with pytest.raises(OSError, match="disk full"):
            run_protocol(make_config(count=2000, partitions=3, seed=26), dump_path=str(tmp_path / "r.csv"))
        assert [p.name for p in tmp_path.iterdir()] == ["r.csv"]

    def test_dump_into_missing_directory_is_io_error(self, tmp_path, capsys):
        target = tmp_path / "missing" / "rounds.csv"
        argv = ["simulate", "--n0", "340", "--va", "1", "--length", "10", "--count", "1000", "--dump", str(target)]
        assert main(argv) == EXIT_IO
        assert str(target) in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_dump_is_deterministic(self, tmp_path):
        cfg = make_config(count=200, partitions=2, seed=21)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run_protocol(cfg, dump_path=str(p1))
        run_protocol(cfg, dump_path=str(p2), workers=2)
        assert p1.read_bytes() == p2.read_bytes()


class TestSmallSamples:
    def test_tiny_run_does_not_crash(self):
        summary = run_protocol(make_config(count=10, partitions=1, seed=22))
        assert summary.count == 10
        assert math.isfinite(summary.delta_hat)
        assert summary.delta_stderr > 0.0

    def test_config_validation(self):
        with pytest.raises(ParameterError):
            make_config(count=0)
        with pytest.raises(ParameterError):
            make_config(partitions=0)
