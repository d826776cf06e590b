"""Monte Carlo protocol simulation against the closed-form model."""

import contextlib
import hashlib
import io
import linecache
import math
import os
import pickle
import subprocess
import sys
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from passive_cvqkd import (
    ChannelModel,
    DegenerateDataError,
    DetectorModel,
    ParameterError,
    ProtocolParams,
    RngStream,
    SimConfig,
    SimSummary,
    TransmittanceFloorWarning,
    empirical_mutual_information,
    excess_noise_alice,
    load_quadrature_records,
    run_protocol,
    total_noise,
)
from passive_cvqkd import cli, simulate
from passive_cvqkd.cli import EXIT_CONFIG, EXIT_IO, main
from passive_cvqkd.keyrate import mutual_information
from passive_cvqkd.simulate import (
    _CHUNK,
    _block_map,
    _coefficients,
    _factor,
    _partition_sums,
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


def reference_coefficients(cfg):
    """The simulator's chain on unit inputs, written out here from the
    physics: the thermal source, the orthogonal beam-splitter mixing and
    the conjugate-homodyne receiver law, none of them through the
    package's ``_split`` or ``_receiver_gains``.

    Input k is the batch of pairs that is (1, 1) in row k and 0 elsewhere.
    The chain is linear and acts on each row alone, so row k of an output
    holds its coefficient on input k, alike in x and p.  Every splitter
    computes both outputs.  Returns the x and the p coefficients of
    ``(d, est, B)``, each 3x8.
    """
    params, det_a, det_b = cfg.params, cfg.det_a, cfg.det_b
    eta_a = params.eta_a
    src, vac1, vac2, vac_att, noise_a, excess, vac_ch, noise_b = np.eye(8)[:, :, None] * np.ones(2)

    def beamsplitter(a, b, t):
        ct, st = math.sqrt(t), math.sqrt(1.0 - t)
        return ct * a + st * b, -st * a + ct * b

    def heterodyne(samples, det, noise):
        return math.sqrt(det.eta_d / 2.0) * samples + math.sqrt(1.0 - det.eta_d / 2.0 + det.v_el) * noise

    src = math.sqrt(2.0 * params.n0 + 1.0) * src
    mod1, _ = beamsplitter(src, vac1, 0.5)
    _, mod2 = beamsplitter(vac2, src, 0.5)
    out, _ = beamsplitter(mod1, vac_att, eta_a)
    est = math.sqrt(2.0 * eta_a / det_a.eta_d) * heterodyne(mod2, det_a, noise_a)
    received, _ = beamsplitter(out + math.sqrt(params.eps0) * excess, vac_ch, cfg.channel.t)
    rows = np.array([est - out, est, heterodyne(received, det_b, noise_b)])
    return rows[:, :, 0], rows[:, :, 1]


DETECTORS = st.builds(DetectorModel, st.floats(1e-6, 1.0), st.floats(0.0, 10.0))


def bartlett_factor(stream, n):
    """The Bartlett factor ``T`` of a partition of ``n >= 6`` rounds, drawn
    from ``stream``'s stdlib generator as ``_partition_sums`` draws it: the
    six chi-squares of its diagonal, as gamma variates, then its 15 normals
    below the diagonal, row by row."""
    g = stream.stdlib_random()
    t = np.zeros((6, 6))
    t[np.diag_indices(6)] = [math.sqrt(g.gammavariate((n - i) / 2.0, 2.0)) for i in range(6)]
    t[np.tril_indices(6, -1)] = [g.gauss(0.0, 1.0) for _ in range(15)]
    return t


def partition_normals(stream, n_rounds):
    """Copies of a dumped partition's chunk blocks of four normals a round,
    drawn in the order ``_partition_sums`` draws them from the start of
    ``stream``'s numpy generator."""
    g = stream.generator()
    for done in range(0, n_rounds, _CHUNK):
        yield g.standard_normal((4, min(_CHUNK, n_rounds - done)))


def exact_gram(blocks):
    """Exactly rounded sums of the chunk products ``u @ u.T`` of ``blocks``."""
    products = [u @ u.T for u in blocks]
    return np.array([[math.fsum(p[i, j] for p in products) for j in range(4)] for i in range(4)]), len(products)


def mapped_rows(a, u):
    """The rows ``a z`` of normals ``u``, summed as ``simulate._rows`` sums
    them: the first normal's term, then each term with a nonzero
    coefficient in turn, each an exactly rounded product and sum."""
    rows = []
    for coef in a:
        row = coef[0] * u[0]
        for c, z in zip(coef[1:], u[1:]):
            if c:
                row = row + c * z
        rows.append(row)
    return np.array(rows).T


def repr_rows(block, first_row):
    """The dump lines of ``block``'s rows numbered from ``first_row`` as the
    writer formatted them before orjson did: each value by its ``repr``,
    the shortest text that round-trips it."""
    rows = enumerate(block.tolist(), first_row)
    return "".join(f"{row},{xa!r},{pa!r},{xb!r},{pb!r}\n" for row, (xa, pa, xb, pb) in rows).encode()


# Values at and around the edges where orjson's text and repr's differ:
# signed zeros, the smallest subnormal, both sides of 1e-4 and of 1e16, the
# largest float and the non-finite values.
EDGE_VALUES = [0.0, 5e-324, float(np.nextafter(1e-4, 0.0)), 1e-4, float(np.nextafter(1e16, 0.0)), 1e16]
EDGE_VALUES += [1.7976931348623157e308, math.inf, math.nan]
EDGE_VALUES += [-v for v in EDGE_VALUES]


def lone_edges():
    """One row per edge value, the value in one column and 0.5 in the others."""
    block = np.full((len(EDGE_VALUES), 4), 0.5)
    block[np.arange(len(EDGE_VALUES)), np.arange(len(EDGE_VALUES)) % 4] = EDGE_VALUES
    return block


# The sha256 of criterion 6's dump (tests/test_acceptance.py): simulate
# --n0 340 --va 1 --length 10 --count 80000 --seed 42 --partitions 4, serial
# and with 3 workers.  Taken from the repr writer at commit 77b713b.
CRITERION_6_DUMP_SHA256 = "dd33221075d9f566dd684c031a4b747e85585db737842f08321951b6757501b7"


def fresh_python(code, **env):
    """Run ``code`` in a new interpreter that imports this package's source,
    with ``env`` added to the environment; returns the completed run."""
    src = os.path.dirname(os.path.dirname(simulate.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path, **env}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)


@pytest.fixture
def row_maps(monkeypatch):
    """The arguments and the result of each ``_row_map`` call."""
    calls, row_map = [], simulate._row_map

    def recorded(*args):
        calls.append((*(a.copy() for a in args), row_map(*args)))
        return calls[-1][-1]

    monkeypatch.setattr(simulate, "_row_map", recorded)
    return calls


# Traced peaks of a one-partition run of 4 chunks: 1.08 MB with the dump
# and 0.011 MB without it (Python 3.11, numpy 2.4, orjson 3.8).  Without
# the dump no chunk is drawn; with it the chunk's normals take 0.13 MB, its
# rows and their scratch another 0.16 MB, and most of the rest is the
# writer's text of 1024 rows at a time, ~0.6 KB a row: orjson's text, its
# split lines and their join (0.63 MB more at 2048 rows).  The bounds sit
# ~2.5x and ~70x above them; at 2^17-round chunks the two chunk arrays
# alone would take 9.4 MB.
DUMP_PEAK_BOUND = 2_750_000
PEAK_BOUND = 750_000


def peak_memory(count, seed, dump_path=None):
    """Peak traced allocation of a one-partition run of ``count`` rounds.
    An untraced run first pays a first run's one-time costs: with a dump,
    the import of ``numpy.random`` (~0.56 MB)."""
    cfg = make_config(count=count, partitions=1, seed=seed)
    run_protocol(cfg, dump_path=dump_path)
    tracemalloc.start()
    try:
        run_protocol(cfg, dump_path=dump_path)
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
    def test_coefficients_match_the_reference_chain(self, kw):
        cfg = make_config(**kw)
        c = _coefficients(cfg)
        ref_x, ref_p = reference_coefficients(cfg)
        assert np.array_equal(ref_x, ref_p)
        # Both arms carry the source with one float gain, so the estimate
        # error has no source term at all; the reference, which rescales
        # Alice's outcome by its own float, leaves ~1 ulp of a source sample.
        assert c[0, 0] == 0.0
        assert abs(ref_x[0, 0]) <= 4e-16 * ref_x[1, 0]
        ref_x[0, 0] = 0.0
        assert np.allclose(c, ref_x, rtol=4e-16, atol=0.0)

    def test_rows_are_the_streams_normals_through_the_factor(self, tmp_path, row_maps):
        # A full chunk, then a shorter tail that reuses the same arrays.  The
        # Bartlett factor T comes from the stream's stdlib generator.  From the
        # start of its numpy generator a chunk of m rounds draws four blocks of
        # m normals Z; the rows are A Z, with A = K4 T4 chol(S)^-1 for S the
        # Gram matrix of all of Z, as exactly rounded products and sums.
        cfg = make_config(count=_CHUNK + 1000, partitions=1)
        path = tmp_path / "rounds.csv"
        run_protocol(cfg, dump_path=str(path))
        stream = RngStream(cfg.master_seed, 0)
        t = bartlett_factor(stream, cfg.count)
        z = list(partition_normals(stream, cfg.count))
        assert [u.shape[1] for u in z] == [_CHUNK, 1000]
        s, _ = exact_gram(z)
        ((k4, t4, s_summed, a),) = row_maps
        assert np.array_equal(k4, _block_map(_factor(cfg))[:4, :4]) and np.array_equal(t4, t[:4, :4])
        assert np.all(np.abs(s_summed - s) <= 1e-14 * np.sqrt(np.outer(np.diag(s), np.diag(s))))
        reference = k4 @ t4 @ np.linalg.inv(np.linalg.cholesky(s))
        assert np.all(np.abs(a - reference) <= 1e-13 * np.abs(reference).max(axis=1, keepdims=True))
        dumped = np.loadtxt(path, delimiter=",", skiprows=1)
        assert np.array_equal(dumped[:, 0], np.arange(cfg.count))
        assert np.array_equal(dumped[:, 1:], np.concatenate([mapped_rows(a, u) for u in z]))

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(
        n0=st.floats(1e-2, 1e34),
        share=st.floats(0.0, 1.0),
        det_a=DETECTORS,
        det_b=DETECTORS,
        length=st.floats(0.0, 300.0),
        eps0=st.floats(0.0, 1.0),
    )
    @example(n0=340.0, share=0.0, det_a=REF_DET, det_b=REF_DET, length=10.0, eps0=0.01)
    @example(n0=1e6, share=1.0, det_a=DetectorModel(1.0, 0.0), det_b=DetectorModel(1e-6, 10.0), length=0.0, eps0=0.0)
    @example(n0=1e34, share=1.0, det_a=REF_DET, det_b=REF_DET, length=10.0, eps0=0.01)
    @example(n0=1e34, share=1e-300, det_a=REF_DET, det_b=REF_DET, length=10.0, eps0=0.01)
    def test_has_the_exact_law_of_the_closed_forms(self, n0, share, det_a, det_b, length, eps0):
        # A row z @ R of three standard normals has covariance R.T @ R, the
        # chain's exact law of (est, B, d) in either quadrature, free of
        # Monte Carlo noise; x and p draw from disjoint normals.
        cfg = make_config(n0=n0, v_a=share * n0, length=length, eps0=eps0, det_a=det_a, det_b=det_b)
        r = _factor(cfg)
        assert not np.tril(r, -1).any()
        cov = r.T @ r
        predicted = analytic_moments(cfg.params, det_a, det_b, cfg.channel)
        delta = excess_noise_alice(cfg.params, det_a) + 1.0
        assert cov[2, 2] == pytest.approx(delta, rel=1e-12)
        # The absolute term covers the exact zeros at v_a = 0 and the
        # subnormal moments of a subnormal v_a.
        for q in (0, 1):
            expected = predicted[np.ix_([q, 2 + q], [q, 2 + q])]
            assert (np.abs(cov[:2, :2] - expected) <= 1e-12 * np.abs(expected) + 1e-300).all()

    @pytest.mark.parametrize("v_a", [0.0, 1.0])
    def test_overflow_is_a_parameter_error(self, v_a):
        cfg = make_config(n0=1e308, v_a=v_a, count=1000, partitions=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match="simulated second moments overflow"):
                run_protocol(cfg)


def assert_mean(samples, expected):
    """Each entry's sample mean over ``samples``' first axis lies within
    5 of its standard errors of ``expected``."""
    stderr = samples.std(axis=0) / math.sqrt(len(samples))
    assert np.all(np.abs(samples.mean(axis=0) - expected) <= 5.0 * stderr)


class TestNormalGram:
    """A partition's Gram matrix ``W`` of its rounds' six normals has the
    Wishart_6(n, I) law whatever its size: drawn round by round below 6
    rounds, through Bartlett's factor from 6 on.  Through the identity
    factor the partition's sums are ``W`` with its rows and columns
    permuted alike, which leaves that law as it is."""

    DRAWS = 3000

    @pytest.mark.parametrize("n", [1, 5, 6, 7, _CHUNK, 10**12])
    def test_gram_matrix_has_the_wishart_law(self, n):
        w = np.array([_partition_sums(np.eye(3), RngStream(33, k), n, 0, None) for k in range(self.DRAWS)])
        assert np.array_equal(w, w.transpose(0, 2, 1))
        # Mean n I; cov(W_ij, W_kl) = n (d_ik d_jl + d_il d_jk) over the 21
        # distinct entries, so variances 2n on the diagonal and n off it.
        i, j = np.triu_indices(6)
        centred = (w - n * np.eye(6))[:, i, j]
        assert_mean(centred, 0.0)
        same = np.equal.outer(i, i) & np.equal.outer(j, j)
        swapped = np.equal.outer(i, j) & np.equal.outer(j, i)
        cov = n * (same.astype(float) + swapped)
        assert_mean((centred[:, :, None] * centred[:, None, :]).reshape(self.DRAWS, -1), cov.ravel())


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

    def test_delta_follows_the_gaussian_rule_on_the_chunk_rows(self):
        # One partition: the summary must equal the stated formulas,
        # evaluated with exactly rounded sums of the d columns' moments,
        # which are r's d column through the normals' Gram matrix W = T T.T,
        # T the Bartlett factor drawn from the partition's stream.
        cfg = make_config(count=5000, partitions=1, seed=9)
        n, r = cfg.count, _factor(cfg)
        t = bartlett_factor(RngStream(cfg.master_seed, 0), n)
        w = np.array([[math.fsum(a * b) for b in t] for a in t])
        d = {4: [0, 1, 4], 5: [2, 3, 5]}  # the normals of d_x and of d_p

        def moment(i, j):
            return math.fsum(r[a, 2] * r[b, 2] * w[d[i][a], d[j][b]] for a in range(3) for b in range(3)) / n

        m44, m55, m45 = moment(4, 4), moment(5, 5), moment(4, 5)
        summary = run_protocol(cfg)
        assert summary.delta_hat == pytest.approx((m44 + m55) / 2.0, rel=1e-14)
        stderr = math.sqrt((m44**2 + m55**2 + 2.0 * m45**2) / (2.0 * n))
        assert summary.delta_stderr == pytest.approx(stderr, rel=1e-14)

    def test_delta_matches_closed_form_at_a_huge_modulation(self):
        cfg = make_config(n0=1e34, v_a=1e34, count=3000, partitions=1)
        summary = run_protocol(cfg)
        delta = excess_noise_alice(cfg.params, cfg.det_a) + 1.0
        assert abs(summary.delta_hat - delta) < 5.0 * summary.delta_stderr

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
            # Alice's moments near 1e-301: their squares underflow.
            (340.0, 1e-300, 10.0, REF_DET, 15),
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

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 5: the I_AB verdict compares I(est; B) with the closed form for the sender's "
        "modulation, a bias that 1e12 rounds resolve at the benchmark's n0 = 20000 (I_AB_z about -43)",
    )
    def test_i_ab_verdict_at_the_benchmark_config_and_1e12_rounds(self, capsys):
        argv = ["simulate", "--n0", "20000", "--va", "1", "--length", "10", "--count", "1000000000000"]
        assert main([*argv, "--partitions", "4"]) == 0
        assert "I_AB_verdict=PASS" in capsys.readouterr().out.splitlines()

    def test_zero_modulation_gives_zero_information(self):
        summary = run_protocol(make_config(v_a=0.0, seed=15))
        assert empirical_mutual_information(summary) == 0.0

    @staticmethod
    def summary_of(moments):
        moments = np.asarray(moments, dtype=float)
        return SimSummary(1000, moments, np.zeros_like(moments), 1.0, 0.0)

    def test_block_without_receiver_variance_is_singular(self):
        with pytest.raises(DegenerateDataError, match="singular empirical covariance block"):
            empirical_mutual_information(self.summary_of(np.zeros((4, 4))))

    def test_perfect_correlation_is_degenerate(self):
        moments = np.tile(np.eye(2), (2, 2))  # x_B = x_A and p_B = p_A
        with pytest.raises(DegenerateDataError, match="empirical correlation 1.000000 is not below 1"):
            empirical_mutual_information(self.summary_of(moments))

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

    def test_report_does_not_depend_on_the_hash_seed(self):
        # The stdlib generator's str seed is hashed by random's own sha512,
        # not by hash(), so PYTHONHASHSEED changes no draw.
        argv = ["simulate", "--n0", "340", "--va", "1", "--length", "10", "--count", "1000000", "--partitions", "4"]
        code = f"from passive_cvqkd import cli\nassert cli.main({argv!r}) == 0\n"
        first, second = (fresh_python(code, PYTHONHASHSEED=seed).stdout for seed in ("0", "1"))
        assert first.startswith("command=simulate\n") and first == second

    def test_partition_count_changes_the_stream_layout(self):
        a = run_protocol(make_config(count=40_000, partitions=1, seed=19))
        b = run_protocol(make_config(count=40_000, partitions=2, seed=19))
        assert not np.array_equal(a.moments, b.moments)

    def test_plain_summation_matches_exact_sums(self, monkeypatch, tmp_path, row_maps):
        # Several chunks per partition and a merge of two partitions, then
        # one 1e6-round partition of 245 chunks: the Gram matrix S of a
        # dumped partition's normals, summed chunk by chunk, must agree with
        # an exactly rounded sum of the same chunk products far below its
        # statistical error, and the summary must be read from the
        # partitions' sums.  The rows are formed but not written.
        monkeypatch.setattr(simulate, "_write_rows", lambda *args: None)
        part = str(tmp_path / "part.csv")
        for count, partitions, chunks in ((5 * _CHUNK + 17, 2, 6), (1_000_000, 1, 245)):
            cfg = make_config(count=count, partitions=partitions, seed=28)
            counts = [count // partitions + (k < count % partitions) for k in range(partitions)]
            r = _factor(cfg)
            row_maps.clear()
            sums = (_partition_sums(r, RngStream(28, k), n_rounds, 0, part) for k, n_rounds in enumerate(counts))
            second = sum(sums) / count
            total = 0
            for k, n_rounds in enumerate(counts):
                exact, products = exact_gram(partition_normals(RngStream(28, k), n_rounds))
                total += products
                diag = np.diag(exact)
                assert np.all(np.abs(row_maps[k][2] - exact) <= 1e-14 * np.sqrt(np.outer(diag, diag)))
            assert total == chunks
            summary = run_protocol(cfg)
            assert np.array_equal(summary.moments, second[:4, :4])
            assert summary.delta_hat == (second[4, 4] + second[5, 5]) / 2.0


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
    def test_header_and_roundtrip_identity(self, tmp_path, monkeypatch):
        written, write_rows = [], simulate._write_rows

        def recorded(fh, block, first_row):
            written.append(block.copy())
            write_rows(fh, block, first_row)

        monkeypatch.setattr(simulate, "_write_rows", recorded)
        cfg = make_config(count=500, partitions=1, seed=20)
        path = tmp_path / "rounds.csv"
        run_protocol(cfg, dump_path=str(path))
        (samples,) = written
        text = path.read_text().splitlines()
        assert text[0] == "round,xA,pA,xB,pB"
        assert len(text) == cfg.count + 1
        alice = load_quadrature_records(str(path), columns=("xA", "pA"))
        bob = load_quadrature_records(str(path), columns=("xB", "pB"))
        assert np.array_equal(alice.samples, samples[:, :2])
        assert np.array_equal(bob.samples, samples[:, 2:4])

    @pytest.mark.parametrize("count", [5, 6, _CHUNK + 123])
    def test_dumped_rows_reproduce_the_reported_moments(self, tmp_path, count):
        # Below 6 rounds the rows are the summary's own normals; from 6 on
        # they are a second draw mapped onto the summary's Gram matrix.
        cfg = make_config(count=count, partitions=1)
        path = tmp_path / "rounds.csv"
        summary = run_protocol(cfg, dump_path=str(path))
        rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)[:, 1:]
        gram = np.array([[math.fsum(a * b) for b in rows.T] for a in rows.T]) / count
        assert np.all(np.abs(gram - summary.moments) <= 1e-12 * np.abs(summary.moments))

    def test_rows_are_numbered_across_partitions(self, tmp_path):
        cfg = make_config(count=1001, partitions=3, seed=23)
        path = tmp_path / "rounds.csv"
        run_protocol(cfg, dump_path=str(path), workers=2)
        rows = path.read_text().splitlines()[1:]
        assert [int(r.split(",", 1)[0]) for r in rows] == list(range(cfg.count))

    def test_peak_memory_does_not_grow_with_count(self, tmp_path):
        dump = str(tmp_path / "r.csv")
        peak = peak_memory(4 * _CHUNK, 24, dump)
        assert peak <= 1.25 * peak_memory(_CHUNK, 24, dump)
        assert peak <= DUMP_PEAK_BOUND

    def test_peak_memory_without_dump_does_not_grow_with_count(self):
        peak = peak_memory(4 * _CHUNK, 27)
        assert peak <= 1.25 * peak_memory(_CHUNK, 27)
        assert peak <= PEAK_BOUND

    def test_run_without_dump_costs_the_same_at_any_count(self):
        # Bartlett's factor draws a partition's Gram matrix in 21 numbers.
        # The traced peaks differ only by tracemalloc's run-to-run jitter of
        # a few hundred bytes (freelists and caches).
        def run(count):
            return run_protocol(make_config(count=count, partitions=4))

        run(10**4)
        start = time.perf_counter()
        summary = run(10**12)
        assert time.perf_counter() - start < 1.0
        assert summary.count == 10**12 and abs(summary.delta_hat - 1.01) < 5.0 * summary.delta_stderr
        peaks = {10**4: [], 10**12: []}
        for count in [10**4, 10**12] * 3:
            tracemalloc.start()
            try:
                run(count)
                peaks[count].append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(min(peaks[10**12]) - min(peaks[10**4])) <= 1024

    def test_serial_peak_without_dump_does_not_grow_with_partitions(self):
        # Each partition's arguments are made as it runs and its sums are
        # merged as they arrive, so no per-partition list is held.
        def peak(partitions):
            cfg = make_config(count=10**12, partitions=partitions, seed=33)
            run_protocol(cfg)
            tracemalloc.start()
            try:
                run_protocol(cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(1000) <= 1.25 * peak(10)

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

    @pytest.mark.parametrize("overflow", [("--n0", "1e308"), ("--v-el", "1e300")], ids=["n0", "v_el"])
    @pytest.mark.parametrize("pool", [(), ("--partitions", "3", "--workers", "2")], ids=["serial", "pooled"])
    def test_overflow_leaves_an_empty_dump(self, tmp_path, capsys, overflow, pool):
        # The moment check runs before any row is copied into the dump.
        target = tmp_path / "rounds.csv"
        argv = ["simulate", "--n0", "340", "--va", "1", "--length", "10", "--count", "1000", *overflow, *pool]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([*argv, "--dump", str(target)]) == EXIT_CONFIG
        assert capsys.readouterr().err == "error: simulated second moments overflow\n"
        assert target.stat().st_size == 0
        assert list(tmp_path.iterdir()) == [target]

    def test_dump_into_missing_directory_is_io_error(self, tmp_path, capsys):
        target = tmp_path / "missing" / "rounds.csv"
        argv = ["simulate", "--n0", "340", "--va", "1", "--length", "10", "--count", "1000", "--dump", str(target)]
        assert main(argv) == EXIT_IO
        assert str(target) in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("workers", [1, 2], ids=["serial", "pooled"])
    def test_report_does_not_depend_on_the_dump(self, tmp_path, capsys, workers):
        # The dump's rows draw from the numpy generator, which no partition's
        # summary of 6 or more rounds uses, so the report and the summary are
        # the same with and without one.
        argv = ["simulate", "--n0", "340", "--va", "1", "--length", "10", "--count", "20000", "--partitions", "3"]
        argv += ["--workers", str(workers)]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        assert main([*argv, "--dump", str(tmp_path / "cli.csv")]) == 0
        assert capsys.readouterr().out == plain
        cfg = make_config(count=20_000, partitions=3, seed=34)
        a = run_protocol(cfg, workers=workers)
        b = run_protocol(cfg, dump_path=str(tmp_path / "lib.csv"), workers=workers)
        assert a.count == b.count and a.delta_hat == b.delta_hat and a.delta_stderr == b.delta_stderr
        assert np.array_equal(a.moments, b.moments) and np.array_equal(a.moment_stderr, b.moment_stderr)

    @pytest.mark.parametrize(
        "call",
        [
            "assert cli.main(ARGV + ['--workers', '1']) == 0",
            "assert cli.main(ARGV + ['--workers', '2']) == 0",
            "assert cli.main(ARGV + ['--workers', '2', '--dump', DUMP]) == 0",
            "simulate._partition_sums(np.eye(3), RngStream(1, 0), 10**6, 0, None)",
        ],
        ids=["serial", "pooled-parent", "pooled-dump-parent", "partition"],
    )
    def test_numpy_random_is_never_imported(self, tmp_path, call):
        # The first use of numpy.random costs a process ~6 MB of RSS.  A run
        # without a dump draws each partition's 21 numbers with the stdlib, and
        # a pool worker runs only _partition_sums; a pooled run's parent only
        # forks, merges and copies the parts, so a dump's draws stay in the
        # partitions.  Two usable CPUs are claimed, so a pool is started on
        # any machine.
        argv = ["simulate", "--n0", "340", "--va", "1", "--length", "10", "--count", "20000", "--partitions", "4"]
        code = (
            "import sys\n"
            "import numpy as np\n"
            "from passive_cvqkd import RngStream, cli, simulate\n"
            "simulate._usable_cpus = lambda: 2\n"
            f"ARGV, DUMP = {argv!r}, {str(tmp_path / 'r.csv')!r}\n"
            f"{call}\n"
            "print('numpy.random' in sys.modules, file=sys.stderr)\n"
        )
        assert fresh_python(code).stderr == "False\n"

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(
        block=hnp.arrays(np.float64, st.tuples(st.integers(1, 40), st.just(4)), elements=st.floats()),
        first_row=st.integers(0, 2**53),
    )
    @example(block=lone_edges(), first_row=0)
    @example(block=lone_edges(), first_row=10**12 - 5)
    @example(block=np.array(EDGE_VALUES[:12]).reshape(3, 4), first_row=10**12)
    @example(block=np.array(EDGE_VALUES[6:]).reshape(3, 4), first_row=10**12 + 1)
    # Three 1024-row writes in column-major order, as _rows gives them, that
    # end at the last row number orjson formats.
    @example(block=np.asfortranarray(np.tile(lone_edges(), (150, 1))), first_row=2**64 - 150 * len(EDGE_VALUES))
    def test_rows_are_written_as_repr_writes_them(self, block, first_row):
        fh = io.BytesIO()
        simulate._write_rows(fh, block, first_row)
        assert fh.getvalue() == repr_rows(block, first_row)

    @pytest.mark.parametrize("workers", ["1", "3"], ids=["serial", "pooled"])
    def test_criterion_6_dump_is_the_repr_writers(self, tmp_path, workers):
        dump = tmp_path / "rounds.csv"
        argv = ["simulate", "--n0", "340", "--va", "1", "--length", "10", "--count", "80000", "--seed", "42"]
        assert main([*argv, "--partitions", "4", "--workers", workers, "--dump", str(dump)]) == 0
        assert hashlib.sha256(dump.read_bytes()).hexdigest() == CRITERION_6_DUMP_SHA256

    @pytest.mark.parametrize(
        "call, imported",
        [
            ("cli.build_parser()", False),
            ("assert cli.main(ARGV + ['--workers', '1']) == 0", False),
            ("assert cli.main(ARGV + ['--workers', '2']) == 0", False),
            ("assert cli.main(ARGV + ['--workers', '1', '--dump', DUMP]) == 0", True),
            ("assert cli.main(['analyze', *RECORDS, '--columns', 'xB,pB']) == 0", True),
        ],
        ids=["parser", "serial", "pooled", "serial-dump", "analyze"],
    )
    def test_only_a_dump_or_a_record_load_imports_orjson(self, tmp_path, call, imported):
        # Only _write_rows and the g2 module import orjson, so the parser, a
        # run without a dump and its pool stay off it; a serial dump formats
        # its rows in the process itself, and analyze converts its records'
        # text with it.  Two usable CPUs are claimed, so a pool is started on
        # any machine.
        argv = ["simulate", "--n0", "340", "--va", "1", "--length", "10", "--count", "20000", "--partitions", "4"]
        records = [str(tmp_path / "thermal.csv"), str(tmp_path / "vacuum.csv")]
        if "RECORDS" in call:  # dumped here, so that the fresh interpreter only loads them
            for path, va in zip(records, ["1", "0"]):
                with contextlib.redirect_stdout(io.StringIO()):
                    assert main([*argv[:4], va, *argv[5:], "--dump", path]) == 0
        code = (
            "import sys\n"
            "from passive_cvqkd import cli, simulate\n"
            "simulate._usable_cpus = lambda: 2\n"
            f"ARGV, DUMP, RECORDS = {argv!r}, {str(tmp_path / 'r.csv')!r}, {records!r}\n"
            f"{call}\n"
            "print('orjson' in sys.modules, file=sys.stderr)\n"
        )
        assert fresh_python(code).stderr == f"{imported}\n"

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
        # The moments divide by float(count), so the largest float is the last count accepted.
        assert make_config(count=int(sys.float_info.max)).count == int(sys.float_info.max)
        with pytest.raises(ParameterError, match="count must be at most 1.7976931348623157e"):
            make_config(count=int(sys.float_info.max) + 1)
