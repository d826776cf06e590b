"""The benchmark's workloads: how each draws its operations from the seed.

An operation is one or more ``passive_cvqkd.cli.main(argv)`` calls run
back to back in-process; the next operation starts only when the last
one returned (a closed loop with one client).  All of an operation's
inputs come from ``workload_rng(name, seed)``, so the same seed gives
the same operations in the same order.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import time
import traceback
from dataclasses import dataclass, field

# CLI defaults the workloads rely on: receiver electronic noise (see
# passive_cvqkd.cli.DEFAULTS) and bootstrap resamples of `analyze`.
V_EL = 0.1
N_BOOT = 200

# Length at which 0.2 dB/km fiber reaches the transmittance floor 1e-15.
L_FLOOR_KM = 750.0


def workload_rng(name: str, seed: int) -> random.Random:
    """The one source of every input a workload draws."""
    return random.Random(f"{name}:{seed}")


@dataclass
class Op:
    """One benchmark operation: CLI argument lists run in order."""

    argvs: list[list[str]]
    work: float
    meta: dict = field(default_factory=dict)


def run_op(op: Op, main) -> tuple[list[int], float, list[str]]:
    """Run an operation; returns exit codes, wall seconds and stdout texts.

    A command that exits non-zero ends the operation.  An exception that
    escapes ``main`` is printed and recorded as exit code -1.
    """
    codes, outputs = [], []
    t0 = time.perf_counter()
    for argv in op.argvs:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:
                traceback.print_exc()
                code = -1
        codes.append(code)
        outputs.append(buf.getvalue())
        if code != 0:
            break
    return codes, time.perf_counter() - t0, outputs


def _flag(name: str, value) -> list[str]:
    return [f"--{name}", str(value)]


class Workload:
    """Base: a workload with no set-up, no probes and nothing to collect."""

    name = ""
    unit = ""
    job_ops = 1  # operations in one job, the unit that wall_s times
    pin_ops = True  # run on one CPU at a time, the next one in turn (child.py)

    def __init__(self, nproc: int):
        self.nproc = nproc

    def params(self) -> dict:
        raise NotImplementedError

    def setup(self, workdir: str, seed: int) -> None:
        """Write inputs that every operation shares (untimed)."""

    def ops(self, rng: random.Random, workdir: str):
        """Endless iterator of operations."""
        raise NotImplementedError

    def probes(self, rng: random.Random, workdir: str) -> list[Op]:
        """Extra operations of the traced run that isolate one layer."""
        return []

    def collect(self, op: Op, workdir: str) -> dict:
        """Facts about an operation's output files, gathered untimed."""
        return {}


class SweepGrid(Workload):
    name = "sweep-grid"
    unit = "points"
    N0 = (50.0, 100.0, 500.0)
    LENGTHS = tuple(float(k) for k in range(101))
    CHECKED_ROWS = 20

    def params(self):
        return {
            "argv": ["sweep", "--out", "rates.csv"],
            "n0": list(self.N0),
            "length_km": "0:100:1",
            "points": len(self.N0) * len(self.LENGTHS),
            "checked_rows_per_op": self.CHECKED_ROWS,
        }

    def ops(self, rng, workdir):
        out = os.path.join(workdir, "rates.csv")
        rows = len(self.N0) * len(self.LENGTHS)
        grid = {"n0": list(self.N0), "length_km": list(self.LENGTHS)}
        while True:
            sample = sorted(rng.sample(range(rows), self.CHECKED_ROWS))
            yield Op([["sweep", "--out", out]], rows, {"grid": grid, "check_rows": sample})

    def collect(self, op, workdir):
        with open(op.argvs[0][2], encoding="utf-8") as fh:
            return {"csv": fh.read()}


class OptimizePoints(Workload):
    name = "optimize-points"
    unit = "calls"
    job_ops = 100
    N0_RANGE = (20.0, 5000.0)
    LENGTH_RANGE = (0.0, L_FLOOR_KM)

    def params(self):
        return {
            "argv": ["optimize", "--n0", "<n0>", "--length", "<L>"],
            "n0": {"dist": "log-uniform", "range": list(self.N0_RANGE)},
            "length_km": {"dist": "uniform", "range": list(self.LENGTH_RANGE)},
            "significant_digits": 6,
            "ops_per_job": self.job_ops,
        }

    def ops(self, rng, workdir):
        lo, hi = self.N0_RANGE
        while True:
            n0 = f"{lo * (hi / lo) ** rng.random():.6g}"
            length = f"{rng.uniform(*self.LENGTH_RANGE):.6g}"
            yield Op([["optimize", "--n0", n0, "--length", length]], 1, {"n0": n0, "length": length})


class _Simulate(Workload):
    """Shared argv building for the two workloads that run ``simulate``.

    Both use a bright source, n0 = 20000.  The ``I_AB`` verdict of
    ``simulate`` compares the empirical information between the sender's
    estimate and the receiver with the closed form for the sender's
    actual modulation; the two differ by a term that grows with v_a / n0.
    At the README's n0 = 340 the gap is 2.5 stderr of 1e6 rounds and the
    verdict fails on about 1 in 60 operations; at n0 = 20000 it is below
    0.05 stderr, and the simulation costs the same.  test_perfbench.py
    pins that defect.
    """

    N0 = VA = LENGTH = COUNT = 0

    def sim_argv(self, seed, partitions: int = 1, workers: int = 1, dump: str | None = None):
        argv = ["simulate", *_flag("n0", self.N0), *_flag("va", self.VA), *_flag("length", self.LENGTH)]
        argv += [*_flag("count", self.COUNT), *_flag("seed", seed)]
        argv += [*_flag("partitions", partitions), *_flag("workers", workers)]
        if dump:
            argv += _flag("dump", dump)
        meta = {"count": self.COUNT, "workers": workers, "dump": dump is not None}
        return argv, meta


class McSimulate(_Simulate):
    name = "mc-simulate"
    unit = "rounds"
    pin_ops = False  # pool workers inherit the affinity; they need every CPU
    N0, VA, LENGTH, COUNT, PARTITIONS = 20000, 1, 10, 1_000_000, 4
    SERIAL_PROBES = 2

    @property
    def workers(self) -> int:
        return max(1, min(2, self.nproc))

    def params(self):
        argv, _ = self.sim_argv("<seed>", self.PARTITIONS, self.workers)
        return {"argv": argv, "serial_probes": self.SERIAL_PROBES}

    def ops(self, rng, workdir):
        while True:
            argv, meta = self.sim_argv(rng.randrange(2**31), self.PARTITIONS, self.workers)
            yield Op([argv], self.COUNT, {"sim": meta})

    def probes(self, rng, workdir):
        out = []
        for _ in range(self.SERIAL_PROBES):
            argv, meta = self.sim_argv(rng.randrange(2**31), self.PARTITIONS, 1)
            out.append(Op([argv], self.COUNT, {"sim": meta}))
        return out


class RecordPipeline(_Simulate):
    name = "record-pipeline"
    unit = "rows"
    N0, VA, LENGTH, COUNT = 20000, 20, 5, 200_000
    VACUUM_ROWS = 200_000
    NODUMP_PROBES = 3

    def params(self):
        argv, _ = self.sim_argv("<seed>", dump="rounds.csv")
        return {
            "simulate_argv": argv,
            "analyze_argv": self._analyze_argv("rounds.csv", "vacuum.csv", "hist.csv"),
            "vacuum": {"rows": self.VACUUM_ROWS, "header": "xB,pB", "variance": 1.0 + V_EL},
            "n_boot": N_BOOT,
            "nodump_probes": self.NODUMP_PROBES,
        }

    @staticmethod
    def _analyze_argv(dump, vacuum, hist):
        return ["analyze", dump, vacuum, "--columns", "xB,pB", "--histogram", hist]

    def setup(self, workdir, seed):
        import numpy as np

        g = np.random.default_rng(seed)
        rows = g.normal(0.0, (1.0 + V_EL) ** 0.5, size=(self.VACUUM_ROWS, 2))
        np.savetxt(os.path.join(workdir, "vacuum.csv"), rows, delimiter=",", header="xB,pB", comments="")

    def ops(self, rng, workdir):
        dump = os.path.join(workdir, "rounds.csv")
        analyze = self._analyze_argv(dump, os.path.join(workdir, "vacuum.csv"), os.path.join(workdir, "hist.csv"))
        while True:
            argv, meta = self.sim_argv(rng.randrange(2**31), dump=dump)
            yield Op([argv, analyze], self.COUNT, {"sim": meta})

    def probes(self, rng, workdir):
        out = []
        for _ in range(self.NODUMP_PROBES):
            argv, meta = self.sim_argv(rng.randrange(2**31))
            out.append(Op([argv], self.COUNT, {"sim": meta}))
        return out

    def collect(self, op, workdir):
        if not op.meta["sim"]["dump"]:
            return {}
        path = os.path.join(workdir, "rounds.csv")
        if not os.path.exists(path):
            return {"dump_lines": 0, "dump_bytes": 0}
        lines = 0
        with open(path, "rb") as fh:
            while chunk := fh.read(1 << 20):
                lines += chunk.count(b"\n")
        return {"dump_lines": lines, "dump_bytes": os.path.getsize(path)}


WORKLOADS = {w.name: w for w in (SweepGrid, OptimizePoints, McSimulate, RecordPipeline)}
