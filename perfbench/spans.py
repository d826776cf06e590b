"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark's own files: ``install`` replaces a
layer's public function with a recording wrapper under every module
attribute that names it, so calls made through the calling module's
binding (``passive_cvqkd.keyrate.total_noise``, ``passive_cvqkd.cli.
run_protocol``...) are seen.  The untraced run installs nothing.

Each span holds a name, start and end (``perf_counter_ns``), the index of
its parent span (-1 at top level) and the benchmark operation it belongs
to.  Spans stay in flat arrays while the run lasts and are written out
once, at the end.
"""

from __future__ import annotations

import statistics
import sys
import time
from array import array
from dataclasses import dataclass

import numpy as np


class SpanRecorder:
    """Collects spans of one process; single-threaded by construction.

    Because calls nest strictly, children of one span never overlap, so
    the time a span's children cover is the sum of their durations.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("l")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.op = array("l")
        self.observed: dict[str, list] = {}
        self.op_id = -1
        self._stack: list[int] = []

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn, name: str, observe=None):
        """Return ``fn`` wrapped so that each call records one span.

        ``observe(result)``, when given, maps the return value to a
        value kept in ``observed[name]``.
        """
        nid = self._intern(name)
        stack = self._stack
        clock = time.perf_counter_ns
        kept = self.observed.setdefault(name, []) if observe is not None else None

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.op_id)
            self.start.append(0)
            self.end.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if kept is not None:
                kept.append(observe(result))
            return result

        traced.__wrapped__ = fn
        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.array(self.name_id, dtype=np.int32),
            "start_ns": np.array(self.start, dtype=np.int64),
            "end_ns": np.array(self.end, dtype=np.int64),
            "parent": np.array(self.parent, dtype=np.int64),
            "op": np.array(self.op, dtype=np.int32),
        }

    def save(self, path: str) -> None:
        """Write every span to a ``.npz`` file, with the name table."""
        np.savez(path, names=np.array(self.names), **self.arrays())


def install(recorder: SpanRecorder, targets, observers=None):
    """Wrap each ``(module, function_name)`` target wherever it is bound.

    The span name is ``<layer>.<function>`` with the layer taken from the
    defining module.  Every loaded module of the same package that binds
    the same function object gets the wrapper, so callers that imported
    the name are traced too.  Targets that no longer exist are skipped.

    Returns a callable that restores the original bindings.
    """
    observers = observers or {}
    undo = []
    for module, attr in targets:
        fn = getattr(module, attr, None)
        if fn is None:
            continue
        layer = module.__name__.rsplit(".", 1)[-1]
        name = f"{layer}.{attr}"
        wrapped = recorder.wrap(fn, name, observers.get(name))
        package = module.__name__.split(".", 1)[0]
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, wrapped)
                    undo.append((mod, key, fn))

    def restore() -> None:
        for mod, key, fn in reversed(undo):
            setattr(mod, key, fn)

    return restore


def span_overhead_ns(repeats: int = 5, calls: int = 20_000) -> float:
    """Extra caller-visible cost of one recorded span, in ns.

    Median over ``repeats`` of (wrapped no-op loop - bare no-op loop) /
    ``calls``; used to take the recorder's own cost out of parent spans.
    """

    def noop():
        return None

    extra = []
    for _ in range(repeats):
        wrapped = SpanRecorder().wrap(noop, "calibration")
        t0 = time.perf_counter_ns()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter_ns()
        for _ in range(calls):
            wrapped()
        t2 = time.perf_counter_ns()
        extra.append(((t2 - t1) - (t1 - t0)) / calls)
    return max(statistics.median(extra), 0.0)


@dataclass
class SpanTimes:
    """Per-span durations with the recorder's cost taken out.

    ``duration`` removes ``overhead_ns`` once per descendant span;
    ``self_time`` is the duration minus the time covered by direct
    children, again less ``overhead_ns`` per direct child.
    """

    duration: np.ndarray
    self_time: np.ndarray


def span_times(start, end, parent, overhead_ns: float = 0.0) -> SpanTimes:
    """Compute compensated duration and self time of every span.

    ``parent[i]`` is the index of span i's parent or -1; a parent is
    always recorded before its children, so ``parent[i] < i``.
    """
    start = np.asarray(start, dtype=np.float64)
    end = np.asarray(end, dtype=np.float64)
    parent = np.asarray(parent, dtype=np.int64)
    raw = end - start
    n = len(raw)
    has_parent = parent >= 0
    children_time = np.zeros(n)
    n_children = np.zeros(n)
    np.add.at(children_time, parent[has_parent], raw[has_parent])
    np.add.at(n_children, parent[has_parent], 1.0)

    # Depth by repeated propagation; it converges after max-depth passes.
    depth = np.zeros(n, dtype=np.int64)
    while True:
        new = np.where(has_parent, depth[np.where(has_parent, parent, 0)] + 1, 0)
        if np.array_equal(new, depth):
            break
        depth = new
    n_desc = np.zeros(n)
    for d in range(int(depth.max(initial=0)), 0, -1):
        level = depth == d
        np.add.at(n_desc, parent[level], n_desc[level] + 1.0)

    return SpanTimes(
        duration=raw - n_desc * overhead_ns,
        self_time=raw - children_time - n_children * overhead_ns,
    )
