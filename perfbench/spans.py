"""In-memory span tracer for the mmclust benchmark.

Spans are recorded from the benchmark's own files: ``patched`` swaps public
functions for timing wrappers in the module namespaces where the program
looks them up, and puts the originals back on exit, so nothing under ``src/``
changes.  Each span keeps its name, start, end and parent, plus the computed
flop and byte counts a wrapper may attach.  Spans are held in flat arrays and
summarised (per-name totals, self time) with numpy once the run ends.
"""

from __future__ import annotations

import contextlib
import functools
from array import array
from time import perf_counter

import numpy as np


class Tracer:
    """Records nested spans of one single-threaded run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.flop = array("d")
        self.byte = array("d")
        self._stack = [-1]

    def _open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self.flop.append(0.0)
        self.byte.append(0.0)
        self._stack.append(i)
        return i

    @contextlib.contextmanager
    def span(self, name: str):
        """Record the enclosed block as one span; yields the span's index."""
        i = self._open(name)
        t0 = perf_counter()
        try:
            yield i
        finally:
            t1 = perf_counter()
            self.start[i] = t0
            self.end[i] = t1
            self._stack.pop()

    def wrap(self, name: str, fn, work=None):
        """Timing wrapper for ``fn``.  ``work(*args, **kwargs)``, if given,
        returns the call's computed ``(flop, byte)`` counts; it runs after the
        span has closed.  The body repeats ``span`` inline: a generator-based
        context manager would add its own cost to every traced call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self._open(name)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self.start[i] = t0
                self.end[i] = t1
                self._stack.pop()
                if work is not None:
                    self.flop[i], self.byte[i] = work(*args, **kwargs)

        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "flop": np.frombuffer(self.flop, dtype=np.float64).copy(),
            "byte": np.frombuffer(self.byte, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        """Write every span, plus the name table, as one ``.npz`` file."""
        np.savez(path, names=np.array(self.names, dtype=str), **self.arrays())


@contextlib.contextmanager
def patched(replacements):
    """Set ``(owner, attribute, value)`` triples for the duration of the block,
    restoring every original value on exit, including after an error."""
    saved = []
    try:
        for owner, attr, value in replacements:
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


def summarize(arrays: dict[str, np.ndarray], names: list[str], roots) -> dict[str, dict]:
    """Per-name totals over the spans that descend from one of ``roots``.

    Returns ``{name: {"calls", "s", "self_s", "flop", "byte"}}``.  A span's
    self time is its duration minus the durations of its direct children
    (spans of one thread nest, so the children never overlap).
    """
    parent = arrays["parent"]
    n = parent.size
    if n == 0:
        return {}
    dur = arrays["end"] - arrays["start"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    self_time = dur - child

    # pointer jumping: every span ends up pointing at its top-level ancestor
    root = np.where(has_parent, parent, np.arange(n))
    while True:
        nxt = root[root]
        if np.array_equal(nxt, root):
            break
        root = nxt
    keep = np.isin(root, np.asarray(list(roots), dtype=np.int64))

    ids = arrays["name_id"][keep]
    k = len(names)
    totals = {
        "calls": np.bincount(ids, minlength=k),
        "s": np.bincount(ids, weights=dur[keep], minlength=k),
        "self_s": np.bincount(ids, weights=self_time[keep], minlength=k),
        "flop": np.bincount(ids, weights=arrays["flop"][keep], minlength=k),
        "byte": np.bincount(ids, weights=arrays["byte"][keep], minlength=k),
    }
    return {
        name: {key: float(col[j]) for key, col in totals.items()}
        for j, name in enumerate(names)
    }
