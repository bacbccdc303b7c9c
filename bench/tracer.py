"""Spans and memory peaks around tropkit's public functions, from outside.

Nothing in tropkit changes.  :func:`patch` swaps each public function of
each module for a wrapper, in every tropkit namespace that binds it (so
``from .analysis import kernel_apply`` inside ``hamilton_jacobi`` is
covered too), and returns the undo.  Two wrappers exist:

* :class:`SpanRecorder` keeps ``[name, start, end, parent]`` per call in
  memory; self time is a span's duration minus its children's.
* :class:`PeakRecorder` records the ``tracemalloc`` peak inside a call,
  above what was allocated when the call began.  It runs in a pass of its
  own, because tracemalloc slows every allocation.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
import tracemalloc
from collections import defaultdict

MODULES = (
    "semiring", "linalg", "analysis", "hamilton_jacobi", "dequantize",
    "polytope", "fractal", "amoeba", "cli",
)
# read_edge_list is parse_edge_list on an open file: one span covers both,
# so that read_edge_list's self time is the parsing
UNWRAPPED = ("linalg.parse_edge_list",)
RESIDUAL_TOL = 1e-9  # the amoeba module's certificate for a kept root


def public_functions(tk) -> dict:
    """``{"module.name": function}`` for every public function and ⊕/⊙."""
    out = {}
    for short in MODULES:
        mod = sys.modules[f"tropkit.{short}"]
        for name in mod.__all__:
            obj = getattr(mod, name)
            key = f"{short}.{name}"
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and key not in UNWRAPPED:
                out[key] = obj
    out["semiring.Semiring.add"] = tk.Semiring.add
    out["semiring.Semiring.mul"] = tk.Semiring.mul
    return out


def patch(tk, wrappers: dict):
    """Install ``{"module.name": wrapper}`` everywhere the original is bound; return the undo."""
    originals = public_functions(tk)
    undo = []
    namespaces = [m for n, m in sys.modules.items() if n == "tropkit" or n.startswith("tropkit.")]
    for key, wrapper in wrappers.items():
        orig = originals[key]
        if key.startswith("semiring.Semiring."):
            attr = key.rsplit(".", 1)[1]
            setattr(tk.Semiring, attr, wrapper)
            undo.append((tk.Semiring, attr, orig))
            continue
        for mod in namespaces:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapper)
                    undo.append((mod, attr, orig))

    def restore():
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)

    return restore


class SpanRecorder:
    """In-memory spans ``[name, start, end, parent]`` and per-name counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, int] = defaultdict(int)

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn):
        observe = _count_roots if name == "amoeba.slice_roots" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if observe is not None:
                observe(self.counters, result)
            return result

        return traced

    def self_times(self, first: int = 0) -> list[tuple[str, float]]:
        """``(name, self seconds)`` per span from index ``first`` on.

        The spans before ``first`` must all be closed, so that no span from
        ``first`` on is a child of one of them.
        """
        spans = self.spans[first:]
        child = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= first:
                child[parent - first] += end - start
        return [(s[0], s[2] - s[1] - c) for s, c in zip(spans, child)]


def _count_roots(counters, result) -> None:
    _, _, residuals = result
    counters["amoeba.roots_returned"] += int(residuals.size)
    counters["amoeba.roots_kept"] += int((residuals <= RESIDUAL_TOL).sum())


class PeakRecorder:
    """``(name, size, peak bytes)`` per call, the peak taken above the call's start."""

    def __init__(self):
        self.records: list[tuple[str, str, int]] = []
        self.stack: list[list[int]] = []

    def wrap(self, name: str, fn, size_of):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            current, peak = tracemalloc.get_traced_memory()
            if self.stack:  # keep the enclosing call's peak before resetting it
                self.stack[-1][1] = max(self.stack[-1][1], peak)
            tracemalloc.reset_peak()
            entry = [current, current]
            self.stack.append(entry)
            try:
                return fn(*args, **kwargs)
            finally:
                top = max(entry[1], tracemalloc.get_traced_memory()[1])
                self.stack.pop()
                if self.stack:
                    self.stack[-1][1] = max(self.stack[-1][1], top)
                self.records.append((name, size_of(*args, **kwargs), top - entry[0]))

        return traced
