"""Spans recorded around the benchmark's calls into each intfunc layer.

A span is one call: its name (``<layer>.<function>``), start and end on the
``perf_counter`` clock, the index of the enclosing span (-1 for a root) and
the id of the op it belongs to.  Spans stay in memory while the workload
runs and are written out once at the end.  A span's self time is its
duration minus the durations of its direct children; calls made in one
thread nest, so the children never overlap.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter

OP_SPAN = "op"
LAYERS = ("core", "curves", "cli", "calculus", "render", "bench")


def layer_of(name: str) -> str:
    """``core.generate`` -> ``core``; the op span and glue belong to ``bench``."""
    layer = name.split(".", 1)[0]
    return layer if layer in LAYERS else "bench"


class NullTracer:
    """Calls straight through; used for the untraced runs."""

    op = 0
    tracing = False

    def call(self, name, fn, *args):
        return fn(*args)

    def count(self, name, n):
        pass


class Tracer:
    """Records a span around every call made through it."""

    tracing = True

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, op]
        self.counts: list[tuple[int, str, int]] = []   # (op, name, units)
        self.op = 0
        self._stack: list[int] = []

    def call(self, name, fn, *args):
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        try:
            return fn(*args)
        finally:
            span[2] = perf_counter()
            self._stack.pop()

    def count(self, name, n):
        """Attach ``n`` units of work (steps, rows, cells...) to ``name``."""
        self.counts.append((self.op, name, n))

    def summary(self, slowdown: dict | None = None) -> dict:
        """Per span name: calls, busy seconds, self seconds and work units.

        ``slowdown`` maps an op id to the host's slowness during that op;
        the durations of the op's spans are divided by it.
        """
        durations = [(end - start) / (slowdown[op] if slowdown else 1.0)
                     for _, start, end, _, op in self.spans]
        child_time = [0.0] * len(self.spans)
        for index, span in enumerate(self.spans):
            if span[3] >= 0:
                child_time[span[3]] += durations[index]
        out: dict[str, dict] = defaultdict(
            lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "units": 0})
        for index, span in enumerate(self.spans):
            entry = out[span[0]]
            entry["calls"] += 1
            entry["busy_s"] += durations[index]
            entry["self_s"] += durations[index] - child_time[index]
        for _, name, n in self.counts:
            out[name]["units"] += n
        return dict(out)

    def units_per_op(self, name: str) -> list[int]:
        """Work units of ``name`` summed per op, in op order."""
        per_op: dict[int, int] = defaultdict(int)
        for op, counted, n in self.counts:
            if counted == name:
                per_op[op] += n
        return [per_op[op] for op in sorted(per_op)]

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans,
                       "counts": self.counts}, handle)
