"""Spans recorded around the benchmark's calls into the library.

A span is (name, start_ns, end_ns, parent, request): `parent` is the index
of the enclosing span (-1 for none) and `request` the index of the
outermost span, so all spans of one request share it. Spans stay in
memory until the run ends. With tracing off, `NullTracer` hands back the
library function itself, so the timed path carries no wrapper.
"""

from __future__ import annotations

import time
from collections import defaultdict

from stats import central_mean

_now = time.perf_counter_ns


class NullTracer:
    enabled = False

    def wrap(self, name, fn):
        return fn

    def call(self, name, fn, *args):
        return fn(*args)


class Tracer:
    enabled = True

    def __init__(self):
        self.spans: list[tuple | None] = []
        self._stack: list[int] = []

    def call(self, name, fn, *args):
        stack = self._stack
        parent = stack[-1] if stack else -1
        index = len(self.spans)
        request = stack[0] if stack else index
        self.spans.append(None)
        stack.append(index)
        start = _now()
        try:
            return fn(*args)
        finally:
            end = _now()
            stack.pop()
            self.spans[index] = (name, start, end, parent, request)

    def wrap(self, name, fn):
        def traced(*args):
            return self.call(name, fn, *args)

        return traced

    def durations(self, name: str) -> list[int]:
        return [s[2] - s[1] for s in self.spans if s is not None and s[0] == name]

    def summary(self) -> dict:
        """Count, total and self time in ms per span name.

        Self time is a span's duration less the time its child spans cover.
        """
        child_ns = defaultdict(int)
        for span in self.spans:
            if span is not None and span[3] >= 0:
                child_ns[span[3]] += span[2] - span[1]
        out: dict[str, dict] = {}
        for index, span in enumerate(self.spans):
            if span is None:
                continue
            row = out.setdefault(span[0], {"count": 0, "total_ms": 0.0, "self_ms": 0.0})
            duration = span[2] - span[1]
            row["count"] += 1
            row["total_ms"] += duration / 1e6
            row["self_ms"] += (duration - child_ns[index]) / 1e6
        return out


def null_span_ns(repeats: int = 20000) -> float:
    """Cost of an empty span, subtracted from per-call timings."""
    tracer = Tracer()
    noop = int
    for _ in range(repeats):
        tracer.call("null", noop)
    return central_mean(tracer.durations("null"))
