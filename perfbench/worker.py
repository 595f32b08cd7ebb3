"""One benchmark process: set up a workload, then time it or trace it.

run.py starts this script with the library's `src/` on PYTHONPATH. It
prints `ready` once set-up (imports, seeded inputs, warm-up) is done, so
the parent can time set-up from process start, and then one JSON line
with the measurements unless `--setup-only` is given.

The loop is closed: one caller, the next request only after the last one
returned. A timed run goes through whole cycles until `--seconds` have
passed; a traced run times half of that untraced, replays the same
requests with spans, then runs the layer probe.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
import time
from collections import Counter
from pathlib import Path

import stats
import workloads
from tracing import NullTracer, Tracer


class Tally:
    """Request times and item counts of one loop."""

    def __init__(self):
        self.times: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.why = Counter()
        self.notes = Counter()
        self.correct = True

    def record(self, workload, request, seconds: float, out) -> None:
        self.times.append(seconds)
        n = workload.items(request)
        self.attempted += n
        if isinstance(out, Crash):
            self._unchecked(n, f"raised {type(out.exc).__name__}")
            return
        try:
            outcome = workload.check(request, out)
        except (ValueError, TypeError, AttributeError, KeyError, IndexError) as exc:
            self._unchecked(n, f"malformed output: {exc}")
            return
        self.failed += outcome.failed
        self.why.update(outcome.why)
        self.notes.update(outcome.notes)

    def _unchecked(self, n: int, reason: str) -> None:
        # Output the checks cannot classify makes the whole run incorrect.
        self.failed += n
        self.why[reason] += n
        self.correct = False

    @property
    def passed(self) -> int:
        return self.attempted - self.failed


class Crash:
    """An exception the library does not document for this call."""

    def __init__(self, exc: Exception):
        self.exc = exc


def _execute(fn, *args):
    """Time one request. Workloads return the library's documented
    exceptions as results; any other is wrapped in a Crash."""
    start = time.perf_counter()
    try:
        out = fn(*args)
    except Exception as exc:  # boundary: recorded against the run
        out = Crash(exc)
    return time.perf_counter() - start, out


def timed(workload, seconds: float) -> tuple[Tally, int]:
    tally = Tally()
    tracer = NullTracer()
    deadline = time.perf_counter() + seconds
    cycle = 0
    while True:
        for request in workload.cycle(cycle):
            elapsed, out = _execute(workload.execute, request, tracer)
            tally.record(workload, request, elapsed, out)
        cycle += 1
        if time.perf_counter() >= deadline:
            return tally, cycle


def traced(workload, seconds: float) -> tuple[Tally, Tracer, float]:
    """Untraced for half the time, then the same requests with spans.

    Returns the traced tally, the spans and the tracing overhead in
    percent of the untraced request time.
    """
    plain = NullTracer()
    requests = []
    plain_s = 0.0
    deadline = time.perf_counter() + seconds / 2.0
    cycle = 0
    while time.perf_counter() < deadline:
        for request in workload.cycle(cycle):
            elapsed, _ = _execute(workload.execute, request, plain)
            plain_s += elapsed
            requests.append(request)
            if time.perf_counter() >= deadline:
                break
        cycle += 1
    tracer = Tracer()
    tally = Tally()
    traced_s = 0.0
    for request in requests:
        elapsed, out = _execute(tracer.call, "request", workload.execute, request, tracer)
        traced_s += elapsed
        tally.record(workload, request, elapsed, out)
        if not isinstance(out, Crash):
            workload.direct(request, out, tracer)
    return tally, tracer, 100.0 * (traced_s / plain_s - 1.0)


def peak_rss_mb(workload_name: str) -> float:
    # ru_maxrss is in KiB on Linux; for children it is the largest child.
    who = resource.RUSAGE_CHILDREN if workload_name == "cli_cold" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def versions() -> dict:
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--root", required=True, help="checkout holding src/ and scenarios/")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    root = Path(args.root)

    # The CLI workload times fresh interpreters; its own process only needs
    # the library for the layer probe.
    nv = None
    if args.workload != "cli_cold" or args.trace:
        import normal_vv as nv
    workload = workloads.make(args.workload, nv, args.seed, root)
    workload.warm_up(NullTracer())
    print("ready", flush=True)
    if args.setup_only:
        return 0

    if args.trace:
        import probe

        tally, tracer, overhead = traced(workload, args.seconds)
        layers = probe.layer_metrics(nv, args.seed, root)
        layers["trace.overhead_pct"] = (overhead, "%")
        detail = {"spans": tracer.summary()}
        metrics = layers
    else:
        tally, cycles = timed(workload, args.seconds)
        tail, percentile = stats.tail(tally.times)
        busy = sum(tally.times)
        metrics = {
            "req_p50_ms": (1e3 * stats.median(tally.times), "ms"),
            "req_tail_ms": (1e3 * tail, "ms"),
            "items_per_s": (tally.passed / busy, "1/s"),
            "peak_rss_mb": (peak_rss_mb(args.workload), "MB"),
        }
        detail = {"tail_percentile": percentile, "requests": len(tally.times), "cycles": cycles, "busy_s": busy}
    detail.update(
        {
            "failures": {k: v for k, v in tally.why.most_common() if v},
            "notes": dict(tally.notes),
            "versions": versions(),
        }
    )
    print(
        json.dumps(
            {
                "correct": tally.correct,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                "detail": detail,
            }
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
