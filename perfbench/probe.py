"""Direct calls into each layer's public functions, for the per-layer metrics.

Every traced run makes the same calls on inputs drawn from its seed, so a
layer metric means the same thing whichever workload's run reports it.
Per-call timings are the mean of the middle half of their spans, less
the cost of an empty span.
"""

from __future__ import annotations

import io
import random
import subprocess
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

import checks
import inputs
from stats import central_mean, median
from tracing import Tracer, null_span_ns
from workloads import CliCold, plant_fourth_quote

BAND_QUOTES = 1000
POINT_CALLS = 200
SMALL_GRID_REPEATS = 10
INTERPRETER_RUNS = 5
IMPORT_RUNS = 3
MAIN_PASSES = 2


def _pivot_set(nv, p, ref_vol=None):
    return nv.PivotSet(p.forward, p.expiry, p.strikes, p.vols, p.discount, ref_vol)


class _Probe:
    def __init__(self, nv, seed: int):
        self.nv = nv
        self.seed = seed
        self.tracer = Tracer()
        self.null_ns = null_span_ns()
        self.sets = inputs.pivot_sets(seed, "probe", 0)
        self.metrics: dict[str, tuple[float, str]] = {}
        self.errors = (nv.ArbitrageViolation, nv.NegativeDiscriminant, nv.NoRoot, nv.CalibrationFailure)

    def put(self, name, value, unit):
        self.metrics[name] = (float(value), unit)

    def timed(self, name, fn, *args):
        """Call through a span; return (result or exception, duration ns)."""
        index = len(self.tracer.spans)
        try:
            result = self.tracer.call(name, fn, *args)
        except self.errors as exc:
            result = exc
        span = self.tracer.spans[index]
        return result, span[2] - span[1]

    def per_call_ns(self, name):
        return central_mean(self.tracer.durations(name)) - self.null_ns

    def strikes(self, p, reach):
        return np.linspace(p.forward - reach * p.stddev, p.forward + reach * p.stddev, POINT_CALLS)

    def bachelier(self):
        nv = self.nv
        for p in self.sets:
            for k in self.strikes(p, 4.0):
                spec = nv.OptionSpec(p.forward, float(k), p.expiry, p.discount, "call")
                self.tracer.call("bachelier.price", nv.bachelier_price, spec, p.atm_vol)
                self.tracer.call("bachelier.greeks", nv.bachelier_greeks, spec, p.atm_vol)
        self.put("bachelier.price_ns", self.per_call_ns("bachelier.price"), "ns")
        self.put("bachelier.greeks_ns", self.per_call_ns("bachelier.greeks"), "ns")

    def inverter_bands(self):
        nv = self.nv
        counts = {name: Counter() for name, _, _ in inputs.BANDS}
        for band, forward, strike, expiry, vol, call in inputs.band_sheet(self.seed, BAND_QUOTES):
            spec = nv.OptionSpec(forward, strike, expiry, 1.0, "call" if call else "put")
            price = nv.bachelier_price(spec, vol)
            got, _ = self.timed(f"implied_vol.{band}", nv.implied_normal_vol, price, spec)
            if isinstance(got, nv.ArbitrageViolation):
                counts[band]["reject"] += 1
            elif not abs(got - vol) <= checks.REPRICE_TOL * vol:
                counts[band]["miss"] += 1
        for band, _, _ in inputs.BANDS:
            self.put(f"implied_vol.call_ns.{band}", self.per_call_ns(f"implied_vol.{band}"), "ns")
            self.put(f"implied_vol.reject_share.{band}", counts[band]["reject"] / BAND_QUOTES, "share")
            self.put(f"implied_vol.miss_share.{band}", counts[band]["miss"] / BAND_QUOTES, "share")

    def vanna_volga_points(self):
        nv = self.nv
        for p in self.sets:
            pivots = _pivot_set(nv, p, p.atm_vol)
            for k in self.strikes(p, 3.0):
                k = float(k)
                self.tracer.call("vanna_volga.weights", nv.vv_weights, pivots, k)
                self.tracer.call("vanna_volga.price", nv.vv_price, pivots, k)
                self.tracer.call("vanna_volga.exact", nv.vv_smile_exact, pivots, k)
        for what in ("weights", "price", "exact"):
            self.put(f"vanna_volga.{what}_ns", self.per_call_ns(f"vanna_volga.{what}"), "ns")

    def wrong_points(self, p, pivots, method, strikes, grid) -> int:
        """Points of a completed grid whose answer is wrong: all that fail
        their check, except failure statuses where the reference price is
        truly at or below intrinsic value."""
        nv = self.nv

        def reprice(k, vol):
            return nv.bachelier_price(nv.OptionSpec(p.forward, k, p.expiry, p.discount, "call"), vol)

        points = grid.points
        good, why = checks.vv_points(
            p, pivots.ref_vol, method, strikes, [np.nan if pt.vol is None else pt.vol for pt in points],
            [pt.status for pt in points], prices=[pt.price for pt in points], reprice=reprice,
        )
        return len(points) - int(np.count_nonzero(good)) - (why["failure_status"] - why["wrongly_failed"])

    def grids(self):
        nv = self.nv
        completed = {}
        statuses = {method: Counter() for method in inputs.METHODS}
        for p in self.sets:
            pivots = _pivot_set(nv, p, p.atm_vol)
            for size in (61, 10001):
                strikes = inputs.strike_grid(p, p.atm_vol, size)
                for method in inputs.METHODS:
                    for repeat in range(SMALL_GRID_REPEATS if size == 61 else 1):
                        grid, ns = self.timed("vanna_volga.grid", nv.vv_smile_grid, pivots, strikes, method)
                        aborted = isinstance(grid, nv.NegativeDiscriminant)
                        completed.setdefault((method, size), {True: [], False: []})[aborted].append(ns)
                        if repeat == 0:
                            failed = size if aborted else sum(pt.status != checks.OK for pt in grid.points)
                            wrong = size if aborted else self.wrong_points(p, pivots, method, strikes, grid)
                            statuses[method]["attempted"] += size
                            statuses[method]["failed"] += failed
                            statuses[method]["wrong"] += wrong
        for method in inputs.METHODS:
            for size in (61, 10001):
                # Aborted grids stop early, so they are timed only when no grid finished.
                times = completed[method, size]
                self.put(f"vanna_volga.grid_ms.{method}.{size}", median(times[False] or times[True]) / 1e6, "ms")
            attempted = statuses[method]["attempted"]
            self.put(f"vanna_volga.grid_fail_share.{method}", statuses[method]["failed"] / attempted, "share")
            self.put(f"vanna_volga.grid_wrong_share.{method}", statuses[method]["wrong"] / attempted, "share")

    def calibration(self):
        nv = self.nv
        rng = random.Random(f"{self.seed}:probe-quote")
        times = []
        for p in self.sets:
            k4, vol4, _ = plant_fourth_quote(p, rng)
            for _ in range(3):
                _, ns = self.timed("vanna_volga.calibrate", nv.calibrate_reference_vol, _pivot_set(nv, p), (k4, vol4))
                times.append(ns)
        self.put("vanna_volga.calibrate_ms", median(times) / 1e6, "ms")

    def sabr(self):
        nv = self.nv
        by_shape = {}
        failed = 0
        fit_sets = inputs.pivot_sets(self.seed, "probe-sabr", 0) + inputs.pivot_sets(self.seed, "probe-sabr", 1)
        for p in fit_sets:
            fit, ns = self.timed("sabr.fit", nv.sabr_fit, _pivot_set(nv, p))
            by_shape.setdefault(p.shape, []).append(ns)
            if isinstance(fit, Exception):
                failed += 1
                continue
            params = (fit.params.alpha, fit.params.nu, fit.params.rho)
            if checks.sabr_fit(params, p.strikes, p.vols, p.forward, p.expiry, p.sabr is not None, p.atm_vol):
                failed += 1
            for k in self.strikes(p, 4.0)[::2]:
                self.tracer.call("sabr.vol", nv.sabr_normal_vol, fit.params, p.forward, p.expiry, float(k))
        for shape in inputs.SHAPES:
            self.put(f"sabr.fit_ms.{shape}", median(by_shape[shape]) / 1e6, "ms")
        self.put("sabr.fit_fail_share", failed / len(fit_sets), "share")
        self.put("sabr.vol_ns", self.per_call_ns("sabr.vol"), "ns")

    def density(self):
        nv = self.nv
        delta = inputs.DENSITY_DELTA
        for p in self.sets:
            pivots = _pivot_set(nv, p, p.atm_vol)
            grid = inputs.density_grid(p, inputs.DENSITY_LAYER_POINTS)
            # The density's own loop, with every price it asks for looked up.
            table = {}
            for xi in np.asarray(grid, dtype=float):
                for k in (float(xi), float(xi + delta), float(xi - delta)):
                    table[k] = nv.vv_price(pivots, k)
            for _ in range(3):
                out = self.tracer.call("density.grid", nv.density_from_prices, table.__getitem__, p.discount, grid, delta, "vv")
                self.tracer.call("density.diagnose", nv.density_diagnostics, out)
        self.put("density.grid_ms", median(self.tracer.durations("density.grid")) / 1e6, "ms")
        self.put("density.diagnose_ms", median(self.tracer.durations("density.diagnose")) / 1e6, "ms")

    def cli(self, root):
        interpreter = []
        for _ in range(INTERPRETER_RUNS):
            _, ns = self.timed("cli.interpreter", subprocess.run, [sys.executable, "-c", "pass"])
            interpreter.append(ns)
        self.put("cli.interpreter_ms", median(interpreter) / 1e6, "ms")

        package, scipy = [], []
        for _ in range(IMPORT_RUNS):
            result = subprocess.run(
                [sys.executable, "-X", "importtime", "-c", "import normal_vv"],
                capture_output=True, text=True, timeout=120, check=True,
            )
            total_us, scipy_us = import_times(result.stderr)
            package.append(total_us / 1e3)
            scipy.append(scipy_us / 1e3)
        self.put("cli.import_ms", median(package), "ms")
        self.put("cli.import_scipy_ms", median(scipy), "ms")

        commands = CliCold(self.nv, self.seed, root)
        run_cli_in_process(commands.argv(commands.commands[-2]))
        per_command = {}
        for _ in range(MAIN_PASSES):
            for request in commands.commands:
                _, ns = self.timed("cli.main", run_cli_in_process, commands.argv(request))
                per_command.setdefault(request[0], []).append(ns)
        for command, times in sorted(per_command.items()):
            self.put(f"cli.main_ms.{command}", median(times) / 1e6, "ms")


def import_times(stderr: str) -> tuple[float, float]:
    """Cumulative microseconds of `normal_vv` and of the outermost scipy
    imports, from `python -X importtime` output (children print first)."""
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        level = (len(name) - len(name.lstrip(" ")) - 1) // 2
        entries.append((level, name.strip(), int(cumulative)))
    package_us = scipy_us = 0.0
    under_scipy = {}
    for level, name, cumulative in reversed(entries):
        inside = level > 0 and under_scipy.get(level - 1, False)
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not inside:
            scipy_us += cumulative
        under_scipy[level] = is_scipy or inside
        if level == 0 and name == "normal_vv":
            package_us = cumulative
    return package_us, scipy_us


def run_cli_in_process(argv: list[str]) -> int:
    """`normal_vv.cli.main` with its output captured."""
    from normal_vv import cli

    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        return cli.main(argv)


def layer_metrics(nv, seed: int, root) -> dict[str, tuple[float, str]]:
    probe = _Probe(nv, seed)
    probe.bachelier()
    probe.inverter_bands()
    probe.vanna_volga_points()
    probe.grids()
    probe.calibration()
    probe.sabr()
    probe.density()
    probe.cli(root)
    return probe.metrics
