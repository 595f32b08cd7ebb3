"""The four workloads: seeded requests, the library calls, per-item checks.

A workload hands out requests in cycles of fixed composition, so a run
that stops after whole cycles always times the same mix. `execute` is
the timed part and returns the library's answer, or the documented
exception it raised; `check` turns that answer into attempted and failed
item counts. All library calls go through the tracer, which is a no-op
in timed runs.
"""

from __future__ import annotations

import json
import math
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np

import checks
import inputs
import reference


class Outcome:
    """Items attempted and failed by one request, why they failed, and
    notes on items that passed."""

    def __init__(self, attempted: int, passed: int, why: Counter, notes: Counter | None = None):
        self.attempted = attempted
        self.failed = attempted - passed
        self.why = why
        self.notes = notes or Counter()


class Workload:
    """Defaults: one item per request, and no direct layer calls."""

    def items(self, request) -> int:
        return 1

    def direct(self, request, out, tracer) -> None:
        pass


def _pivot_set(nv, p: inputs.Pivots, ref_vol=None):
    return nv.PivotSet(p.forward, p.expiry, p.strikes, p.vols, p.discount, ref_vol)


class SmileGrid(Workload):
    """vv_smile_grid over seeded pivot sets, all three methods, three sizes."""

    name = "smile_grid"

    def __init__(self, nv, seed: int):
        self.nv = nv
        self.seed = seed

    def cycle(self, c: int) -> list:
        """Per shape: 61 strikes at two reference vols and 401 at one, for
        every method, and one 10 001-strike grid whose method rotates.

        Two thirds of the requests are small grids, so the median is a
        61-strike grid and the tail a 10 001-strike one. Each grid spans
        the method's admissible reach, so no item fails on the seed
        library's known wing defects; the layer probe reports those.
        """
        requests = []
        for i, p in enumerate(inputs.pivot_sets(self.seed, "grid", c)):
            ref_a, ref_b = p.ref_vol(0), p.ref_vol(1)
            for size, ref_vol, methods in (
                (61, ref_a, inputs.METHODS),
                (61, ref_b, inputs.METHODS),
                (401, ref_a, inputs.METHODS),
                (10001, ref_a, (inputs.METHODS[(i + c) % 3],)),
            ):
                pivots = _pivot_set(self.nv, p, ref_vol)
                for method in methods:
                    reach = inputs.admissible_reach(p, ref_vol, method)
                    strikes = inputs.strike_grid(p, ref_vol, size, reach)
                    requests.append((p, pivots, strikes, method))
        random.Random(f"{self.seed}:grid-order:{c}").shuffle(requests)
        return requests

    def warm_up(self, tracer):
        p = inputs.canonical("convex")
        pivots = _pivot_set(self.nv, p, p.atm_vol)
        for method in inputs.METHODS:
            strikes = inputs.strike_grid(p, p.atm_vol, 61, inputs.admissible_reach(p, p.atm_vol, method))
            self.execute((p, pivots, strikes, method), tracer)

    def items(self, request) -> int:
        return len(request[2])

    def execute(self, request, tracer):
        _, pivots, strikes, method = request
        try:
            return tracer.call("vanna_volga.vv_smile_grid", self.nv.vv_smile_grid, pivots, strikes, method)
        except self.nv.NegativeDiscriminant as exc:
            return exc

    def direct(self, request, grid, tracer):
        """Invert the grid's own VV prices, so the inverter inside the grid
        shows as a layer of its own."""
        p, _, _, method = request
        if method != "vv-exact" or isinstance(grid, Exception):
            return
        invert, spec, error = self.nv.implied_normal_vol, self.nv.OptionSpec, self.nv.ArbitrageViolation
        for point in grid.points:
            try:
                tracer.call("implied_vol.implied_normal_vol", invert, point.price, spec(p.forward, point.strike, p.expiry, p.discount, "call"))
            except error:
                pass

    def check(self, request, grid) -> Outcome:
        p, pivots, strikes, method = request
        n = len(strikes)
        if isinstance(grid, Exception):
            return Outcome(n, 0, Counter(aborted_grid=n))
        points = grid.points
        if len(points) != n or any(pt.strike != k for pt, k in zip(points, strikes)):
            raise ValueError("grid points do not match the requested strikes")
        vols = [math.nan if pt.vol is None else pt.vol for pt in points]
        nv = self.nv

        def reprice(k, vol):
            return nv.bachelier_price(nv.OptionSpec(p.forward, k, p.expiry, p.discount, "call"), vol)

        good, why = checks.vv_points(
            p, pivots.ref_vol, method, strikes, vols, [pt.status for pt in points],
            prices=[pt.price for pt in points], reprice=reprice,
        )
        return Outcome(n, int(np.count_nonzero(good)), why)


class Density(Workload):
    """density_from_prices on VV and SABR call prices; SABR fitted in set-up."""

    name = "density"

    def __init__(self, nv, seed: int):
        self.nv = nv
        self.seed = seed
        self.requests = []
        for p in inputs.pivot_sets(seed, "density", 0):
            grid = inputs.density_grid(p)
            for ref_vol in (p.ref_vol(0), p.ref_vol(1)):
                self.requests.append((p, "vv", _pivot_set(nv, p, ref_vol), grid))
            try:
                fit = nv.sabr_fit(_pivot_set(nv, p)).params
            except nv.CalibrationFailure as exc:
                fit = exc
            self.requests.append((p, "sabr", fit, grid))

    def cycle(self, c: int) -> list:
        requests = list(self.requests)
        random.Random(f"{self.seed}:density-order:{c}").shuffle(requests)
        return requests

    def warm_up(self, tracer):
        kinds = {}
        for request in self.requests:
            kinds.setdefault(request[1], request)
        for request in kinds.values():
            self.execute(request, tracer)

    def items(self, request) -> int:
        return len(request[3])

    def price_fn(self, request, tracer):
        p, kind, model, _ = request
        nv = self.nv
        if kind == "vv":
            vv_price = tracer.wrap("vanna_volga.vv_price", nv.vv_price)
            return lambda k: vv_price(model, k)
        sabr_vol = tracer.wrap("sabr.sabr_normal_vol", nv.sabr_normal_vol)
        price = tracer.wrap("bachelier.bachelier_price", nv.bachelier_price)
        spec = nv.OptionSpec
        forward, expiry, discount = p.forward, p.expiry, p.discount

        def sabr_price(k):
            vol = sabr_vol(model, forward, expiry, k)
            if not vol > 0.0:
                return None
            return price(spec(forward, k, expiry, discount, "call"), vol)

        return sabr_price

    def execute(self, request, tracer):
        p, kind, model, grid = request
        if isinstance(model, Exception):
            return model
        return tracer.call(
            "density.density_from_prices", self.nv.density_from_prices,
            self.price_fn(request, tracer), p.discount, grid, inputs.DENSITY_DELTA, kind,
        )

    def _reference_prices(self, request):
        p, kind, model, _ = request
        if kind == "vv":
            pars = p.as_reference(model.ref_vol)
            return lambda k: reference.vv_price(pars, k)
        alpha, nu, rho = model.alpha, model.nu, model.rho

        def sabr_prices(k):
            vol = reference.sabr_vol(alpha, nu, rho, p.forward, p.expiry, k)
            price = reference.bachelier(p.forward, k, p.expiry, vol, p.discount)
            return price, np.abs(price)

        return sabr_prices

    def check(self, request, out) -> Outcome:
        p, kind, model, grid = request
        n = len(grid)
        if isinstance(out, Exception):
            return Outcome(n, 0, Counter(sabr_fit_failed=n))
        if out.values.shape != (n,):
            raise ValueError("density grid has the wrong length")
        d = out.diagnostics
        good, why = checks.density_points(
            grid, out.values, d.integral, d.mean, inputs.DENSITY_DELTA, p.discount,
            self._reference_prices(request), p.stddev,
        )
        return Outcome(n, int(np.count_nonzero(good)), why)


# The bracket scan calibrate_reference_vol documents: 25 geometric steps
# over [0.2 * min(vols), 5 * max(vols)].
SCAN_LO, SCAN_HI, SCAN_SAMPLES = 0.2, 5.0, 25
# Sub-steps between the two scan points that bracket the root.
BRACKET_SAMPLES = 64


def scan_finds_root(p: inputs.Pivots, k4: float, vol4: float) -> bool:
    """Whether the documented bracket scan finds the fourth quote's root
    beyond doubt, by the reference formulas.

    Every scan point must either clearly have an exact smile vol at k4,
    at |d| of at most inputs.INVERTER_REACH_D, or clearly lie below
    intrinsic value (the scan skips those). The first sign change of the
    miss must be clear, and the smile must exist all across its bracket.
    """
    target = float(reference.bachelier(p.forward, k4, p.expiry, vol4, p.discount))
    intrinsic = p.discount * max(p.forward - k4, 0.0)
    floor = abs(p.forward - k4) * inputs.tail_ratio(inputs.INVERTER_REACH_D)

    def state(ref):
        """(has a vol, miss) at one reference vol; None when unclear."""
        price, scale = (float(v) for v in reference.vv_price(p.as_reference(ref), k4))
        margin = 1e3 * inputs.EPS * scale
        time_value = price - intrinsic
        if time_value < -margin:
            return False, 0.0
        if not (time_value > margin and time_value / p.discount >= floor and abs(price - target) > margin):
            return None
        return True, price - target

    prev = None
    for ref in np.geomspace(SCAN_LO * min(p.vols), SCAN_HI * max(p.vols), SCAN_SAMPLES):
        here = state(ref)
        if here is None:
            return False
        if not here[0]:
            continue
        if prev is not None and prev[1] * here[1] < 0.0:
            inside = (state(r) for r in np.geomspace(prev[0], ref, BRACKET_SAMPLES)[1:-1])
            return all(s is not None and s[0] for s in inside)
        prev = (ref, here[1])
    return False


def plant_fourth_quote(p: inputs.Pivots, rng: random.Random):
    """(strike, vol, planted reference vol) for a fourth quote the exact
    smile at the planted reference vol passes through, and whose root the
    calibration's scan is sure to find (`scan_finds_root`).

    The quote sits between two pivots or beyond an outer one. The first
    try uses the pivot set's own draw; where that fails, `rng` picks again.
    """
    k1, k2, k3 = p.strikes
    u = p.extra[:4]
    for _ in range(50):
        planted = p.atm_vol * (0.8 + 0.45 * u[0])
        if u[1] < 0.5:
            lo, hi = (k1, k2) if u[2] < 0.5 else (k2, k3)
            k4 = lo + (0.25 + 0.5 * u[3]) * (hi - lo)
        else:
            gap = (0.1 + 0.4 * u[3]) * (k3 - k1)
            k4 = k3 + gap if u[2] < 0.5 else k1 - gap
        price, scale = reference.vv_price(p.as_reference(planted), k4)
        intrinsic = p.discount * max(p.forward - k4, 0.0)
        if float(price) - intrinsic > 1e-6 * float(scale):
            vol = reference.implied_vol(float(price), p.forward, k4, p.expiry, p.discount)
            if scan_finds_root(p, k4, vol):
                return k4, vol, planted
        u = [rng.random() for _ in range(4)]
    raise ValueError("no fourth quote whose root the calibration scan finds")


class Calibrate(Workload):
    """sabr_fit and calibrate_reference_vol on one seeded pivot set per request."""

    name = "calibrate"

    def __init__(self, nv, seed: int):
        self.nv = nv
        self.seed = seed

    def cycle(self, c: int) -> list:
        rng = random.Random(f"{self.seed}:calibrate:{c}")
        requests = [self.request(p, rng) for p in inputs.pivot_sets(self.seed, "calibrate", c)]
        rng.shuffle(requests)
        return requests

    def request(self, p, rng):
        return p, _pivot_set(self.nv, p), plant_fourth_quote(p, rng)

    def warm_up(self, tracer):
        self.execute(self.request(inputs.canonical("convex"), random.Random(0)), tracer)

    def execute(self, request, tracer):
        _, pivots, (k4, vol4, _) = request
        nv = self.nv
        try:
            fit = tracer.call("sabr.sabr_fit", nv.sabr_fit, pivots)
        except nv.CalibrationFailure as exc:
            fit = exc
        try:
            ref_vol = tracer.call("vanna_volga.calibrate_reference_vol", nv.calibrate_reference_vol, pivots, (k4, vol4))
        except nv.NoRoot as exc:
            ref_vol = exc
        return fit, ref_vol

    def check(self, request, out) -> Outcome:
        p, _, (k4, vol4, planted) = request
        fit, ref_vol = out
        why = Counter()
        if isinstance(fit, Exception):
            why["sabr_fit_failed"] += 1
        else:
            params = (fit.params.alpha, fit.params.nu, fit.params.rho)
            why += checks.sabr_fit(params, p.strikes, p.vols, p.forward, p.expiry, p.sabr is not None, p.atm_vol)
        notes = Counter()
        if isinstance(ref_vol, Exception):
            why["no_root"] += 1
        else:
            why += checks.calibration(p, k4, vol4, ref_vol)
            if abs(ref_vol - planted) > 1e-6 * planted:
                notes["calibration_other_root"] += 1
        return Outcome(1, 0 if why else 1, why, notes)


class CliCold(Workload):
    """Every CLI subcommand on every shipped scenario it accepts, plus price
    and invert with seeded arguments, each in a fresh interpreter."""

    name = "cli_cold"
    COMMANDS = ("vv-smile", "sabr-smile", "compare", "vv-fit", "sabr-fit", "density")

    def __init__(self, nv, seed: int, root: Path):
        self.seed = seed
        self.scenarios = {}
        for path in sorted((root / "scenarios").glob("*.json")):
            with open(path, encoding="utf-8") as handle:
                self.scenarios[str(path)] = json.load(handle)
        if not self.scenarios:
            raise FileNotFoundError(f"no scenario files under {root / 'scenarios'}")
        rng = random.Random(f"{seed}:cli-args")
        self.commands = []
        for path, raw in self.scenarios.items():
            for command in self.COMMANDS:
                if command != "vv-fit" or "fourth_quote" in raw:
                    self.commands.append((command, path))
        self.commands.append(("price", _option_args(rng, with_vol=True)))
        self.commands.append(("invert", _option_args(rng, with_vol=False)))

    def argv(self, request) -> list[str]:
        command, arg = request
        return [command, arg] if isinstance(arg, str) else [command, *arg["argv"]]

    def cycle(self, c: int) -> list:
        requests = list(self.commands)
        random.Random(f"{self.seed}:cli-order:{c}").shuffle(requests)
        return requests

    def warm_up(self, tracer):
        self.execute(self.commands[-2], tracer)

    def execute(self, request, tracer):
        argv = [sys.executable, "-m", "normal_vv.cli", *self.argv(request)]
        return tracer.call("cli.subprocess", _run, argv)

    def check(self, request, out) -> Outcome:
        code, stdout, stderr = out
        command, arg = request
        if code not in (0, 2, 3):
            raise ValueError(f"exit code {code} is none the CLI documents: {stderr[-500:]}")
        if code != 0:
            why = Counter({f"exit_{code}": 1})
        else:
            raw = self.scenarios.get(arg) if isinstance(arg, str) else None
            why = check_cli_output(command, arg, raw, stdout, stderr)
        return Outcome(1, 0 if why else 1, why)


def _run(argv):
    result = subprocess.run(argv, capture_output=True, text=True, timeout=120, check=False)
    return result.returncode, result.stdout, result.stderr


def _option_args(rng: random.Random, with_vol: bool) -> dict:
    """Seeded option arguments: moneyness from 1 sd in the money to 4 out."""
    forward = rng.uniform(-200.0, 200.0)
    vol = rng.uniform(10.0, 150.0)
    expiry = math.exp(rng.uniform(math.log(0.1), math.log(10.0)))
    df = rng.uniform(0.5, 1.0)
    call = rng.random() < 0.5
    d = rng.uniform(-1.0, 4.0)
    offset = d * vol * math.sqrt(expiry)
    strike = forward + offset if call else forward - offset
    args = {"forward": forward, "strike": strike, "expiry": expiry, "df": df, "vol": vol, "call": call}
    argv = ["--forward", repr(forward), "--strike", repr(strike), "--expiry", repr(expiry), "--df", repr(df)]
    if not call:
        argv.append("--put")
    if with_vol:
        argv += ["--vol", repr(vol)]
    else:
        price = float(reference.bachelier(forward, strike, expiry, vol, df, call))
        args["price"] = price
        argv += ["--price", repr(price)]
    args["argv"] = argv
    return args


def _scenario_pivots(raw) -> inputs.Pivots:
    strikes = tuple(float(q["strike"]) for q in raw["pivots"])
    vols = tuple(float(q["vol"]) for q in raw["pivots"])
    return inputs.Pivots(
        "scenario", float(raw["forward"]), float(raw["expiry"]), float(raw.get("discount", 1.0)),
        strikes, vols, vols[1], None,
    )


def _scenario_strikes(raw) -> np.ndarray:
    g = raw["grid"]
    n = int(math.floor((g["max"] - g["min"]) / g["step"] + 1e-9)) + 1
    return g["min"] + np.arange(n) * g["step"]


def _scenario_refs(raw) -> list[float]:
    refs = raw.get("reference_vols") or [raw["pivots"][1]["vol"]]
    return [float(r) for r in refs]


def _close(a: float, b: float, tol: float = checks.PRINTED_TOL, scale: float = 0.0) -> bool:
    return abs(a - b) <= tol * max(abs(b), scale)


def check_cli_output(command, arg, raw, stdout, stderr) -> Counter:
    """Parse one command's output and apply the library checks to it."""
    why = Counter()
    if command == "price":
        out = json.loads(stdout)
        expected = reference.bachelier_greeks(arg["forward"], arg["strike"], arg["expiry"], arg["vol"], arg["df"], arg["call"])
        for key, value in expected.items():
            if not _close(out[key], float(value), scale=1e-3):
                why[f"greek_{key}"] += 1
        return why
    if command == "invert":
        if not _close(json.loads(stdout)["implied_vol"], arg["vol"]):
            why["implied_vol"] += 1
        return why

    p = _scenario_pivots(raw)
    if command == "sabr-fit":
        out = json.loads(stdout)
        params = (out["alpha"], out["nu"], out["rho"])
        fitted = reference.sabr_vol(*params, p.forward, p.expiry, np.array(p.strikes))
        for r_printed, r in zip(out["residuals"], fitted - np.array(p.vols)):
            if not abs(r_printed - r) <= checks.PRINTED_TOL * p.atm_vol:
                why["sabr_residual"] += 1
        why += checks.sabr_fit(params, p.strikes, p.vols, p.forward, p.expiry, False, p.atm_vol)
        return why
    if command == "vv-fit":
        out = json.loads(stdout)
        k4, vol4 = float(raw["fourth_quote"]["strike"]), float(raw["fourth_quote"]["vol"])
        if not (abs(out["residual"]) <= checks.PRINTED_TOL * vol4 and out["fourth_strike"] == k4):
            why["vv_fit_residual"] += 1
        return why + checks.calibration(p, k4, vol4, out["reference_vol"])
    if command == "density":
        return why + _check_cli_density(p, raw, stdout, stderr)
    return why + _check_cli_smile(command, p, raw, stdout)


def _check_cli_smile(command, p, raw, stdout) -> Counter:
    lines = stdout.strip().split("\n")
    if lines[0] != "strike,vol,method,reference_vol,status":
        raise ValueError(f"unexpected header {lines[0]!r}")
    rows = [line.split(",") for line in lines[1:]]
    strikes = _scenario_strikes(raw)
    methods = [m for m in raw.get("methods", ["vv-exact"]) if m != "sabr"] or ["vv-exact"]
    if command == "sabr-smile":
        methods = []
    want = [(m, r) for m in methods for r in _scenario_refs(raw)]
    if command != "vv-smile":
        want.append(("sabr", None))
    why = Counter()
    if len(rows) != len(want) * len(strikes):
        why["row_count"] += 1
        return why
    for block, (method, ref_vol) in enumerate(want):
        part = rows[block * len(strikes):(block + 1) * len(strikes)]
        k = np.array([float(r[0]) for r in part])
        if any(r[2] != method for r in part) or not np.allclose(k, strikes, rtol=0, atol=1e-9):
            why["rows"] += 1
            continue
        vols = [float(r[1]) if r[1] else math.nan for r in part]
        if method == "sabr":
            by_strike = dict(zip(k, vols))
            residuals = [by_strike.get(k_i, math.nan) - v_i for k_i, v_i in zip(p.strikes, p.vols)]
            mean = sum(p.vols) / 3.0
            flat = sum((v - mean) ** 2 for v in p.vols)
            objective = sum(r * r for r in residuals)
            if not (all(v > 0.0 for v in vols) and objective <= flat * (1.0 + 1e-9) + 1e-18):
                why["sabr_rows"] += 1
            continue
        good, row_why = checks.vv_points(p, ref_vol, method, k, vols, [r[4] for r in part], tol=checks.PRINTED_TOL)
        # A failure status is in-band output, not a fault, unless the
        # price it refused was above intrinsic value.
        row_why.pop("failure_status", None)
        why += row_why
    return why


def _check_cli_density(p, raw, stdout, stderr) -> Counter:
    lines = stdout.strip().split("\n")
    if lines[0] != "x,density,method":
        raise ValueError(f"unexpected header {lines[0]!r}")
    diagnostics = json.loads(stderr.strip().split("\n")[-1])
    x = _scenario_strikes(raw)
    delta = float(raw.get("density_delta", raw["grid"]["step"] / 10.0))
    why = Counter()
    rows = [line.split(",") for line in lines[1:]]
    methods = raw.get("methods", ["vv-exact"])
    if len(rows) != len(methods) * len(x):
        why["row_count"] += 1
        return why
    for block, method in enumerate(methods):
        part = rows[block * len(x):(block + 1) * len(x)]
        values = np.array([float(r[1]) if r[1] else math.nan for r in part])
        d = diagnostics[method]
        valid = np.isfinite(values)
        integral = float(np.trapezoid(values[valid], x[valid]))
        if not _close(d["integral"], integral, scale=1e-6):
            why["density_diagnostics"] += 1
        if method == "sabr":
            if not np.all(valid):
                why["gap"] += 1
            continue
        pars = p.as_reference(_scenario_refs(raw)[0])
        good, point_why = checks.density_points(
            x, values, d["integral"], d["mean"], delta, p.discount,
            lambda k: reference.vv_price(pars, k), p.stddev,
        )
        why += point_why
    return why


def make(name: str, nv, seed: int, root: Path):
    if name == "cli_cold":
        return CliCold(nv, seed, root)
    return {"smile_grid": SmileGrid, "density": Density, "calibrate": Calibrate}[name](nv, seed)


NAMES = ("cli_cold", "smile_grid", "density", "calibrate")

