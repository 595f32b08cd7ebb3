"""Acceptance suite: one test per criterion, at the stated tolerances.

A summary hook in conftest.py prints one PASS/FAIL line per criterion at
the end of the run. Step sizes, draw ranges and tolerances are all fixed
here, not tuned at runtime.
"""

import json
import math
import re
import subprocess
import sys

import numpy as np
import pytest

from normal_vv import (
    OptionSpec,
    PivotSet,
    SABRParams,
    bachelier_greeks,
    bachelier_price,
    calibrate_reference_vol,
    density_from_prices,
    implied_normal_vol,
    sabr_fit,
    sabr_normal_vol,
    vv_price,
    vv_smile_exact,
    vv_smile_first_order,
    vv_smile_grid,
    vv_smile_second_order,
    vv_weights,
)
from hedge_residuals import verify_risk_elimination

STRIKES = (-50.0, 0.0, 50.0)
SCENARIO_1 = PivotSet(0.0, 1.0, STRIKES, (51.0, 50.0, 52.0), 1.0)
SCENARIO_2 = PivotSet(0.0, 1.0, STRIKES, (48.0, 50.0, 49.0), 1.0)
SCENARIO_4 = PivotSet(0.0, 1.0, STRIKES, (45.0, 50.0, 45.0), 1.0, reference_vol=30.0)

CLI = [sys.executable, "-m", "normal_vv.cli"]


def random_pivot_draw(rng):
    forward = rng.uniform(-100.0, 100.0)
    expiry = 10 ** rng.uniform(-1, 1)
    ref = rng.uniform(20.0, 80.0)
    scale = ref * math.sqrt(expiry)
    k2 = forward + rng.uniform(-0.5, 0.5) * scale
    k1 = k2 - rng.uniform(0.3, 1.5) * scale
    k3 = k2 + rng.uniform(0.3, 1.5) * scale
    vols = tuple(rng.uniform(20.0, 80.0) for _ in range(3))
    pivot_set = PivotSet(forward, expiry, (k1, k2, k3), vols, 1.0, reference_vol=ref)
    k0 = rng.uniform(k1 - (k3 - k1), k3 + (k3 - k1))
    return pivot_set, k0


def test_criterion_01_greeks_and_parity():
    # Central differences with steps scaled by the curvature length
    # sigma*sqrt(T): 1e-5 for first derivatives, 8e-4 for second.
    # Moneyness is drawn in [0.2, 2.5]; past |d| ~ 2.5 the second
    # difference cannot beat 1e-6 relative in doubles (rounding noise
    # grows like 1/pdf(d)), so that band is the honest FD domain.
    rng = np.random.default_rng(20180701)
    for _ in range(1000):
        forward = rng.uniform(-150.0, 150.0)
        sigma = 10 ** rng.uniform(0.0, 2.7)
        expiry = 10 ** rng.uniform(math.log10(0.05), math.log10(30.0))
        discount = rng.uniform(0.3, 1.0)
        d = rng.uniform(0.2, 2.5) * (1.0 if rng.uniform() < 0.5 else -1.0)
        strike = forward - d * sigma * math.sqrt(expiry)
        kind = "call" if rng.uniform() < 0.5 else "put"
        spec = OptionSpec(forward, strike, expiry, discount, kind)
        greeks = bachelier_greeks(spec, sigma)

        stddev = sigma * math.sqrt(expiry)
        h1_f, h1_s = 1e-5 * stddev, 1e-5 * sigma
        h2_f, h2_s = 8e-4 * stddev, 8e-4 * sigma

        def price(f=forward, s=sigma):
            return bachelier_price(OptionSpec(f, strike, expiry, discount, kind), s)

        checks = (
            (greeks.delta_forward, (price(f=forward + h1_f) - price(f=forward - h1_f)) / (2 * h1_f)),
            (greeks.vega, (price(s=sigma + h1_s) - price(s=sigma - h1_s)) / (2 * h1_s)),
            (greeks.gamma_forward,
             (price(f=forward + h2_f) - 2 * price() + price(f=forward - h2_f)) / h2_f**2),
            (greeks.volga,
             (price(s=sigma + h2_s) - 2 * price() + price(s=sigma - h2_s)) / h2_s**2),
            (greeks.vanna_forward,
             (price(forward + h2_f, sigma + h2_s) - price(forward + h2_f, sigma - h2_s)
              - price(forward - h2_f, sigma + h2_s) + price(forward - h2_f, sigma - h2_s))
             / (4 * h2_f * h2_s)),
        )
        for analytic, fd in checks:
            assert abs(analytic - fd) <= 1e-6 * max(abs(analytic), abs(fd))

        call = bachelier_price(OptionSpec(forward, strike, expiry, discount, "call"), sigma)
        put = bachelier_price(OptionSpec(forward, strike, expiry, discount, "put"), sigma)
        parity_gap = abs(call - put - discount * (forward - strike))
        assert parity_gap <= 1e-13 * max(1.0, abs(call), abs(put))


def test_criterion_02_inversion_round_trip():
    # The quote that carries the vol information off the money is the
    # out-of-the-money option: at d = +6 a float64 *call* price moves by
    # one ulp only when the vol moves by ~2e-7 relative, so no inverter
    # can resolve 1e-10 through that channel. The sweep therefore
    # round-trips OTM quotes in vol and in price out to |d| = 20, the
    # call channel in vol space wherever its price still resolves the
    # vol (|d| <= 4), and the call channel in price space out to |d| = 6,
    # beyond which an in-the-money call price rounds to intrinsic value.
    sigmas = (1.0, 5.0, 25.0, 50.0, 100.0, 500.0)
    expiries = (0.05, 0.25, 1.0, 5.0, 30.0)
    moneyness = np.linspace(-20.0, 20.0, 401)
    worst_otm = worst_otm_price = worst_call = worst_price = 0.0
    for sigma in sigmas:
        for expiry in expiries:
            for d in moneyness:
                strike = -d * sigma * math.sqrt(expiry)
                otm_kind = "put" if d > 0 else "call"
                otm = OptionSpec(0.0, strike, expiry, 1.0, otm_kind)
                otm_price = bachelier_price(otm, sigma)
                vol = implied_normal_vol(otm_price, otm)
                worst_otm = max(worst_otm, abs(vol - sigma) / sigma)
                reprice = bachelier_price(otm, vol)
                worst_otm_price = max(worst_otm_price, abs(reprice - otm_price) / otm_price)
                if abs(d) > 6.0:
                    continue

                call = OptionSpec(0.0, strike, expiry, 1.0, "call")
                price = bachelier_price(call, sigma)
                vol_call = implied_normal_vol(price, call)
                reprice = bachelier_price(call, vol_call)
                worst_price = max(worst_price, abs(reprice - price) / price)
                if abs(d) <= 4.0:
                    worst_call = max(worst_call, abs(vol_call - sigma) / sigma)
    assert worst_otm <= 1e-10
    assert worst_otm_price <= 1e-10
    assert worst_call <= 1e-10
    assert worst_price <= 1e-10


def test_criterion_03_weight_system():
    rng = np.random.default_rng(19)
    for _ in range(1000):
        pivot_set, k0 = random_pivot_draw(rng)
        report = verify_risk_elimination(pivot_set, k0)
        assert report.max_relative <= 1e-12

        weights = vv_weights(pivot_set, k0)
        d0 = weights.target_moneyness
        d = np.array(weights.pivot_moneyness)
        vega = np.exp(-0.5 * d * d)
        vega0 = math.exp(-0.5 * d0 * d0)
        matrix = np.vstack([vega, vega * d, vega * d * d])
        rhs = np.array([vega0, vega0 * d0, vega0 * d0 * d0])
        solved = np.linalg.solve(matrix, rhs)
        gap = np.max(np.abs(np.array(weights.hedge) - solved))
        assert gap <= 1e-12 * max(1.0, float(np.max(np.abs(solved))))


def test_criterion_04_pivot_interpolation():
    rng = np.random.default_rng(23)
    cases = [SCENARIO_1.with_reference(r) for r in (40.0, 50.0, 60.0)]
    cases += [SCENARIO_2.with_reference(45.0)]
    cases += [random_pivot_draw(rng)[0] for _ in range(5)]
    for pivots in cases:
        for strike, vol in zip(pivots.strikes, pivots.vols):
            assert abs(vv_smile_first_order(pivots, strike) - vol) <= 1e-12
            assert abs(vv_smile_second_order(pivots, strike) - vol) <= 1e-9
            exact = vv_smile_exact(pivots, strike)
            assert exact is not None
            assert abs(exact - vol) <= 1e-9


def test_criterion_05_scenario1_vv_vs_sabr():
    fit = sabr_fit(SCENARIO_1)
    assert fit.max_abs_residual < 1e-8
    references = (40.0, 45.0, 50.0, 55.0, 60.0)
    inner = np.arange(-50.0, 50.0 + 1e-9, 5.0)
    for reference in references:
        pivots = SCENARIO_1.with_reference(reference)
        for strike in inner:
            vv_vol = vv_smile_exact(pivots, strike)
            sabr_vol = sabr_normal_vol(fit.params, 0.0, 1.0, strike)
            assert vv_vol is not None
            assert abs(vv_vol - sabr_vol) <= 0.5
    for wing in (-150.0, 150.0):
        curve = [vv_smile_exact(SCENARIO_1.with_reference(r), wing) for r in references]
        assert all(v is not None for v in curve)
        assert all(a < b for a, b in zip(curve, curve[1:]))


def test_criterion_06_scenario2_frown():
    fit = sabr_fit(SCENARIO_2)
    assert fit.max_abs_residual >= 0.1
    for reference in (40.0, 60.0):
        pivots = SCENARIO_2.with_reference(reference)
        for strike, vol in zip(STRIKES, SCENARIO_2.vols):
            exact = vv_smile_exact(pivots, strike)
            assert abs(exact - vol) <= 1e-9
    grid = np.arange(-150.0, 150.0 + 1e-9, 5.0)
    high = vv_smile_grid(SCENARIO_2.with_reference(60.0), grid, "vv-exact")
    assert any(abs(k) >= 100.0 for k in high.failed_strikes)
    assert all(abs(k) > 50.0 for k in high.failed_strikes)
    low = vv_smile_grid(SCENARIO_2.with_reference(40.0), grid, "vv-exact")
    assert not low.failed_strikes


def test_criterion_07_densities():
    # flat smile: closed-form normal pdf at delta = 0.01
    xs = np.arange(-200.0, 200.0 + 1e-9, 1.0)
    flat = PivotSet(0.0, 1.0, STRIKES, (50.0, 50.0, 50.0), 1.0, reference_vol=50.0)
    grid = density_from_prices(lambda k: vv_price(flat, k), 1.0, xs, 0.01, "vv")
    expected = np.exp(-0.5 * (xs / 50.0) ** 2) / (50.0 * math.sqrt(2.0 * math.pi))
    assert np.max(np.abs(grid.values - expected)) <= 1e-6

    mild = SCENARIO_2.with_reference(40.0)
    grid3 = density_from_prices(lambda k: vv_price(mild, k), 1.0, xs, 0.1, "vv")
    assert grid3.diagnostics.gap_count == 0
    assert grid3.diagnostics.min_value >= 0.0

    grid4 = density_from_prices(lambda k: vv_price(SCENARIO_4, k), 1.0, xs, 0.1, "vv")
    assert grid4.diagnostics.mode_count == 2
    assert abs(grid4.diagnostics.integral - 1.0) <= 1e-3


def test_criterion_08_reference_vol_calibration():
    planted = 55.0
    target = vv_smile_exact(SCENARIO_1.with_reference(planted), 100.0)
    recovered = calibrate_reference_vol(SCENARIO_1, (100.0, target))
    assert abs(recovered - planted) <= 1e-6


def test_criterion_09_sabr_convexity_and_round_trip():
    fits = [sabr_fit(SCENARIO_1).params, SABRParams(50.0, 0.6, 0.2)]
    fits.append(sabr_fit(PivotSet(0.0, 1.0, STRIKES, (50.0, 50.0, 50.0), 1.0)).params)
    for params in fits:
        for step in (5.0, 1.0):
            grid = np.arange(-150.0, 150.0 + 1e-9, step)
            curve = np.array([sabr_normal_vol(params, 0.0, 1.0, k) for k in grid])
            assert np.diff(curve, 2).min() >= -1e-9

    true = SABRParams(50.0, 0.6, 0.2)
    vols = tuple(sabr_normal_vol(true, 0.0, 1.0, k) for k in STRIKES)
    refit = sabr_fit(PivotSet(0.0, 1.0, STRIKES, vols, 1.0))
    assert refit.max_abs_residual < 1e-8


def test_criterion_10_cli_determinism(scenario_dir):
    commands = (
        ("compare", "scenario1_smile.json"),
        ("compare", "scenario2_frown.json"),
        ("density", "scenario3_density.json"),
        ("density", "scenario4_density_bimodal.json"),
    )
    for subcommand, name in commands:
        path = str(scenario_dir / name)
        runs = [
            subprocess.run(CLI + [subcommand, path], capture_output=True)
            for _ in range(2)
        ]
        assert runs[0].returncode == 0
        assert runs[0].returncode == runs[1].returncode
        assert runs[0].stdout == runs[1].stdout
        assert runs[0].stderr == runs[1].stderr
        assert runs[0].stdout


def test_criterion_10_fit_determinism(scenario_dir):
    for subcommand, name in (
        ("vv-fit", "scenario1_smile.json"),
        ("sabr-fit", "scenario2_frown.json"),
    ):
        path = str(scenario_dir / name)
        first = subprocess.run(CLI + [subcommand, path], capture_output=True)
        second = subprocess.run(CLI + [subcommand, path], capture_output=True)
        assert first.returncode == 0
        assert first.stdout == second.stdout


# sanity guard: the four reference scenarios stay importable as data
def test_scenario_files_parse(scenario_dir):
    for path in sorted(scenario_dir.glob("*.json")):
        raw = json.loads(path.read_text())
        assert raw["discount"] == 1.0


def test_readme_quick_tour(scenario_dir):
    # The README's python block runs as printed and gives its commented values.
    readme = (scenario_dir.parent / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    namespace = {}
    exec(block, namespace)
    assert repr(namespace["price"]).startswith("54.4101")
    assert namespace["vol"] == pytest.approx(51.0, rel=1e-13)
    assert namespace["ref"] == pytest.approx(55.0, rel=1e-12)
