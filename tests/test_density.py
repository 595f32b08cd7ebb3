import math
from collections import Counter
from functools import partial

import numpy as np
import pytest
from numpy.polynomial.hermite_e import hermeval

from normal_vv import (
    OptionSpec,
    PivotSet,
    ZeroVega,
    bachelier_price,
    density_diagnostics,
    density_from_prices,
    vv_price,
)
from normal_vv.cli import load_scenario
from normal_vv.density import _count_modes

STRIKES = (-50.0, 0.0, 50.0)


def flat_price_fn(forward=0.0, sigma=50.0, expiry=1.0, discount=1.0):
    def price(k: float) -> float:
        return bachelier_price(OptionSpec(forward, k, expiry, discount, "call"), sigma)

    return price


def normal_pdf(x, mean, stddev):
    return np.exp(-0.5 * ((x - mean) / stddev) ** 2) / (stddev * math.sqrt(2 * math.pi))


class TestFlatSmileOracle:
    def test_matches_normal_density(self):
        # A flat normal smile prices a normal terminal distribution, so
        # the second difference must land on the closed-form pdf.
        xs = np.arange(-200.0, 200.0 + 1e-9, 1.0)
        grid = density_from_prices(flat_price_fn(), 1.0, xs, 0.01, "flat")
        expected = normal_pdf(xs, 0.0, 50.0)
        assert np.max(np.abs(grid.values - expected)) <= 1e-6

    def test_matches_normal_density_other_params(self):
        forward, sigma, expiry, df = 12.0, 30.0, 0.25, 0.9
        stddev = sigma * math.sqrt(expiry)
        xs = np.linspace(forward - 6 * stddev, forward + 6 * stddev, 401)
        grid = density_from_prices(
            flat_price_fn(forward, sigma, expiry, df), df, xs, 0.01, "flat"
        )
        expected = normal_pdf(xs, forward, stddev)
        assert np.max(np.abs(grid.values - expected)) <= 1e-6

    def test_second_order_convergence(self):
        xs = np.arange(-200.0, 200.0 + 1e-9, 2.0)
        expected = normal_pdf(xs, 0.0, 50.0)
        errors = {}
        for delta in (0.8, 0.4):
            grid = density_from_prices(flat_price_fn(), 1.0, xs, delta, "flat")
            errors[delta] = np.max(np.abs(grid.values - expected))
        order = math.log2(errors[0.8] / errors[0.4])
        assert order >= 1.9

    def test_normalization_and_mean(self):
        # delta large enough that the second-difference noise floor on
        # the deep in-the-money side (~4 ulp of the price over delta^2)
        # stays far below the 6-sigma tail slope.
        forward, sigma, expiry = -5.0, 40.0, 2.0
        stddev = sigma * math.sqrt(expiry)
        xs = np.linspace(forward - 6 * stddev, forward + 6 * stddev, 601)
        grid = density_from_prices(flat_price_fn(forward, sigma, expiry), 1.0, xs, 0.2, "flat")
        assert 0.995 <= grid.diagnostics.integral <= 1.005
        assert abs(grid.diagnostics.mean - forward) <= 0.005 * stddev
        assert grid.diagnostics.mode_count == 1


class TestFrownDensities:
    def test_mild_frown_nonnegative(self):
        pivots = PivotSet(0.0, 1.0, STRIKES, (48.0, 50.0, 49.0), 1.0, reference_vol=40.0)
        xs = np.arange(-200.0, 200.0 + 1e-9, 1.0)
        grid = density_from_prices(lambda k: vv_price(pivots, k), 1.0, xs, 0.1, "vv")
        assert grid.diagnostics.min_value >= 0.0
        assert grid.diagnostics.mode_count in (1, 2)
        assert grid.diagnostics.gap_count == 0

    def test_deep_frown_bimodal(self):
        pivots = PivotSet(0.0, 1.0, STRIKES, (45.0, 50.0, 45.0), 1.0, reference_vol=30.0)
        xs = np.arange(-200.0, 200.0 + 1e-9, 1.0)
        grid = density_from_prices(lambda k: vv_price(pivots, k), 1.0, xs, 0.1, "vv")
        assert grid.diagnostics.min_value >= 0.0
        assert grid.diagnostics.mode_count == 2
        assert abs(grid.diagnostics.integral - 1.0) <= 1e-3
        assert abs(grid.diagnostics.mean - 0.0) <= 0.005 * 50.0


EPS = np.finfo(float).eps
SCENARIOS = (
    "scenario1_smile.json",
    "scenario2_frown.json",
    "scenario3_density.json",
    "scenario4_density_bimodal.json",
)


def exact_vv_density(p, x):
    """The vanna-volga density in closed form (Breeden-Litzenberger), its
    second derivative, and the size of the price terms, at each x.

    With s = sigma_ref*sqrt(T), d0 = (F - x)/s and phi0 = phi(d0), the VV
    price is DF*C(x; s) + sum_i y_i(x)*phi0*gap_i/phi(d_i): C the Bachelier
    call, y_i the quadratic interpolation weights and gap_i the pivot's
    price at its own vol minus that at the reference vol. The n-th
    x-derivative of phi0 is He_n(d0)*phi0/s**n, and the density is the
    second x-derivative of the price over DF.
    """
    s = p.ref_vol * math.sqrt(p.expiry)
    d0 = (p.forward - x) / s
    phi0 = normal_pdf(d0, 0.0, 1.0)
    dphi = [hermeval(d0, [0.0] * n + [1.0]) * phi0 / s**n for n in range(5)]
    f, f2, size = dphi[0] / s, dphi[2] / s, np.abs(p.forward - x) + s
    for i, (k_i, vol_i) in enumerate(zip(p.strikes, p.vols)):
        a, b = (k for j, k in enumerate(p.strikes) if j != i)
        den = (k_i - a) * (k_i - b)
        y, y1, y2 = (x - a) * (x - b) / den, (2.0 * x - a - b) / den, 2.0 / den
        spec = p.call_spec(k_i)
        gap = bachelier_price(spec, vol_i) - bachelier_price(spec, p.ref_vol)
        c = gap / (normal_pdf((p.forward - k_i) / s, 0.0, 1.0) * p.discount)
        f = f + c * (y2 * dphi[0] + 2.0 * y1 * dphi[1] + y * dphi[2])
        f2 = f2 + c * (6.0 * y2 * dphi[2] + 4.0 * y1 * dphi[3] + y * dphi[4])
        size = size + np.abs(c * y * phi0)
    return f, f2, size


def exact_and_bound(p, x, delta):
    """The exact density at x, and how far the second difference may stray
    from it: 1.25 * delta**2/12 * max|f''| plus 16 eps * size / delta**2.

    Taylor's remainder is delta**2/12 * f'' somewhere within delta of x;
    the 1.25 covers the delta**4 term and a max sampled on 2001 points.
    Each price carries a few ulp of its terms' size, and the second
    difference divides them by delta**2: at most 4.7 eps * size / delta**2
    was seen on 600 random pivot sets at delta = 1e-4 * s.
    """
    f, _, size = exact_vv_density(p, x)
    wide = np.linspace(x[0] - delta, x[-1] + delta, 2001)
    f2_max = np.max(np.abs(exact_vv_density(p, wide)[1]))
    return f, 1.25 * delta**2 / 12.0 * f2_max + 16.0 * EPS * size / delta**2


def clear_sign_of_min(exact, bound):
    """-1 or +1 when the sign of the second difference's minimum follows
    from the exact density and the bound, else 0."""
    if np.any(exact < -bound):
        return -1
    return 1 if np.all(exact > bound) else 0


def random_pivots(rng, shape, ref_factor):
    """Convex (both wing vols above the middle one) or frown (both below)
    pivots at a random forward, expiry and discount; the reference vol is
    `ref_factor` times the middle vol."""
    forward, expiry = rng.uniform(-100.0, 100.0), 10 ** rng.uniform(-1, 1)
    mid = rng.uniform(20.0, 80.0)
    scale = mid * math.sqrt(expiry)
    k2 = forward + rng.uniform(-0.5, 0.5) * scale
    k1, k3 = k2 - rng.uniform(0.3, 1.5) * scale, k2 + rng.uniform(0.3, 1.5) * scale
    sign = 1.0 if shape == "convex" else -1.0
    left, right = (mid * (1.0 + sign * rng.uniform(0.02, 0.3)) for _ in range(2))
    discount = rng.uniform(0.5, 1.0)
    return PivotSet(forward, expiry, (k1, k2, k3), (left, mid, right), discount, ref_factor * mid)


def scenario_vv_density(scenario_dir, name):
    """The CLI's VV density of a scenario (first reference vol, the
    scenario's delta), with its pivots, grid and delta."""
    scenario = load_scenario(str(scenario_dir / name))
    p = scenario.pivots.with_reference(scenario.reference_vols[0])
    xs, delta = np.array(scenario.strikes()), scenario.density_delta
    return p, xs, delta, density_from_prices(partial(vv_price, p), p.discount, xs, delta)


class TestExactVVDensity:
    def test_oracle_checks_itself(self):
        # equal pivot and reference vols: every gap is 0, the pdf is left
        p = PivotSet(3.0, 2.0, STRIKES, (40.0, 40.0, 40.0), 0.9, reference_vol=40.0)
        xs = np.linspace(-200.0, 200.0, 81)
        f = exact_vv_density(p, xs)[0]
        assert np.allclose(f, normal_pdf(xs, 3.0, 40.0 * math.sqrt(2.0)), rtol=1e-12, atol=0.0)
        # f'' against a second difference of f itself, on a deep frown
        p, h = PivotSet(0.0, 1.0, STRIKES, (45.0, 50.0, 45.0), 1.0, reference_vol=30.0), 1e-2
        f2 = exact_vv_density(p, xs)[1]
        f_up, f_mid, f_down = (exact_vv_density(p, xs + shift)[0] for shift in (h, 0.0, -h))
        second_difference = (f_up + f_down - 2.0 * f_mid) / h**2
        assert np.allclose(second_difference, f2, rtol=0.0, atol=1e-6 * np.max(np.abs(f2)))

    # scenario 4's minimum, 3.6e-10 in its far tail, lies within the bound
    @pytest.mark.parametrize("name, sign_of_min", zip(SCENARIOS, (1, 1, 1, 0)))
    def test_scenarios_within_bound(self, scenario_dir, name, sign_of_min):
        p, xs, delta, grid = scenario_vv_density(scenario_dir, name)
        exact, bound = exact_and_bound(p, xs, delta)
        assert np.all(np.abs(grid.values - exact) <= bound)
        assert clear_sign_of_min(exact, bound) == sign_of_min
        assert sign_of_min == 0 or np.sign(grid.diagnostics.min_value) == sign_of_min

    def test_scenario4_modes_are_the_exact_modes(self, scenario_dir):
        p, xs, _, grid = scenario_vv_density(scenario_dir, "scenario4_density_bimodal.json")

        def peaks(f):
            return (np.flatnonzero((f[1:-1] > f[:-2]) & (f[1:-1] > f[2:])) + 1).tolist()

        exact_peaks = peaks(exact_vv_density(p, xs)[0])
        assert grid.diagnostics.mode_count == len(exact_peaks) == 2
        assert peaks(grid.values) == exact_peaks

    def test_random_pivot_sets_within_bound(self):
        rng = np.random.default_rng(16)
        signs = Counter()
        for i in range(500):
            shape = ("convex", "frown")[i % 2]
            p = random_pivots(rng, shape, (0.6, 0.8, 1.0, 1.25)[i // 2 % 4])
            s = p.ref_vol * math.sqrt(p.expiry)
            delta = s * 10 ** rng.uniform(-4, -1)
            xs = np.linspace(p.forward - 6.0 * s, p.forward + 6.0 * s, 41)
            grid = density_from_prices(partial(vv_price, p), p.discount, xs, delta)
            exact, bound = exact_and_bound(p, xs, delta)
            assert np.all(np.abs(grid.values - exact) <= bound)
            sign = clear_sign_of_min(exact, bound)
            if sign:
                assert np.sign(grid.diagnostics.min_value) == sign
            signs[shape, sign] += 1
        # both signs of the minimum are tested, for both shapes
        assert all(signs[shape, sign] for shape in ("convex", "frown") for sign in (-1, 1))


class TestPriceFnContract:
    def test_call_count_and_order(self):
        xs = np.linspace(-30.0, 30.0, 13)
        price, calls = flat_price_fn(), []

        def recording(k):
            calls.append(k)
            return price(k)

        density_from_prices(recording, 1.0, xs, 0.25)
        assert calls == xs.tolist() + (xs + 0.25).tolist() + (xs - 0.25).tolist()
        assert all(type(k) is float for k in calls)

    def test_table_lookup_matches_tabulated_function(self):
        # the layer probe's form: every price the density asks for, looked up
        p = PivotSet(0.0, 1.0, STRIKES, (45.0, 50.0, 45.0), 1.0, reference_vol=30.0)
        xs, delta = np.linspace(-200.0, 200.0, 401), 0.1
        table = {k: vv_price(p, k) for k in np.concatenate((xs, xs + delta, xs - delta)).tolist()}
        looked_up = density_from_prices(table.__getitem__, 1.0, xs, delta)
        direct = density_from_prices(partial(vv_price, p), 1.0, xs, delta)
        assert np.array_equal(looked_up.values, direct.values)
        assert looked_up.diagnostics == direct.diagnostics

    def test_price_fn_errors_propagate(self):
        xs = np.linspace(-10.0, 10.0, 21)
        dead = PivotSet(0.0, 1.0, STRIKES, (40.0, 30.0, 45.0), 1.0, reference_vol=0.5)
        with pytest.raises(ZeroVega, match="pivot -50.0 has no vega at reference vol 0.5"):
            density_from_prices(partial(vv_price, dead), 1.0, xs, 0.1)
        table = {k: 1.0 for k in xs.tolist()}  # the centres only
        with pytest.raises(KeyError) as excinfo:
            density_from_prices(table.__getitem__, 1.0, xs, 0.1)
        assert excinfo.value.args == (xs[0] + 0.1,)


class TestGaps:
    def test_none_prices_become_gaps(self):
        price = flat_price_fn()

        def partial_price(k: float):
            return None if abs(k) > 150.0 else price(k)

        xs = np.arange(-200.0, 200.0 + 1e-9, 5.0)
        grid = density_from_prices(partial_price, 1.0, xs, 0.1, "vv")
        # every point needing a price beyond the cut gaps out, which
        # includes +/-150 whose stencil reaches +/-150.1
        assert grid.diagnostics.gap_count == int(np.count_nonzero(np.abs(xs) >= 150.0))
        assert np.all(np.isnan(grid.values[np.abs(grid.x) >= 150.0]))
        assert np.all(np.isfinite(grid.values[np.abs(grid.x) <= 145.0]))
        assert grid.diagnostics.mode_count == 1

    def test_gap_at_stencil_edge(self):
        price = flat_price_fn()

        def partial_price(k: float):
            return None if k > 199.95 else price(k)

        xs = np.arange(-200.0, 200.0 + 1e-9, 5.0)
        grid = density_from_prices(partial_price, 1.0, xs, 0.1, "vv")
        # only the last point needs prices beyond the cut
        assert grid.diagnostics.gap_count == 1
        assert math.isnan(grid.values[-1])


    def test_fewer_than_three_valid_points(self):
        price = flat_price_fn()
        xs = np.arange(0.0, 10.0, 1.0)
        grid = density_from_prices(lambda k: None if k > 1.5 else price(k), 1.0, xs, 0.1)
        assert np.all(np.isfinite(grid.values[:2])) and np.all(np.isnan(grid.values[2:]))
        summary = grid.diagnostics
        assert (summary.mode_count, summary.gap_count) == (0, 8)
        assert all(math.isnan(v) for v in (summary.integral, summary.mean, summary.min_value))


class TestValidation:
    def test_rejects_bad_delta_and_discount(self):
        xs = np.arange(-10.0, 10.0 + 1e-9, 1.0)
        with pytest.raises(ValueError):
            density_from_prices(flat_price_fn(), 1.0, xs, 0.0)
        with pytest.raises(ValueError, match="positive and finite"):
            density_from_prices(flat_price_fn(), 1.0, xs, math.inf)
        with pytest.raises(ValueError):
            density_from_prices(flat_price_fn(), 0.0, xs, 0.1)

    def test_rejects_delta_whose_square_underflows(self):
        xs = np.linspace(-10.0, 10.0, 21)
        with pytest.raises(ValueError, match="underflows to 0"):
            density_from_prices(flat_price_fn(), 1.0, xs, 1e-170)

    def test_rejects_delta_lost_against_the_grid(self, scenario_dir):
        # Scenario 3 at reference 40: x +/- 1e-160 rounds to x at every
        # grid point but 0, so the second differences would all be 0
        scenario = load_scenario(str(scenario_dir / "scenario3_density.json"))
        p, xs = scenario.pivots.with_reference(40.0), np.array(scenario.strikes())
        with pytest.raises(ValueError, match="rounds to x"):
            density_from_prices(partial(vv_price, p), p.discount, xs, 1e-160)

    @pytest.mark.parametrize("xs", [[-0.5, 0.25, 1.0], [-1.0, -0.25, 0.5]])
    def test_rejects_delta_lost_on_one_side(self, xs):
        # 1 + 1e-16 rounds to 1, 1 - 1e-16 does not; -1 the other way round
        with pytest.raises(ValueError, match="rounds to x"):
            density_from_prices(flat_price_fn(), 1.0, xs, 1e-16)

    def test_rejects_bad_grids(self):
        with pytest.raises(ValueError):
            density_from_prices(flat_price_fn(), 1.0, [0.0, 1.0], 0.1)
        with pytest.raises(ValueError):
            density_from_prices(flat_price_fn(), 1.0, [0.0, 2.0, 3.0], 0.1)
        with pytest.raises(ValueError):
            density_from_prices(flat_price_fn(), 1.0, [3.0, 2.0, 1.0], 0.1)

    def test_diagnostics_recompute(self):
        xs = np.arange(-100.0, 100.0 + 1e-9, 1.0)
        grid = density_from_prices(flat_price_fn(sigma=25.0), 1.0, xs, 0.1, "flat")
        assert density_diagnostics(grid) == grid.diagnostics


class TestModeCounting:
    def test_single_peak(self):
        assert _count_modes(np.array([0.0, 1.0, 2.0, 1.0, 0.0])) == 1

    def test_plateau_counted_once(self):
        assert _count_modes(np.array([0.0, 1.0, 1.0 + 1e-13, 1.0, 0.0])) == 1

    def test_two_peaks(self):
        assert _count_modes(np.array([0.0, 2.0, 1.0, 2.0, 0.0])) == 2

    def test_monotone_runs_have_boundary_mode(self):
        assert _count_modes(np.array([0.0, 1.0, 2.0, 3.0])) == 1
        assert _count_modes(np.array([3.0, 2.0, 1.0, 0.0])) == 1

    def test_flat_segment_is_one_mode(self):
        assert _count_modes(np.array([1.0, 1.0, 1.0])) == 1
