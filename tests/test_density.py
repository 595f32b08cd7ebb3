import math

import numpy as np
import pytest

from normal_vv import (
    OptionSpec,
    PivotSet,
    bachelier_price,
    density_diagnostics,
    density_from_prices,
    vv_price,
)
from normal_vv.density import _segment_modes

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


class TestValidation:
    def test_rejects_bad_delta_and_discount(self):
        xs = np.arange(-10.0, 10.0 + 1e-9, 1.0)
        with pytest.raises(ValueError):
            density_from_prices(flat_price_fn(), 1.0, xs, 0.0)
        with pytest.raises(ValueError):
            density_from_prices(flat_price_fn(), 0.0, xs, 0.1)

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
        assert _segment_modes([0.0, 1.0, 2.0, 1.0, 0.0]) == 1

    def test_plateau_counted_once(self):
        assert _segment_modes([0.0, 1.0, 1.0 + 1e-13, 1.0, 0.0]) == 1

    def test_two_peaks(self):
        assert _segment_modes([0.0, 2.0, 1.0, 2.0, 0.0]) == 2

    def test_monotone_runs_have_boundary_mode(self):
        assert _segment_modes([0.0, 1.0, 2.0, 3.0]) == 1
        assert _segment_modes([3.0, 2.0, 1.0, 0.0]) == 1

    def test_flat_segment_is_one_mode(self):
        assert _segment_modes([1.0, 1.0, 1.0]) == 1
