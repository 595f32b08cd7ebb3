import dataclasses
import math
import sys
from functools import partial

import numpy as np
import pytest

import normal_vv.vanna_volga as vanna_volga
from normal_vv import (
    FAILED_BELOW_INTRINSIC,
    NegativeDiscriminant,
    NoRoot,
    OptionSpec,
    PivotSet,
    SmilePoint,
    ZeroVega,
    bachelier_price,
    calibrate_reference_vol,
    density_from_prices,
    verify_risk_elimination,
    vv_price,
    vv_smile_exact,
    vv_smile_first_order,
    vv_smile_grid,
    vv_smile_second_order,
    vv_weights,
)
from normal_vv.bachelier import _call_price_pdf, norm_pdf
from normal_vv.vanna_volga import _pivot_legs

STRIKES = (-50.0, 0.0, 50.0)


def pivots(vols=(51.0, 50.0, 52.0), ref=50.0, F=0.0, T=1.0, df=1.0):
    return PivotSet(F, T, STRIKES, vols, df, reference_vol=ref)


FROWN = pivots(vols=(48.0, 50.0, 49.0))
DEEP_FROWN = pivots(vols=(45.0, 50.0, 45.0))


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
    k0 = rng.uniform(k1 - 1.0 * (k3 - k1), k3 + 1.0 * (k3 - k1))
    return pivot_set, k0


class TestWeights:
    def test_target_at_first_pivot(self):
        w = vv_weights(pivots(), -50.0)
        assert w.interp == (1.0, 0.0, 0.0)
        assert w.hedge == (1.0, 0.0, 0.0)

    def test_target_at_middle_pivot(self):
        w = vv_weights(pivots(), 0.0)
        assert w.interp == (0.0, 1.0, 0.0)
        assert w.hedge == (0.0, 1.0, 0.0)

    def test_interp_weights_sum_to_one(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            pivot_set, k0 = random_pivot_draw(rng)
            w = vv_weights(pivot_set, k0)
            assert sum(w.interp) == pytest.approx(1.0, abs=1e-12)

    def test_hedge_vega_identity(self):
        # w_i * vega_i = y_i * vega_0 at the reference vol
        rng = np.random.default_rng(32)
        for _ in range(100):
            pivot_set, k0 = random_pivot_draw(rng)
            w = vv_weights(pivot_set, k0)
            sqrt_t = math.sqrt(pivot_set.expiry)
            vega0 = sqrt_t * math.exp(-0.5 * w.target_moneyness**2)
            for w_i, y_i, d_i in zip(w.hedge, w.interp, w.pivot_moneyness):
                vega_i = sqrt_t * math.exp(-0.5 * d_i * d_i)
                assert w_i * vega_i == pytest.approx(y_i * vega0, rel=1e-12, abs=1e-15)

    def test_spec_example_satisfies_constraint_system(self):
        report = verify_risk_elimination(pivots(), 25.0)
        assert report.max_relative <= 1e-12

    def test_weights_match_linear_solve(self):
        w = vv_weights(pivots(), 25.0)
        d0 = w.target_moneyness
        d = np.array(w.pivot_moneyness)
        vega = np.exp(-0.5 * d * d)
        vega0 = math.exp(-0.5 * d0 * d0)
        matrix = np.vstack([vega, vega * d, vega * d * d])
        rhs = np.array([vega0, vega0 * d0, vega0 * d0 * d0])
        solved = np.linalg.solve(matrix, rhs)
        assert np.max(np.abs(np.array(w.hedge) - solved)) <= 1e-12

    def test_duplicate_strikes_rejected(self):
        with pytest.raises(ValueError):
            PivotSet(0.0, 1.0, (-50.0, -50.0, 50.0), (51.0, 50.0, 52.0), 1.0)

    def test_zero_vega_pivot_raises_zero_vega(self):
        # At reference vol 0.5 the pivot at -50 sits at d = 100: its vega is 0.
        dead = PivotSet(0.0, 1.0, (-50.0, 0.0, 50.0), (40.0, 30.0, 45.0), 1.0, 0.5)
        for fn in (vv_weights, verify_risk_elimination, vv_price, vv_smile_exact):
            with pytest.raises(ZeroVega, match=r"^pivot -50\.0 has no vega at reference vol 0\.5$"):
                fn(dead, 10.0)
        # The approximations divide by no vega: they still return.
        assert vv_smile_first_order(dead, 10.0).hex() == "0x1.effffffffffffp+4"
        assert vv_smile_second_order(dead, 10.0).hex() == "0x1.acd80d3481ce6p+5"

    def test_subnormal_pivot_vega_raises_zero_vega(self):
        # At reference vol 1.31 the pivot at -50 sits at d = 38.2: its vega is
        # subnormal, not 0, and a hedge weight overflows. Arrays raise before
        # any division, so no RuntimeWarning (an error under this suite) shows.
        p = PivotSet(0.0, 1.0, (-50.0, 0.0, 50.0), (51.0, 50.0, 52.0), 1.0, 1.31)
        assert 0.0 < norm_pdf(50.0 / 1.31) < sys.float_info.min
        message = r"^pivot -50\.0 has no vega at reference vol 1\.31$"
        for fn in (vv_weights, verify_risk_elimination, vv_price, vv_smile_exact):
            with pytest.raises(ZeroVega, match=message):
                fn(p, 10.0)
        for method in ("vv-exact", "vv-first", "vv-second"):
            with pytest.raises(ZeroVega, match=message):
                vv_smile_grid(p, np.linspace(-150.0, 150.0, 61), method)


class TestRiskElimination:
    def test_residuals_randomized(self):
        rng = np.random.default_rng(33)
        for _ in range(300):
            pivot_set, k0 = random_pivot_draw(rng)
            report = verify_risk_elimination(pivot_set, k0)
            assert report.max_relative <= 1e-12

    def test_middle_pivot_target_is_exact(self):
        report = verify_risk_elimination(pivots(), 0.0)
        assert report.max_relative <= 1e-14


class TestFirstOrder:
    def test_interpolates_pivots(self):
        for k, v in zip(STRIKES, (51.0, 50.0, 52.0)):
            assert vv_smile_first_order(pivots(), k) == pytest.approx(v, abs=1e-12)

    def test_matches_quadratic_oracle_at_midpoint(self):
        # Oracle: the unique quadratic through the three pivots.
        coeffs = np.polyfit(np.array(STRIKES), np.array([51.0, 50.0, 52.0]), 2)
        expected = float(np.polyval(coeffs, -25.0))
        assert vv_smile_first_order(pivots(), -25.0) == pytest.approx(expected, abs=1e-9)

    def test_symmetric_pivots_have_axis_at_middle(self):
        symmetric = pivots(vols=(53.0, 50.0, 53.0))
        for offset in (10.0, 35.0, 80.0):
            left = vv_smile_first_order(symmetric, -offset)
            right = vv_smile_first_order(symmetric, offset)
            assert left == pytest.approx(right, abs=1e-12)

    def test_affine_shift_in_vols(self):
        base = pivots()
        shifted = pivots(vols=(51.0 + 7.5, 50.0 + 7.5, 52.0 + 7.5))
        for k in (-120.0, -30.0, 12.0, 77.0):
            assert vv_smile_first_order(shifted, k) == pytest.approx(
                vv_smile_first_order(base, k) + 7.5, abs=1e-11
            )

    def test_independent_of_reference_vol(self):
        for k in (-80.0, 25.0, 140.0):
            assert vv_smile_first_order(pivots(ref=30.0), k) == vv_smile_first_order(
                pivots(ref=70.0), k
            )


def test_flat_smile_is_a_fixed_point_of_every_construction():
    flat = pivots(vols=(50.0, 50.0, 50.0), ref=50.0)
    for k in (-150.0, -35.0, 0.0, 80.0, 150.0):
        assert vv_smile_first_order(flat, k) == pytest.approx(50.0, abs=1e-12)
        assert vv_smile_second_order(flat, k) == pytest.approx(50.0, abs=1e-12)
        assert vv_smile_exact(flat, k) == pytest.approx(50.0, abs=1e-9)


class TestSecondOrder:
    def test_flat_smile_fixed_point(self):
        flat = pivots(vols=(50.0, 50.0, 50.0))
        for k in (-150.0, -20.0, 0.0, 60.0, 150.0):
            assert vv_smile_second_order(flat, k) == pytest.approx(50.0, abs=1e-12)

    def test_interpolates_pivots(self):
        p = pivots(ref=55.0)
        for k, v in zip(STRIKES, (51.0, 50.0, 52.0)):
            assert vv_smile_second_order(p, k) == pytest.approx(v, abs=1e-9)

    def test_atm_closed_form(self):
        # At K0 = F the correction collapses to the first-order value
        # plus Q/(2 sigma); checked against a direct evaluation with an
        # off-centre forward so the pivot moneynesses are all nonzero.
        p = PivotSet(10.0, 1.0, STRIKES, (51.0, 50.0, 52.0), 1.0, reference_vol=55.0)
        y = []
        for (ka, kb, kc) in ((0.0, 50.0, -50.0), (-50.0, 50.0, 0.0), (-50.0, 0.0, 50.0)):
            y.append((ka - 10.0) * (kb - 10.0) / ((ka - kc) * (kb - kc)))
        d = [(10.0 - k) / 55.0 for k in STRIKES]
        q = sum(yi * di * di * (vi - 55.0) ** 2 for yi, di, vi in zip(y, d, p.vols))
        expected = sum(yi * vi for yi, vi in zip(y, p.vols)) + q / (2.0 * 55.0)
        assert vv_smile_second_order(p, 10.0) == pytest.approx(expected, rel=1e-12)

    def test_agrees_with_exact_at_pivots(self):
        p = pivots(ref=55.0)
        for k in STRIKES:
            second = vv_smile_second_order(p, k)
            exact = vv_smile_exact(p, k)
            assert second == pytest.approx(exact, abs=1e-9)

    def test_negative_discriminant_reported(self):
        p = pivots(vols=(48.0, 50.0, 49.0), ref=60.0)
        with pytest.raises(NegativeDiscriminant) as excinfo:
            vv_smile_second_order(p, 300.0)
        assert excinfo.value.strike == 300.0
        assert excinfo.value.discriminant < 0.0


class TestPrice:
    def test_reproduces_market_price_at_pivots(self):
        p = pivots(ref=55.0)
        for k, v in zip(STRIKES, p.vols):
            market = bachelier_price(OptionSpec(0.0, k, 1.0, 1.0, "call"), v)
            assert vv_price(p, k) == pytest.approx(market, rel=1e-12)

    def test_flat_smile_collapses_to_reference_price(self):
        flat = pivots(vols=(50.0, 50.0, 50.0), ref=50.0)
        for k in (-130.0, -5.0, 42.0, 130.0):
            reference = bachelier_price(OptionSpec(0.0, k, 1.0, 1.0, "call"), 50.0)
            assert vv_price(flat, k) == pytest.approx(reference, rel=1e-13)

    def test_frown_wings_fall_below_intrinsic(self):
        p = pivots(vols=(48.0, 50.0, 49.0), ref=60.0)
        spec = OptionSpec(0.0, -150.0, 1.0, 1.0, "call")
        assert vv_price(p, -150.0) < spec.intrinsic()


class TestExactSmile:
    def test_interpolates_pivots(self):
        p = pivots(ref=55.0)
        for k, v in zip(STRIKES, p.vols):
            assert vv_smile_exact(p, k) == pytest.approx(v, abs=1e-9)

    def test_scenario1_shape(self):
        # Convex near the money, turning concave out on the wings.
        p = pivots(ref=50.0)
        near = np.arange(-30.0, 30.0 + 1e-9, 5.0)
        vols_near = np.array([vv_smile_exact(p, k) for k in near])
        assert np.all(np.diff(vols_near, 2) > 0.0)
        far = np.arange(120.0, 150.0 + 1e-9, 5.0)
        vols_far = np.array([vv_smile_exact(p, k) for k in far])
        assert np.all(np.diff(vols_far, 2) < 0.0)

    def test_frown_low_reference_interpolates_and_extrapolates(self):
        p = pivots(vols=(48.0, 50.0, 49.0), ref=40.0)
        grid = np.arange(-150.0, 150.0 + 1e-9, 5.0)
        vols = [vv_smile_exact(p, k) for k in grid]
        assert all(v is not None for v in vols)
        inside = np.arange(-50.0, 50.0 + 1e-9, 5.0)
        vols_inside = np.array([vv_smile_exact(p, k) for k in inside])
        assert np.all(np.diff(vols_inside, 2) < 0.0)

    def test_frown_high_reference_fails_in_band(self):
        p = pivots(vols=(48.0, 50.0, 49.0), ref=60.0)
        assert vv_smile_exact(p, 150.0) is None
        assert vv_smile_exact(p, 0.0) == pytest.approx(50.0, abs=1e-9)

    def test_wings_depend_on_reference_vol(self):
        low = vv_smile_exact(pivots(ref=45.0), 150.0)
        high = vv_smile_exact(pivots(ref=55.0), 150.0)
        assert high > low + 1.0


class TestSmileGrid:
    def test_statuses_and_values(self):
        p = pivots(vols=(48.0, 50.0, 49.0), ref=60.0)
        strikes = np.arange(-150.0, 150.0 + 1e-9, 5.0)
        grid = vv_smile_grid(p, strikes, "vv-exact")
        failed = grid.failed_strikes
        assert any(abs(k) >= 100.0 for k in failed)
        assert all(abs(k) > 50.0 for k in failed)
        for point in grid.points:
            if point.status == "ok":
                assert point.vol is not None and point.vol > 0.0
            else:
                assert point.vol is None

    def test_methods_agree_at_pivots(self):
        p = pivots(ref=55.0)
        for method, tol in (("vv-first", 1e-12), ("vv-second", 1e-9), ("vv-exact", 1e-9)):
            grid = vv_smile_grid(p, STRIKES, method)
            for point, v in zip(grid.points, p.vols):
                assert point.vol == pytest.approx(v, abs=tol)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            vv_smile_grid(pivots(), STRIKES, "sabr")

    @pytest.mark.parametrize("method", ["vv-exact", "vv-first", "vv-second"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_strikes_rejected(self, method, bad):
        # as the per-strike path does, before any strike is priced
        with pytest.raises(ValueError, match=f"strike must be finite, got {bad}"):
            vv_smile_grid(pivots(), [-10.0, bad, 10.0], method)

    @pytest.mark.parametrize("method", ["vv-exact", "vv-first", "vv-second"])
    def test_empty_strikes_give_empty_grid(self, method):
        grid = vv_smile_grid(pivots(), [], method)
        assert grid.points == ()
        assert grid.method == method


# Pivot sets for the array-versus-scalar checks: convex, skew, frown,
# negative forward with a long expiry, and discounting.
ARRAY_CASES = {
    "convex": pivots(),
    "skew": pivots(vols=(58.0, 50.0, 45.0), ref=52.0),
    "frown": pivots(vols=(48.0, 50.0, 49.0), ref=60.0),
    "negative_forward_T10": PivotSet(
        -40.0, 10.0, (-200.0, -40.0, 120.0), (62.0, 50.0, 55.0), 1.0, reference_vol=48.0
    ),
    "discount_0.8": pivots(vols=(53.0, 50.0, 51.0), ref=47.0, df=0.8),
}


def far_strikes(p, reach=9.0, size=241):
    """Strikes out to |d| = `reach` at the reference vol, plus the pivots."""
    half = reach * p.ref_vol * math.sqrt(p.expiry)
    grid = np.linspace(p.forward - half, p.forward + half, size).tolist()
    return sorted(grid + list(p.strikes))


def per_strike_points(p, strikes, method):
    points = []
    for k in strikes:
        price = vv_price(p, k)
        if method == "vv-first":
            points.append(SmilePoint(k, vv_smile_first_order(p, k), price, "ok"))
        elif method == "vv-second":
            points.append(SmilePoint(k, vv_smile_second_order(p, k), price, "ok"))
        else:
            vol = vv_smile_exact(p, k)
            status = FAILED_BELOW_INTRINSIC if vol is None else "ok"
            points.append(SmilePoint(k, vol, price, status))
    return tuple(points)


@pytest.mark.parametrize("method", ["vv-exact", "vv-first", "vv-second"])
@pytest.mark.parametrize("case", sorted(ARRAY_CASES))
def test_grid_equals_per_strike_path(case, method):
    # The grid evaluates whole strike arrays; every point, failed ones
    # included, must equal the scalar functions bit for bit.
    p = ARRAY_CASES[case]
    strikes = far_strikes(p)
    try:
        expected = per_strike_points(p, strikes, method)
    except NegativeDiscriminant as scalar_error:
        with pytest.raises(NegativeDiscriminant) as grid_error:
            vv_smile_grid(p, strikes, method)
        assert grid_error.value.strike == scalar_error.strike
        assert grid_error.value.discriminant == scalar_error.discriminant
        return
    assert vv_smile_grid(p, strikes, method).points == expected
    assert vv_smile_grid(p, iter(strikes), method).points == expected


def test_array_cases_reach_the_failure_paths():
    # Guards the test above against passing vacuously.
    frown = ARRAY_CASES["frown"]
    assert vv_smile_grid(frown, far_strikes(frown), "vv-exact").failed_strikes
    with pytest.raises(NegativeDiscriminant):
        vv_smile_grid(frown, far_strikes(frown), "vv-second")


@pytest.mark.parametrize("case", sorted(ARRAY_CASES))
def test_price_is_flat_price_plus_weighted_pivot_gaps(case):
    # The hedge replication written out from the public weights.
    p = ARRAY_CASES[case]
    sigma = p.ref_vol
    for k in far_strikes(p, size=61):
        expected = bachelier_price(p.call_spec(k), sigma)
        for w_i, k_i, v_i in zip(vv_weights(p, k).hedge, p.strikes, p.vols):
            spec = p.call_spec(k_i)
            expected += w_i * (bachelier_price(spec, v_i) - bachelier_price(spec, sigma))
        assert vv_price(p, k) == expected


# name: (vols, forward, expiry, strikes, discount, fourth strike, fourth vol,
# root). Most fourth vols were planted as the exact smile at one reference
# vol; where the residual has several roots the scan may isolate another.
BRENT_PINS = {
    # scenario 1's fourth quote, planted at 55
    "scenario1": ((51.0, 50.0, 52.0), 0.0, 1.0, STRIKES, 1.0, 100.0,
                  "0x1.c98b39d5349efp+5", "0x1.b800000000029p+5"),
    "convex_planted_47": ((51.0, 50.0, 52.0), 0.0, 1.0, STRIKES, 1.0, -90.0,
                          "0x1.a909e4ccce4f2p+5", "0x1.77ffffffffffcp+5"),
    "convex_quote_60": ((51.0, 50.0, 52.0), 0.0, 1.0, STRIKES, 1.0, 100.0,
                        "0x1.e000000000000p+5", "0x1.fe47ecdab6499p+5"),
    # planted at 54; the scan isolates a lower root first
    "skew_planted_54": ((56.0, 50.0, 46.0), 0.0, 1.0, STRIKES, 1.0, 90.0,
                        "0x1.50908b088fbcdp+5", "0x1.d3175a42183f5p+4"),
    "skew_planted_38": ((56.0, 50.0, 46.0), 0.0, 1.0, STRIKES, 1.0, -75.0,
                        "0x1.bb525539898e7p+5", "0x1.3000000000004p+5"),
    # planted at 45; the scan isolates a lower root first
    "frown_planted_45": ((48.0, 50.0, 49.0), 0.0, 1.0, STRIKES, 1.0, -80.0,
                         "0x1.6d85944cbd188p+5", "0x1.0cf090e70be7fp+5"),
    # planted at 58; the scan isolates a lower root first
    "long_negative_forward": ((70.0, 64.0, 61.0), -120.0, 7.0, (-260.0, -120.0, 20.0), 0.9,
                              150.0, "0x1.ec599eedec3e9p+5", "0x1.8fabeaaaa8e1bp+5"),
    # planted at the first scan point, 0.2 * min(vols): an exact zero there
    "exact_zero_scan_point": ((51.0, 50.0, 52.0), 0.0, 1.0, STRIKES, 1.0, 100.0,
                              "0x1.900cb41adc612p+3", "0x1.4000000000000p+3"),
    # only the expanded scan brackets these two
    "expanded_scan_300": ((51.0, 50.0, 52.0), 0.0, 1.0, (-100.0, 0.0, 100.0), 1.0, 150.0,
                          "0x1.19ea08d8fa6f4p+7", "0x1.2c00000000000p+8"),
    "expanded_scan_700": ((51.0, 50.0, 52.0), 0.0, 1.0, (-100.0, 0.0, 100.0), 1.0, 150.0,
                          "0x1.30144d4164b2cp+7", "0x1.5dffffffffe9fp+9"),
}


class TestReferenceCalibration:
    def test_round_trip_recovers_planted_reference(self):
        base = PivotSet(0.0, 1.0, STRIKES, (51.0, 50.0, 52.0), 1.0)
        target = vv_smile_exact(base.with_reference(55.0), 100.0)
        recovered = calibrate_reference_vol(base, (100.0, target))
        assert recovered == pytest.approx(55.0, abs=1e-6)
        achieved = vv_smile_exact(base.with_reference(recovered), 100.0)
        assert achieved == pytest.approx(target, abs=1e-8)

    def test_degenerate_quote_on_first_order_curve(self):
        # A fourth quote sitting inside the pivot span: the solve must
        # either converge or report NoRoot in-band, never crash.
        base = PivotSet(0.0, 1.0, STRIKES, (51.0, 50.0, 52.0), 1.0)
        target = vv_smile_first_order(base, 25.0)
        try:
            ref = calibrate_reference_vol(base, (25.0, target))
        except NoRoot:
            return
        achieved = vv_smile_exact(base.with_reference(ref), 25.0)
        assert achieved == pytest.approx(target, abs=1e-8)

    def test_unreachable_quote_reports_no_root(self):
        base = PivotSet(0.0, 1.0, STRIKES, (51.0, 50.0, 52.0), 1.0)
        with pytest.raises(NoRoot) as excinfo:
            calibrate_reference_vol(base, (100.0, 250.0))
        assert excinfo.value.bracket is not None

    @pytest.mark.parametrize("planted", [300.0, 700.0])
    def test_scan_skips_pivots_without_vega(self, planted):
        # Only the expanded scan brackets these roots, and it starts at
        # reference vol 2, where the pivot at -100 (d = 50) has no vega.
        base = PivotSet(0.0, 1.0, (-100.0, 0.0, 100.0), (51.0, 50.0, 52.0), 1.0)
        assert issubclass(ZeroVega, ZeroDivisionError)
        with pytest.raises(ZeroVega, match="pivot -100.0 has no vega at reference vol 2.0"):
            vv_price(base.with_reference(2.0), 150.0)
        target = vv_smile_exact(base.with_reference(planted), 150.0)
        recovered = calibrate_reference_vol(base, (150.0, target))
        assert recovered == pytest.approx(planted, rel=1e-9)
        with pytest.raises(NoRoot):
            calibrate_reference_vol(base, (150.0, 500.0))

    def test_rejects_pivot_strike_and_bad_vol(self):
        base = PivotSet(0.0, 1.0, STRIKES, (51.0, 50.0, 52.0), 1.0)
        with pytest.raises(ValueError):
            calibrate_reference_vol(base, (50.0, 53.0))
        with pytest.raises(ValueError):
            calibrate_reference_vol(base, (100.0, -1.0))

    @pytest.mark.parametrize(
        "quote, message",
        [
            ((100.0, math.inf), "fourth vol must be positive and finite, got inf"),
            ((math.inf, 53.0), "fourth strike must be finite, got inf"),
            ((math.nan, 53.0), "fourth strike must be finite, got nan"),
        ],
    )
    def test_rejects_nonfinite_fourth_quote(self, quote, message):
        base = PivotSet(0.0, 1.0, STRIKES, (51.0, 50.0, 52.0), 1.0)
        with pytest.raises(ValueError, match=message):
            calibrate_reference_vol(base, quote)

    @pytest.mark.parametrize("case", sorted(BRENT_PINS))
    def test_pinned_bits(self, case):
        # The root bits of scipy.optimize.brentq (xtol 1e-12, rtol 8.9e-16,
        # maxiter 200), recorded before the solver was ported, so a port
        # that reorders one operation shows here.
        vols, forward, expiry, strikes, discount, k4, sigma4, expected = BRENT_PINS[case]
        base = PivotSet(forward, expiry, strikes, vols, discount)
        root = calibrate_reference_vol(base, (k4, float.fromhex(sigma4)))
        assert root == float.fromhex(expected)

    @pytest.mark.parametrize(
        "case, bracket, message",
        [
            # no sign change on either scan; the expanded one starts where
            # the smile fails, so its low end reports smile-failed
            (
                (STRIKES, (51.0, 50.0, 52.0), 0.0, 1.0, 100.0, 250.0),
                (2.0, 1300.0),
                "endpoint residuals smile-failed and -149.449",
            ),
            # a sign change, but the smile fails between its two points
            (
                ((-75.0, -40.0, -5.0), (33.5, 37.5, 30.0), -40.0, 0.75, -180.0, 40.0),
                ("0x1.5d02ff090069bp+4", "0x1.3d361cefae3a1p+6"),
                "smile construction failed at reference vol 40.1264",
            ),
        ],
    )
    def test_no_root_paths(self, case, bracket, message):
        strikes, vols, forward, expiry, k4, sigma4 = case
        base = PivotSet(forward, expiry, strikes, vols, 1.0)
        with pytest.raises(NoRoot, match=message) as excinfo:
            calibrate_reference_vol(base, (k4, sigma4))
        expected = tuple(float.fromhex(b) if isinstance(b, str) else b for b in bracket)
        assert excinfo.value.bracket == expected


class TestDefaults:
    def test_reference_defaults_to_middle_pivot(self):
        p = PivotSet(0.0, 1.0, STRIKES, (51.0, 50.0, 52.0), 1.0)
        assert p.ref_vol == 50.0
        assert p.with_reference(61.0).ref_vol == 61.0
        with pytest.raises(ValueError, match="reference vol"):
            p.with_reference(-5.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            PivotSet(0.0, 0.0, STRIKES, (51.0, 50.0, 52.0), 1.0)
        with pytest.raises(ValueError):
            PivotSet(0.0, 1.0, STRIKES, (51.0, -50.0, 52.0), 1.0)
        with pytest.raises(ValueError):
            PivotSet(0.0, 1.0, STRIKES, (51.0, 50.0, 52.0), 0.0)
        with pytest.raises(ValueError):
            PivotSet(0.0, 1.0, STRIKES, (51.0, 50.0, 52.0), 1.0, reference_vol=-5.0)

    @pytest.mark.parametrize(
        "fields",
        [
            {"F": math.nan},
            {"F": math.inf},
            {"T": math.inf},
            {"ref": math.inf},
            {"vols": (51.0, math.inf, 52.0)},
            {"vols": (51.0, 50.0, math.nan)},
        ],
    )
    def test_rejects_nonfinite_fields(self, fields):
        with pytest.raises(ValueError, match="finite"):
            pivots(**fields)

    @pytest.mark.parametrize(
        "strikes", [(-math.inf, 0.0, 50.0), (-50.0, 0.0, math.inf), (-50.0, math.nan, 50.0)]
    )
    def test_rejects_nonfinite_strikes(self, strikes):
        with pytest.raises(ValueError, match="finite"):
            PivotSet(0.0, 1.0, strikes, (51.0, 50.0, 52.0))


def interp_weights_oracle(strikes, k):
    """The interpolation weights y_i written out from the strikes alone."""
    k1, k2, k3 = strikes
    y1 = (k2 - k) * (k3 - k) / ((k2 - k1) * (k3 - k1))
    y2 = (k1 - k) * (k3 - k) / ((k1 - k2) * (k3 - k2))
    y3 = (k1 - k) * (k2 - k) / ((k1 - k3) * (k2 - k3))
    return (y1, y2, y3)


def fresh_price(p, k):
    """`vv_price` written out with its pivot legs computed anew."""
    stddev = p.ref_vol * math.sqrt(p.expiry)
    price, vega0 = _call_price_pdf(p.forward - k, stddev, p.discount)
    for y_i, (vega_i, gap_i) in zip(interp_weights_oracle(p.strikes, k), _pivot_legs(p)):
        price += y_i * vega0 / vega_i * gap_i
    return price


def fresh_hedge(p, k):
    """`vv_weights(p, k).hedge` with the pivot vegas formed from moneyness."""
    stddev = p.ref_vol * math.sqrt(p.expiry)
    vega0 = norm_pdf((p.forward - k) / stddev)
    y = interp_weights_oracle(p.strikes, k)
    return tuple(y_i * vega0 / norm_pdf((p.forward - k_i) / stddev) for y_i, k_i in zip(y, p.strikes))


def fresh_first_order(p, k):
    """`vv_smile_first_order` written out."""
    return sum(y_i * v_i for y_i, v_i in zip(interp_weights_oracle(p.strikes, k), p.vols))


def fresh_second_order(p, k):
    """`vv_smile_second_order` on a float, written out."""
    sigma = p.ref_vol
    stddev = sigma * math.sqrt(p.expiry)
    y = interp_weights_oracle(p.strikes, k)
    d0 = (p.forward - k) / stddev
    d = tuple((p.forward - k_i) / stddev for k_i in p.strikes)
    first_order = sum(y_i * v_i for y_i, v_i in zip(y, p.vols))
    q_term = sum(y_i * d_i * d_i * (v_i - sigma) ** 2 for y_i, d_i, v_i in zip(y, d, p.vols))
    correction = 2.0 * sigma * (first_order - sigma) + q_term
    discriminant = sigma * sigma + d0 * d0 * correction
    if discriminant < 0.0:
        raise NegativeDiscriminant(k, discriminant)
    return sigma + correction / (sigma + math.sqrt(discriminant))


def memo_draws(seed=15, sets=500, per_set=17):
    """Random pivot sets, each with `per_set` strikes out to |d| = 3 or 30
    at the reference vol and its three pivot strikes; forwards of either
    sign, and every other set discounted."""
    rng = np.random.default_rng(seed)
    for i in range(sets):
        p, _ = random_pivot_draw(rng)
        if i % 2:
            p = dataclasses.replace(p, discount=rng.uniform(0.3, 1.0))
        scale = p.ref_vol * math.sqrt(p.expiry)
        reach = 3.0 if i % 4 < 2 else 30.0
        strikes = [p.forward + rng.uniform(-reach, reach) * scale for _ in range(per_set)]
        yield p, strikes + list(p.strikes)


def test_memo_draws_reach_the_edges():
    # Guards the bit-identity tests below against a narrow sample.
    draws = list(memo_draws())
    assert sum(len(strikes) for _, strikes in draws) >= 10_000
    assert any(p.forward < 0.0 for p, _ in draws)
    assert any(p.discount < 1.0 for p, _ in draws) and any(p.discount == 1.0 for p, _ in draws)
    reach = max(
        abs(p.forward - k) / (p.ref_vol * math.sqrt(p.expiry)) for p, ks in draws for k in ks
    )
    assert 29.0 < reach <= 30.0


class TestPivotLegMemo:
    """A `PivotSet` keeps the strike-independent terms of `vv_price` (pivot
    legs, interpolation denominators) after the first price. The memo must
    save kernel calls and change no bit."""

    def test_kernel_calls(self, monkeypatch):
        calls = []
        kernel = vanna_volga._call_price_pdf

        def counted(*args):
            calls.append(args)
            return kernel(*args)

        monkeypatch.setattr(vanna_volga, "_call_price_pdf", counted)
        p = pivots()
        n = 25
        for k in np.linspace(-120.0, 120.0, n).tolist():
            vv_price(p, k)
        assert len(calls) == n + 6
        copy = p.with_reference(55.0)
        vv_price(copy, 10.0)
        assert len(calls) == n + 6 + 1 + 6
        vv_price(p, 10.0)
        assert len(calls) == n + 6 + 1 + 6 + 1
        dead = PivotSet(0.0, 1.0, (-50.0, 0.0, 50.0), (40.0, 30.0, 45.0), 1.0, 0.5)
        for _ in range(2):
            before = len(calls)
            with pytest.raises(ZeroVega):
                vv_price(dead, 10.0)
            assert len(calls) > before  # a failure is raised anew, never stored

    def test_prices_and_weights_match_fresh_legs(self):
        pairs = 0
        for p, strikes in memo_draws():
            from_array = vv_price(p, np.array(strikes)).tolist()
            for k, element in zip(strikes, from_array):
                price = vv_price(p, k)
                assert price.hex() == fresh_price(p, k).hex() == element.hex()
                weights = vv_weights(p, k)
                assert [w.hex() for w in weights.hedge] == [w.hex() for w in fresh_hedge(p, k)]
                assert [y.hex() for y in weights.interp] == [
                    y.hex() for y in interp_weights_oracle(p.strikes, k)
                ]
                pairs += 1
        assert pairs >= 10_000

    def test_smiles_match_written_out_formulas(self):
        negative = 0
        for p, strikes in memo_draws():
            first = vv_smile_first_order(p, np.array(strikes)).tolist()
            expected = [fresh_first_order(p, k).hex() for k in strikes]
            assert [vv_smile_first_order(p, k).hex() for k in strikes] == expected
            assert [v.hex() for v in first] == expected
            expected, bad = [], None
            for k in strikes:
                try:
                    vol = fresh_second_order(p, k)
                except NegativeDiscriminant as error:
                    with pytest.raises(NegativeDiscriminant) as raised:
                        vv_smile_second_order(p, k)
                    assert raised.value.discriminant.hex() == error.discriminant.hex()
                    bad = bad or error
                    negative += 1
                    continue
                assert vv_smile_second_order(p, k).hex() == vol.hex()
                expected.append(vol.hex())
            if bad is None:
                second = vv_smile_second_order(p, np.array(strikes)).tolist()
                assert [v.hex() for v in second] == expected
            else:  # an array raises at its first bad strike
                with pytest.raises(NegativeDiscriminant) as raised:
                    vv_smile_second_order(p, np.array(strikes))
                assert raised.value.strike == bad.strike
                assert raised.value.discriminant.hex() == bad.discriminant.hex()
        assert negative > 0  # the failure path is exercised

    def test_smiles_never_raise_zero_vega(self):
        # Neither smile needs a pivot vega: on this set, whose pivot at -50
        # has none, they return before and after `vv_price` has raised.
        dead = PivotSet(0.0, 1.0, (-50.0, 0.0, 50.0), (40.0, 30.0, 45.0), 1.0, 0.5)
        strikes = [-50.0, -20.0, 0.0, 10.0, 35.0, 50.0]
        expected = [fresh_first_order(dead, k).hex() for k in strikes]
        expected += [fresh_second_order(dead, k).hex() for k in strikes]

        def smiles():
            values = []
            for smile in (vv_smile_first_order, vv_smile_second_order):
                scalar = [smile(dead, k).hex() for k in strikes]
                assert [v.hex() for v in smile(dead, np.array(strikes)).tolist()] == scalar
                values += scalar
            return values

        assert smiles() == expected
        for fn in (vv_price, vv_weights):
            with pytest.raises(ZeroVega):
                fn(dead, 10.0)
        assert smiles() == expected

    def test_density_matches_fresh_second_difference(self):
        delta = 0.1
        gaps = 0
        for p in ARRAY_CASES.values():
            half = 9.0 * p.ref_vol * math.sqrt(p.expiry)
            xs = np.linspace(p.forward - half, p.forward + half, 601)

            def above_intrinsic(price_fn, p=p):
                def price(k):
                    value = price_fn(k)
                    return value if value > p.call_spec(k).intrinsic() else None

                return price

            memoized, fresh = partial(vv_price, p), partial(fresh_price, p)
            for fn, oracle in ((memoized, fresh), (above_intrinsic(memoized), above_intrinsic(fresh))):
                expected = []
                for x in xs.tolist():
                    center, up, down = oracle(x), oracle(x + delta), oracle(x - delta)
                    if center is None or up is None or down is None:
                        expected.append(math.nan)
                    else:
                        expected.append((up + down - 2.0 * center) / (p.discount * delta * delta))
                values = density_from_prices(fn, p.discount, xs, delta).values
                assert np.array_equal(values, np.array(expected), equal_nan=True)
                gaps += int(np.count_nonzero(np.isnan(values)))
        assert gaps > 0  # the gapped stencil is exercised

    def test_priced_set_keeps_its_identity(self):
        p, twin = pivots(), pivots()
        before = (hash(p), repr(p), dataclasses.astuple(p))
        vv_price(p, 10.0)
        vv_weights(p, -30.0)
        assert p == twin and twin == p
        assert (hash(p), repr(p), dataclasses.astuple(p)) == before
        assert p.with_reference(55.0) == pivots(ref=55.0)
