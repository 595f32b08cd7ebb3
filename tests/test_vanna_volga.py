import math

import numpy as np
import pytest

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
    verify_risk_elimination,
    vv_price,
    vv_smile_exact,
    vv_smile_first_order,
    vv_smile_grid,
    vv_smile_second_order,
    vv_weights,
)

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


class TestDefaults:
    def test_reference_defaults_to_middle_pivot(self):
        p = PivotSet(0.0, 1.0, STRIKES, (51.0, 50.0, 52.0), 1.0)
        assert p.ref_vol == 50.0
        assert p.with_reference(61.0).ref_vol == 61.0

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
