import math

import numpy as np
import pytest

from normal_vv import PivotSet, SABRParams, sabr_fit, sabr_normal_vol
from normal_vv.sabr import _zeta_over_x

STRIKES = (-50.0, 0.0, 50.0)

# Frozen oracle: 40-digit evaluation of the closed form at
# alpha=50, nu=0.5, rho=0, T=1, F=0, K=-50.
WING_ORACLE = 53.034509969018932


def pivot_set(vols, F=0.0, T=1.0):
    return PivotSet(F, T, STRIKES, vols, 1.0)


class TestVol:
    def test_atm_level(self):
        params = SABRParams(alpha=50.0, nu=0.6, rho=0.3)
        expected = 50.0 * (1.0 + (2.0 - 3.0 * 0.09) / 24.0 * 0.36 * 1.0)
        assert sabr_normal_vol(params, 0.0, 1.0, 0.0) == pytest.approx(expected, rel=1e-14)

    def test_zero_vol_of_vol_is_flat(self):
        params = SABRParams(alpha=47.0, nu=0.0, rho=0.0)
        for k in (-200.0, -31.0, 0.0, 5.0, 180.0):
            assert sabr_normal_vol(params, 0.0, 2.0, k) == 47.0

    def test_wing_oracle(self):
        params = SABRParams(alpha=50.0, nu=0.5, rho=0.0)
        assert sabr_normal_vol(params, 0.0, 1.0, -50.0) == pytest.approx(
            WING_ORACLE, rel=1e-14
        )

    def test_series_seam_agreement(self):
        # the series branch hands over to the log form at |zeta| = 1e-6
        for rho in (-0.9, -0.5, 0.0, 0.5, 0.9):
            for sign in (1.0, -1.0):
                inside = _zeta_over_x(sign * 0.999999e-6, rho)
                outside = _zeta_over_x(sign * 1.000001e-6, rho)
                assert abs(inside - outside) <= 1e-12

    def test_zero_correlation_symmetry(self):
        params = SABRParams(alpha=40.0, nu=0.8, rho=0.0)
        for offset in (5.0, 60.0, 140.0):
            up = sabr_normal_vol(params, 10.0, 0.5, 10.0 + offset)
            down = sabr_normal_vol(params, 10.0, 0.5, 10.0 - offset)
            assert up == pytest.approx(down, rel=1e-12)

    def test_deep_wings_stay_finite(self):
        params = SABRParams(alpha=50.0, nu=1.2, rho=-0.7)
        for k in (-5000.0, 5000.0):
            vol = sabr_normal_vol(params, 0.0, 1.0, k)
            assert math.isfinite(vol) and vol > 0.0

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            SABRParams(alpha=0.0, nu=0.5, rho=0.0)
        with pytest.raises(ValueError):
            SABRParams(alpha=50.0, nu=-0.1, rho=0.0)
        with pytest.raises(ValueError):
            SABRParams(alpha=50.0, nu=0.5, rho=1.0)
        with pytest.raises(ValueError):
            sabr_normal_vol(SABRParams(50.0, 0.5, 0.0), 0.0, 0.0, 10.0)


def sabr_pivots(params, F, T, strikes):
    vols = tuple(sabr_normal_vol(params, F, T, k) for k in strikes)
    return PivotSet(F, T, strikes, vols, 1.0)


# Best objective known for the scenario-2 frown (48/50/49), whose
# optimal rho sits on the correlation bound.
SCENARIO_2_OBJECTIVE = 1.4965909873156

FIT_QUALITY_CASES = {
    "sabr_skew": (sabr_pivots(SABRParams(50.0, 0.5, -0.6), 0.0, 1.0, STRIKES), True),
    "negative_forward_t10": (
        sabr_pivots(SABRParams(80.0, 0.3, 0.3), -150.0, 10.0, (-400.0, -150.0, 100.0)),
        True,
    ),
    "deep_frown": (pivot_set((44.0, 50.0, 45.0)), False),
    "scenario2_frown": (pivot_set((48.0, 50.0, 49.0)), False),
    "flat": (pivot_set((50.0, 50.0, 50.0)), False),
}


class TestFit:
    @pytest.mark.parametrize("case", sorted(FIT_QUALITY_CASES))
    def test_fit_quality(self, case):
        pivots, sabr_generated = FIT_QUALITY_CASES[case]
        fit = sabr_fit(pivots)
        atm = pivots.vols[min(range(3), key=lambda i: abs(pivots.strikes[i] - pivots.forward))]
        # nu = 0 makes the smile flat at alpha, so no fit may do worse
        # than the best flat line; (1e-12 * atm)^2 is the rounding floor
        # of a zero objective.
        mean = sum(pivots.vols) / 3.0
        flat_objective = sum((v - mean) ** 2 for v in pivots.vols)
        assert fit.objective <= flat_objective * (1.0 + 1e-9) + (1e-12 * atm) ** 2
        if sabr_generated:
            assert fit.max_abs_residual <= 1e-9 * atm
        if case == "scenario2_frown":
            assert fit.objective <= SCENARIO_2_OBJECTIVE * (1.0 + 1e-9)

    def test_round_trip_recovers_parameters(self):
        true = SABRParams(alpha=50.0, nu=0.6, rho=0.2)
        vols = tuple(sabr_normal_vol(true, 0.0, 1.0, k) for k in STRIKES)
        fit = sabr_fit(pivot_set(vols))
        assert fit.max_abs_residual < 1e-8
        assert fit.params.alpha == pytest.approx(true.alpha, abs=1e-6)
        assert fit.params.nu == pytest.approx(true.nu, abs=1e-6)
        assert fit.params.rho == pytest.approx(true.rho, abs=1e-6)

    def test_convex_pivots_fit_exactly(self):
        fit = sabr_fit(pivot_set((51.0, 50.0, 52.0)))
        assert fit.max_abs_residual < 1e-8

    def test_frown_leaves_residual_and_linear_best_fit(self):
        fit = sabr_fit(pivot_set((48.0, 50.0, 49.0)))
        assert fit.max_abs_residual >= 0.1
        # the compromise smile is essentially a line through the pivots
        fitted = [
            sabr_normal_vol(fit.params, 0.0, 1.0, k) for k in STRIKES
        ]
        curvature = fitted[0] - 2.0 * fitted[1] + fitted[2]
        assert abs(curvature) < 0.1  # the pivots themselves have -3
        assert fit.params.nu < 0.5

    def test_flat_pivots(self):
        fit = sabr_fit(pivot_set((50.0, 50.0, 50.0)))
        assert fit.params.alpha == pytest.approx(50.0, abs=1e-6)
        assert fit.params.nu == pytest.approx(0.0, abs=1e-3)
        assert fit.max_abs_residual < 1e-8

    def test_fit_is_deterministic(self):
        first = sabr_fit(pivot_set((51.0, 50.0, 52.0)))
        second = sabr_fit(pivot_set((51.0, 50.0, 52.0)))
        assert first == second

    def test_convexity_of_fitted_smiles(self):
        # the comparator smiles this artifact actually produces are
        # convex on the reporting grids
        for vols in ((51.0, 50.0, 52.0), (50.0, 50.0, 50.0)):
            fit = sabr_fit(pivot_set(vols))
            grid = np.arange(-150.0, 150.0 + 1e-9, 5.0)
            curve = np.array(
                [sabr_normal_vol(fit.params, 0.0, 1.0, k) for k in grid]
            )
            assert np.diff(curve, 2).min() >= -1e-9
