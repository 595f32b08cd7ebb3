import hashlib
import math
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normal_vv import CalibrationFailure, PivotSet, SABRParams, sabr_fit, sabr_normal_vol
from normal_vv.cli import load_scenario
from normal_vv.sabr import _GRADIENT_SERIES_CUTOFF, _sabr_vol

STRIKES = (-50.0, 0.0, 50.0)

# Frozen oracle: 40-digit evaluation of the closed form at
# alpha=50, nu=0.5, rho=0, T=1, F=0, K=-50.
WING_ORACLE = 53.034509969018932


# (alpha, nu, rho, F, T, K, vol, gradient); with alpha 50, nu 0.5 and
# F 0, zeta = -K / 100: 0.3 and -0.3, +-0.99e-6 and +-1.01e-6,
# +-0.99e-4 and +-1.01e-4, 0; then nu = 0, rho = +-0.999 at zeta = +-2,
# zeta = +-40, a negative forward at T = 10, and three mid-smile points
# whose gradient bits move when x_rho's denominator is re-associated.
PINNED_BITS = [
    (50.0, 0.5, 0.3, 0.0, 1.5, -30.0, "0x1.8e2d724a7dd2bp+5",
     ("0x1.02ec0e7d3d951p+0", "0x1.d24af56126244p+1", "-0x1.301315373f56bp+3")),
    (50.0, 0.5, -0.5, 0.0, 1.5, 30.0, "0x1.7de1a21b1ba69p+5",
     ("0x1.017dd18a927a9p+0", "-0x1.745350268bec0p+0", "0x1.5be3827b2b2e8p+3")),
    (50.0, 0.5, 0.4, 0.0, 1.5, -9.9e-05, "0x1.997ffaafaff99p+5",
     ("0x1.06147ae1478a5p+0", "0x1.2fffa7092895ap+2", "-0x1.e001a2de9d101p+0")),
    (50.0, 0.5, 0.4, 0.0, 1.5, -0.000101, "0x1.997ffa9434d3dp+5",
     ("0x1.06147ae14788ep+0", "0x1.2fffa53d0fb18p+2", "-0x1.e001ab54e3b36p+0")),
    (50.0, 0.5, -0.2, 0.0, 1.5, 9.9e-05, "0x1.9bbffd541b722p+5",
     ("0x1.07851eb851bf0p+0", "0x1.77ffd2d137dd5p+2", "0x1.e00353c0d2c3ep-1")),
    (50.0, 0.5, -0.2, 0.0, 1.5, 0.000101, "0x1.9bbffd464a8d3p+5",
     ("0x1.07851eb851bd3p+0", "0x1.77ffd1e78becdp+2", "0x1.e00364f5d9d7fp-1")),
    (50.0, 0.5, 0.7, 0.0, 1.5, -0.0099, "0x1.934c6c290eec1p+5",
     ("0x1.021eb8500b7eep+0", "0x1.a717482e2c547p+0", "-0x1.a44e0d74adde1p+1")),
    (50.0, 0.5, 0.7, 0.0, 1.5, -0.0101, "0x1.934c59a8a7bb6p+5",
     ("0x1.021eb84ff7e6cp+0", "0x1.a71294a8ad758p+0", "-0x1.a44fa126d5bddp+1")),
    (50.0, 0.5, -0.6, 0.0, 1.5, 0.0099, "0x1.95bcea42a9129p+5",
     ("0x1.03ae14779b10dp+0", "0x1.6f9a7cb53a3b4p+1", "0x1.684f88d045e0cp+1")),
    (50.0, 0.5, -0.6, 0.0, 1.5, 0.0101, "0x1.95bcda4e74bc2p+5",
     ("0x1.03ae147778da9p+0", "0x1.6f986fbd25b6ap+1", "0x1.6851242b561b0p+1")),
    (50.0, 0.5, 0.3, 0.0, 1.5, 0.0, "0x1.9ad0000000000p+5",
     ("0x1.06eb851eb851fp+0", "0x1.5a00000000000p+2", "-0x1.67fffffffffffp+0")),
    (50.0, 0.0, 0.5, 10.0, 2.0, -80.0, "0x1.9000000000000p+5",
     ("0x1.0000000000000p+0", "-0x1.6800000000000p+4", "-0x0.0p+0")),
    (50.0, 0.5, 0.999, 0.0, 1.5, -200.0, "0x1.9e61dbedfa2b7p+3",
     ("0x1.1684a67d0214bp-4", "0x1.2482e10b1c264p+4", "-0x1.a981518bebeaep+10")),
    (50.0, 0.5, -0.999, 0.0, 1.5, 200.0, "0x1.9e61dbedfa2b7p+3",
     ("0x1.1684a67d0214bp-4", "0x1.2482e10b1c264p+4", "0x1.a981518bebeaep+10")),
    (50.0, 0.5, -0.7, 0.0, 1.5, -4000.0, "0x1.049df2dd7fa23p+9",
     ("0x1.52ea921ee5ad5p+1", "0x1.8d682611fa828p+9", "-0x1.505b8ea7f6ae1p+5")),
    (50.0, 0.5, 0.7, 0.0, 1.5, 4000.0, "0x1.049df2dd7fa23p+9",
     ("0x1.52ea921ee5ad5p+1", "0x1.8d682611fa828p+9", "0x1.505b8ea7f6ae1p+5")),
    (80.0, 0.3, 0.3, -150.0, 10.0, 100.0, "0x1.a05ee0a4570a6p+6",
     ("0x1.047bf8dc1a4d7p+0", "0x1.d7a90732747c4p+6", "0x1.43cc6c83ba4b3p+4")),
    (40.0, 0.4, -0.6, -100.0, 0.5, -250.0, "0x1.e1b269fb534a4p+5",
     ("0x1.0157cba95a30bp+0", "0x1.9768b6cf3daa3p+5", "-0x1.ba56abb383b3cp+3")),
    (40.0, 0.4, -0.3, 25.0, 0.5, 60.0, "0x1.374100b517ad5p+5",
     ("0x1.f82e30677c3f4p-1", "-0x1.72bc1a731c390p-4", "0x1.ebb7c5c972f2cp+2")),
    (40.0, 0.4, 0.2, -100.0, 3.0, 60.0, "0x1.c7c70d5eed08ep+5",
     ("0x1.e87387013bb15p-1", "0x1.cad1e3528edb4p+5", "0x1.0cd998dafcd49p+4")),
]


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
        # the series branch hands over to the log form at |zeta| = 1e-6;
        # with alpha = nu = 1, F = 0 and T = 1e-300 the level term is
        # exactly 1 and zeta = -K, so the vol is zeta / x(zeta) itself
        for rho in (-0.9, -0.5, 0.0, 0.5, 0.9):
            params = SABRParams(1.0, 1.0, rho)
            for sign in (1.0, -1.0):
                inside = sabr_normal_vol(params, 0.0, 1e-300, -sign * 0.999999e-6)
                outside = sabr_normal_vol(params, 0.0, 1e-300, -sign * 1.000001e-6)
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
        # nonfinite parameters or expiries would give NaN or inf vols
        for alpha, nu in ((50.0, math.nan), (50.0, math.inf), (math.inf, 0.5), (math.nan, 0.5)):
            with pytest.raises(ValueError):
                SABRParams(alpha=alpha, nu=nu, rho=0.0)
        with pytest.raises(ValueError):
            sabr_normal_vol(SABRParams(50.0, 0.5, 0.0), 0.0, math.inf, 10.0)

    @pytest.mark.parametrize("nu", [1e155, 1e300])
    def test_nu_whose_square_overflows_is_rejected(self, nu):
        # the level term squares nu, which would raise a bare OverflowError
        with pytest.raises(ValueError, match=r"^nu must be nonnegative with a finite square"):
            SABRParams(alpha=50.0, nu=nu, rho=0.0)

    def test_largest_accepted_nu(self):
        nu = math.sqrt(sys.float_info.max)
        above = math.nextafter(nu, math.inf)
        assert nu * nu < math.inf and above * above == math.inf
        params = SABRParams(alpha=50.0, nu=nu, rho=0.0)
        sabr_normal_vol(params, 0.0, 1.0, 10.0)  # an inf vol, but no exception

    def test_pinned_bits(self):
        # exact vol and gradient bits, so a reordered operation anywhere in
        # the kernel shows even where every tolerance test still passes
        for alpha, nu, rho, forward, expiry, strike, vol, gradient in PINNED_BITS:
            expected = float.fromhex(vol), tuple(float.fromhex(g) for g in gradient)
            params = SABRParams(alpha, nu, rho)
            assert sabr_normal_vol(params, forward, expiry, strike) == expected[0]
            assert _sabr_vol(alpha, nu, rho, forward, expiry, strike, gradient=True) == expected


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
        # a flat smile does not depend on rho
        assert fit.rho_identified is False

    @pytest.mark.parametrize("vol", [1e250, 1e300])
    def test_vols_whose_squares_overflow_fail_calibration(self, vol):
        # The fit ends, but the flat-smile test squares 1e-12 * vol and overflows.
        message = r"are too large: the flat-smile objective overflows$"
        with pytest.raises(CalibrationFailure, match=message):
            sabr_fit(pivot_set((vol, vol, vol)))

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



def level_term_pivots(forward, expiry, atm, width, wings):
    """Steep convex wings at a long expiry, as TestLevelTerm draws them."""
    h = width * atm * math.sqrt(expiry)
    vols = (atm * (1.0 + wings[0]), atm, atm * (1.0 + wings[1]))
    return PivotSet(forward, expiry, (forward - h, forward, forward + h), vols, 1.0)


# Pivot sets whose fits take the solver's rarer branches.
BRANCH_CASES = {
    # trial steps refused for a level term that is not positive
    "long_dated_level_refused": level_term_pivots(-282.6, 16.6, 142.6, 0.99, (2.71, 0.38)),
    # nu held at its upper bound by the KKT rule
    "long_dated_nu_bound": level_term_pivots(-110.5, 17.0, 111.6, 0.13, (2.93, 0.12)),
    # perfbench calibrate deep frowns (seed 1 cycle 19, seed 3 cycle 29):
    # one start each runs into the 200-step cap
    "step_cap_seed1": PivotSet(
        254.74709271121333,
        7.2059420148083415,
        (100.19637292671527, 234.44297702879965, 351.9755671437981),
        (35.868200579825036, 40.51623097694156, 35.66456748854203),
        0.9159627827077291,
    ),
    "step_cap_seed3": PivotSet(
        110.96948309248198,
        8.442000166016822,
        (-99.72254217162134, 112.15035277220252, 364.09918393856844),
        (102.73431163055827, 115.98394016717626, 103.40301705240012),
        0.9736363492119352,
    ),
}

# float.hex of (alpha, nu, rho, objective, residuals) and rho_identified
FIT_BITS = {
    "deep_frown": (
        "0x1.72aece39ab14ap+5", "0x1.50d92b1a1d3b2p-6", "0x1.ff7ced916872bp-1",
        "0x1.42736a1771848p+4",
        ("0x1.d1b4df3df6740p+0", "-0x1.d52db1136fad0p+1", "0x1.d89cb702b3420p+0"),
        True,
    ),
    "flat": (
        "0x1.9000000000000p+5", "0x1.1395621a38600p-49", "-0x1.01ac5feb4a52cp-5",
        "0x0.0p+0",
        ("0x0.0p+0", "0x0.0p+0", "0x0.0p+0"),
        False,
    ),
    "negative_forward_t10": (
        "0x1.4000000000000p+6", "0x1.3333333333337p-2", "0x1.3333333333331p-2",
        "0x1.0000000000000p-92",
        ("0x1.0000000000000p-46", "0x0.0p+0", "0x0.0p+0"),
        True,
    ),
    "sabr_skew": (
        "0x1.9000000000000p+5", "0x1.ffffffffffffap-2", "-0x1.3333333333332p-1",
        "0x0.0p+0",
        ("0x0.0p+0", "0x0.0p+0", "0x0.0p+0"),
        True,
    ),
    "scenario2_frown": (
        "0x1.88040256a6f47p+5", "0x1.4a3cbabf9d38cp-6", "0x1.ff7ced916872bp-1",
        "0x1.7f209642038d4p+0",
        ("0x1.fbe9ba5409a00p-2", "-0x1.ff6b7cb12ea80p-1", "0x1.017208f0ffbc0p-1"),
        True,
    ),
    "long_dated_level_refused": (
        "0x1.ecba154a8fa2ap+7", "0x1.5207a522225a6p+1", "-0x1.a934f752d0c8dp-1",
        "0x1.d1409185833c8p+11",
        ("-0x1.f8c7aff5e7ef0p+4", "0x1.5a46d47b0ad90p+4", "0x1.7c2c4bb3715c4p+5"),
        True,
    ),
    "long_dated_nu_bound": (
        "0x1.b020d657241c7p+6", "0x1.4000000000000p+3", "-0x1.a1a096be750f2p-1",
        "0x1.d9ffa4b03d0f7p+12",
        ("-0x1.625795a9d3e48p+5", "0x1.b1786d1fbdaf8p+4", "0x1.17a95401824d9p+6"),
        True,
    ),
    "step_cap_seed1": (
        "0x1.2acd89d8edc3dp+5", "0x1.c2833bab2dcc3p-15", "0x1.ff7ced916872bp-1",
        "0x1.e1f70e9bdaae3p+3",
        ("0x1.7a5f1dee13e60p+0", "-0x1.954d1717e7b50p+1", "0x1.b03b101d05d60p+0"),
        True,
    ),
    "step_cap_seed3": (
        "0x1.ad81354b0f898p+6", "0x1.5ce4c3b78e92ap-12", "-0x1.ff7ced916872bp-1",
        "0x1.bdb1bfb0838a7p+6",
        ("0x1.2b51f454e9880p+2", "-0x1.13746a0be8510p+3", "0x1.f72dbc74d93c0p+1"),
        True,
    ),
}

# sha256 of the FIT_BITS-style records of the fits to random_triples(400)
RANDOM_FITS_DIGEST = "b5e65913db0975a1532d1b375125c0784a174c7d63fee2c98c3e1f9c26d4299d"


def fit_bits(fit):
    p = fit.params
    return (
        *(x.hex() for x in (p.alpha, p.nu, p.rho, fit.objective)),
        tuple(r.hex() for r in fit.residuals),
        fit.rho_identified,
    )


def random_triples(n):
    """Seeded pivot sets: convex smiles, skews and frowns of either sign of
    forward, at expiries from 0.1 to 30 years."""
    rng = random.Random(20240)
    for _ in range(n):
        forward = rng.uniform(-300.0, 300.0)
        expiry = rng.uniform(0.1, 30.0)
        atm = rng.uniform(10.0, 150.0)
        h = rng.uniform(0.2, 1.5) * atm * math.sqrt(expiry)
        strikes = (
            forward - rng.uniform(0.8, 1.2) * h,
            forward + rng.uniform(-0.2, 0.2) * h,
            forward + rng.uniform(0.8, 1.2) * h,
        )
        vols = (atm * rng.uniform(0.85, 1.6), atm, atm * rng.uniform(0.85, 1.6))
        yield PivotSet(forward, expiry, strikes, vols, 1.0)


class TestFitBits:
    # Exact result bits, so a reordered operation anywhere in the solver
    # shows even where every tolerance test still passes.
    @pytest.mark.parametrize("case", sorted(FIT_BITS))
    def test_pinned_fit(self, case):
        pivots = BRANCH_CASES[case] if case in BRANCH_CASES else FIT_QUALITY_CASES[case][0]
        assert fit_bits(sabr_fit(pivots)) == FIT_BITS[case]

    def test_random_fits_digest(self):
        digest = hashlib.sha256()
        for pivots in random_triples(400):
            digest.update(repr(fit_bits(sabr_fit(pivots))).encode())
        assert digest.hexdigest() == RANDOM_FITS_DIGEST


# Closed-form gradient against 5-point differences of sabr_normal_vol
# (step 1e-4 * alpha in alpha; 1e-4 * min(1, alpha / |F - K|) in nu,
# one-sided within two steps of nu = 0; 1e-4 * sqrt(1 - |rho|) in rho).
# An entry may miss by GRADIENT_RTOL times the entry plus the vol's size,
# per unit of nu or rho and per unit relative change of alpha.
GRADIENT_RTOL = 1e-7
GRADIENT_STEP = 1e-4


def _difference(f, x, step, one_sided=False):
    if one_sided:
        values = [f(x + i * step) for i in range(5)]
        weights = (-25.0, 48.0, -36.0, 16.0, -3.0)
    else:
        values = [f(x + i * step) for i in (-2, -1, 1, 2)]
        weights = (1.0, -8.0, 8.0, -1.0)
    return sum(w * v for w, v in zip(weights, values)) / (12.0 * step)


def numeric_gradient(alpha, nu, rho, forward, expiry, strike):
    def vol(a, n, r):
        return sabr_normal_vol(SABRParams(a, n, r), forward, expiry, strike)

    # zeta = nu (F - K) / alpha moves by at most the step per step in nu
    nu_step = GRADIENT_STEP * alpha / max(alpha, abs(forward - strike))
    return (
        _difference(lambda a: vol(a, nu, rho), alpha, GRADIENT_STEP * alpha),
        _difference(lambda n: vol(alpha, n, rho), nu, nu_step, one_sided=nu < 2.0 * nu_step),
        # towards |rho| = 1 the smile's derivatives grow like 1 / (1 - |rho|)
        # and its rounding like eps / (1 - |rho|): the step balances both
        _difference(lambda r: vol(alpha, nu, r), rho, GRADIENT_STEP * math.sqrt(1.0 - abs(rho))),
    )


def assert_gradient_matches(alpha, nu, rho, forward, expiry, strike):
    vol, gradient = _sabr_vol(alpha, nu, rho, forward, expiry, strike, gradient=True)
    assert vol == sabr_normal_vol(SABRParams(alpha, nu, rho), forward, expiry, strike)
    numeric = numeric_gradient(alpha, nu, rho, forward, expiry, strike)
    for exact, approx, unit in zip(gradient, numeric, (alpha, 1.0, 1.0)):
        assert abs(exact - approx) * unit <= GRADIENT_RTOL * (abs(approx) * unit + abs(vol))


GRADIENT_ZETAS = [
    # either side of the gradient's series cutoff and of the vol's seam
    *(s * f * _GRADIENT_SERIES_CUTOFF for s in (1.0, -1.0) for f in (0.95, 1.05)),
    *(s * f * 1e-6 for s in (1.0, -1.0) for f in (0.9, 1.1)),
    0.0,
    # the two log1p branches, and far wings with |zeta| >> 1
    0.3, -0.3, 2.0, -2.0, 40.0, -40.0,
]


class TestGradient:
    @pytest.mark.parametrize("rho", (-0.999, -0.5, 0.0, 0.3, 0.999))
    @pytest.mark.parametrize("zeta", GRADIENT_ZETAS)
    def test_matches_differences(self, zeta, rho):
        # alpha 50, nu 0.5, F 0: zeta = -K / 100
        assert_gradient_matches(50.0, 0.5, rho, 0.0, 1.5, -100.0 * zeta)

    @pytest.mark.parametrize("rho", (-0.999, -0.4, 0.0, 0.7, 0.999))
    @pytest.mark.parametrize("strike", (-400.0, -80.0, 0.0, 35.0, 600.0))
    def test_zero_vol_of_vol(self, strike, rho):
        # at nu = 0 the smile is flat, so the rho entry is exactly 0
        assert_gradient_matches(50.0, 0.0, rho, 10.0, 2.0, strike)
        assert _sabr_vol(50.0, 0.0, rho, 10.0, 2.0, strike, gradient=True)[1][2] == 0.0

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(
        alpha=st.floats(1.0, 300.0),
        nu=st.floats(0.0, 3.0),
        rho=st.floats(-0.999, 0.999),
        forward=st.floats(-300.0, 300.0),
        expiry=st.floats(0.02, 30.0),
        strike=st.floats(-1000.0, 1000.0),
    )
    def test_property(self, alpha, nu, rho, forward, expiry, strike):
        assert_gradient_matches(alpha, nu, rho, forward, expiry, strike)


class TestRhoIdentified:
    @pytest.mark.parametrize(
        "name, identified",
        [
            ("scenario1_smile.json", True),
            ("scenario2_frown.json", True),
            ("scenario3_density.json", True),
            # 45/50/45: no convex smile beats the flat line, so nu -> 0
            ("scenario4_density_bimodal.json", False),
        ],
    )
    def test_scenarios(self, scenario_dir, name, identified):
        fit = sabr_fit(load_scenario(str(scenario_dir / name)).pivots)
        assert fit.rho_identified is identified


class TestLevelTerm:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        forward=st.floats(-300.0, 300.0),
        expiry=st.floats(5.0, 30.0),
        atm=st.floats(20.0, 150.0),
        width=st.floats(0.05, 1.5),
        wings=st.tuples(st.floats(0.05, 3.0), st.floats(0.05, 3.0)),
    )
    def test_long_dated_fits_keep_level_positive(self, forward, expiry, atm, width, wings):
        # Steep convex wings at long expiries call for a large nu; with
        # |rho| above sqrt(2/3) the level term 1 + (2 - 3 rho^2) nu^2 T / 24
        # could then turn negative inside the box, and the fit must not
        # land there.
        fit = sabr_fit(level_term_pivots(forward, expiry, atm, width, wings))
        nu, rho = fit.params.nu, fit.params.rho
        assert 1.0 + (2.0 - 3.0 * rho * rho) / 24.0 * nu * nu * expiry > 0.0
        assert sabr_normal_vol(fit.params, forward, expiry, forward) > 0.0
