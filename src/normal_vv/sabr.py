"""Normal SABR: implied-vol approximation and three-parameter calibration.

This is the comparator model. The underlying diffuses with an absolute
(normal) stochastic vol whose own dynamics are lognormal, so the smile
it produces is always convex; calibrating it to a concave pivot triple
leaves an irreducible residual, which is exactly the diagnostic the
vanna-volga comparison is after.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SABRParams",
    "SABRFit",
    "CalibrationFailure",
    "sabr_normal_vol",
    "sabr_fit",
]


class CalibrationFailure(RuntimeError):
    """No optimizer start produced a usable parameter set."""


NU_BOUNDS = (0.0, 10.0)
# Open-interval correlation constraint, held by the optimizer's bounds.
RHO_BOUNDS = (-0.999, 0.999)

# Below this |zeta| the vol's zeta/x(zeta) comes from its Taylor series.
_ZETA_SERIES_CUTOFF = 1e-6
# Below this |zeta| the fit's gradient of zeta/x(zeta) comes from its
# Taylor series. Above it the log form's x - zeta/R cancels to about
# eps/|zeta|, 1e-12 at the cutoff; the series, cut after zeta^2, is off by
# about 1e-13 there. Both stay below the ~1e-10 of central differences.
_GRADIENT_SERIES_CUTOFF = 1e-4


@dataclass(frozen=True)
class SABRParams:
    """Normal SABR parameters (the exponent on the forward is fixed at 0).

    alpha: instantaneous normal vol, same units as the forward.
    nu:    vol of vol (lognormal), per sqrt(year).
    rho:   correlation between forward and vol shocks.
    """

    alpha: float
    nu: float
    rho: float

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < math.inf:
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")
        if not 0.0 <= self.nu < math.inf:
            raise ValueError(f"nu must be nonnegative and finite, got {self.nu}")
        if not -1.0 < self.rho < 1.0:
            raise ValueError(f"rho must lie in (-1, 1), got {self.rho}")


@dataclass(frozen=True)
class SABRFit:
    """Calibration result: parameters plus per-pivot vol residuals.

    rho_identified is False when the fit does no better than the best
    flat smile: the pivots then carry no curvature or skew that nu > 0
    could use, and at nu = 0 the smile does not depend on rho, so the
    reported rho is one of many with the same objective.
    """

    params: SABRParams
    residuals: tuple[float, float, float]
    objective: float
    rho_identified: bool

    @property
    def max_abs_residual(self) -> float:
        return max(abs(r) for r in self.residuals)


def sabr_normal_vol(params: SABRParams, forward: float, expiry: float, strike: float) -> float:
    """Implied normal vol of the Normal SABR smile at one strike.

    The expiry must be positive and finite. A NaN forward or strike is
    not checked, because the density calls this three times per grid
    point; it gives a NaN vol.
    """
    if not 0.0 < expiry < math.inf:
        raise ValueError(f"expiry must be positive and finite, got {expiry}")
    return _sabr_vol(params.alpha, params.nu, params.rho, forward, expiry, strike)


def _sabr_vol(alpha, nu, rho, forward, expiry, strike, gradient=False):
    """Normal SABR vol at one strike; with `gradient`, also its gradient
    in (alpha, nu, rho) as `(vol, (d_alpha, d_nu, d_rho))`.

    vol = alpha * g * level (Hagan et al. 2002), with
    zeta = nu (F - K) / alpha, level = 1 + (2 - 3 rho^2) nu^2 T / 24 and
    g = zeta / x, where x(zeta, rho) = log((R - rho + zeta) / (1 - rho)),
    R = sqrt(1 - 2 rho zeta + zeta^2). x is the log1p of an increment
    built from R - 1 = zeta (zeta - 2 rho) / (1 + R), taken for zeta < 0
    through x(zeta, rho) = -x(-zeta, -rho), so nothing cancels near
    zeta = 0 or in either wing. Inside `_ZETA_SERIES_CUTOFF`, where
    zeta / x turns 0 / 0, g comes from its series.

    The gradient follows by the chain rule from g_zeta = (x - zeta/R) / x^2
    and g_rho = -zeta x_rho / x^2, with x_rho written with its zeta^2
    factor pulled out, so it does not cancel near zeta = 0. Inside
    `_GRADIENT_SERIES_CUTOFF` both come from the series of g.
    """
    zeta = nu / alpha * (forward - strike)
    level = 1.0 + (2.0 - 3.0 * rho**2) / 24.0 * nu**2 * expiry
    if abs(zeta) < _ZETA_SERIES_CUTOFF:
        g = 1.0 - 0.5 * rho * zeta + (2.0 - 3.0 * rho * rho) / 12.0 * zeta * zeta
    else:
        root = math.sqrt(1.0 - 2.0 * rho * zeta + zeta * zeta)
        root_m1 = zeta * (zeta - 2.0 * rho) / (1.0 + root)
        if zeta > 0.0:
            x = math.log1p((root_m1 + zeta) / (1.0 - rho))
        else:
            x = -math.log1p((root_m1 - zeta) / (1.0 + rho))
        g = zeta / x
    vol = alpha * g * level
    if not gradient:
        return vol
    if abs(zeta) < _GRADIENT_SERIES_CUTOFF:
        g_zeta = (
            -0.5 * rho
            + (2.0 - 3.0 * rho * rho) / 6.0 * zeta
            + rho * (5.0 - 6.0 * rho * rho) / 8.0 * zeta * zeta
        )
        g_rho = zeta * (-0.5 - 0.5 * rho * zeta + (5.0 - 18.0 * rho * rho) / 24.0 * zeta * zeta)
    else:
        g_zeta = (x - zeta / root) / (x * x)
        # x_rho = 1/(1 - rho) - (1 + zeta/R) / (R - rho + zeta) is the same
        # at (-zeta, -rho): take it at z = |zeta|, p = sign(zeta) rho, with
        # the difference done by hand and R - p + z = 1 - p + (R - 1 + z).
        z, p = (zeta, rho) if zeta > 0.0 else (-zeta, -rho)
        shift = root_m1 + z
        b = root + z - 2.0 * p - p * (z - 2.0 * p) / (1.0 + root)
        x_rho = z * z * b / ((1.0 + root) * root * (1.0 - p) * (1.0 - p + shift))
        g_rho = -zeta * x_rho / (x * x)
    d_alpha = level * (g - zeta * g_zeta)
    d_nu = (
        level * g_zeta * (forward - strike)
        + alpha * g * (2.0 - 3.0 * rho * rho) / 12.0 * nu * expiry
    )
    d_rho = alpha * (level * g_rho - g * rho * nu * nu * expiry / 4.0)
    return vol, (d_alpha, d_nu, d_rho)


def sabr_fit(pivots) -> SABRFit:
    """Calibrate (alpha, nu, rho) to the three pivot vols of `pivots`.

    Deterministic multi-start bounded least squares: four starts at
    nu in {0.3, 1.0} x rho in {-0.4, 0.4}, alpha seeded from the
    near-ATM pivot, each run inside the parameter box with the
    closed-form Jacobian of `_sabr_vol`; the lowest finite cost
    wins. Convex pivot triples are fitted essentially exactly; concave
    ones end at the best convex compromise with visible residuals.
    """
    from scipy.optimize import least_squares

    strikes = pivots.strikes
    vols = pivots.vols
    forward = pivots.forward
    expiry = pivots.expiry
    # Pivot closest to the forward anchors the starting vol level.
    near_atm = min(range(3), key=lambda i: abs(strikes[i] - forward))
    vol_scale = vols[near_atm]
    lower = np.array([1e-6 * min(vols), NU_BOUNDS[0], RHO_BOUNDS[0]])
    upper = np.array([1e3 * max(vols), NU_BOUNDS[1], RHO_BOUNDS[1]])

    def residual_vec(x):
        alpha, nu, rho = x.tolist()
        return [_sabr_vol(alpha, nu, rho, forward, expiry, k) - v for k, v in zip(strikes, vols)]

    def jacobian(x):
        alpha, nu, rho = x.tolist()
        return [_sabr_vol(alpha, nu, rho, forward, expiry, k, gradient=True)[1] for k in strikes]

    def run(nu0: float, rho0: float):
        # at K = F and alpha = 1 the kernel returns the level term itself
        level = _sabr_vol(1.0, nu0, rho0, forward, expiry, forward)
        x0 = np.clip([vol_scale / level, nu0, rho0], lower, upper)
        return least_squares(
            residual_vec,
            x0,
            jac=jacobian,
            bounds=(lower, upper),
            xtol=1e-15,
            ftol=1e-15,
            gtol=1e-15,
        )

    results = [run(nu0, rho0) for nu0 in (0.3, 1.0) for rho0 in (-0.4, 0.4)]
    finite = [r for r in results if math.isfinite(r.cost)]
    if not finite:
        raise CalibrationFailure("no least-squares start produced finite parameters")
    best = min(finite, key=lambda r: r.cost)

    params = SABRParams(*best.x.tolist())
    residuals = tuple(residual_vec(best.x))
    objective = float(sum(r * r for r in residuals))
    # nu = 0 fits the best flat line, so no fit does worse; one that does
    # no better, to the rounding floor (1e-12 * atm)^2, has left rho free.
    mean = sum(vols) / 3.0
    flat_objective = sum((v - mean) ** 2 for v in vols)
    rho_identified = objective < flat_objective * (1.0 - 1e-9) - (1e-12 * vol_scale) ** 2
    return SABRFit(
        params=params, residuals=residuals, objective=objective, rho_identified=rho_identified
    )
