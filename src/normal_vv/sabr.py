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
    nu:    vol of vol (lognormal), per sqrt(year), with nu^2 finite: nu <= sqrt(DBL_MAX).
    rho:   correlation between forward and vol shocks.
    """

    alpha: float
    nu: float
    rho: float

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < math.inf:
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")
        if not (0.0 <= self.nu and self.nu * self.nu < math.inf):
            raise ValueError(f"nu must be nonnegative with a finite square, got {self.nu}")
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
    near-ATM pivot, each run by `_levenberg_marquardt` inside the
    parameter box with the closed-form Jacobian of `_sabr_vol`; the
    lowest finite cost wins. Every parameter set the solver accepts has
    a positive level term 1 + (2 - 3 rho^2) nu^2 T / 24, so the fitted
    smile is positive at the money. Convex pivot triples are fitted
    essentially exactly; concave ones end at the best convex compromise
    with visible residuals. Raises :class:`CalibrationFailure` when no
    start reaches a finite cost, or when the pivot vols are so large that
    the flat-smile objective overflows.
    """
    strikes = k1, k2, k3 = pivots.strikes
    vols = v1, v2, v3 = pivots.vols
    forward = pivots.forward
    expiry = pivots.expiry
    # Pivot closest to the forward anchors the starting vol level.
    near_atm = min(range(3), key=lambda i: abs(strikes[i] - forward))
    vol_scale = vols[near_atm]
    lower = (1e-6 * min(vols), NU_BOUNDS[0], RHO_BOUNDS[0])
    upper = (1e3 * max(vols), NU_BOUNDS[1], RHO_BOUNDS[1])

    def evaluate(alpha, nu, rho):
        # the box cannot hold the level term positive, so the solver does
        if not 1.0 + (2.0 - 3.0 * rho**2) / 24.0 * nu**2 * expiry > 0.0:
            return None
        vol1, row1 = _sabr_vol(alpha, nu, rho, forward, expiry, k1, True)
        vol2, row2 = _sabr_vol(alpha, nu, rho, forward, expiry, k2, True)
        vol3, row3 = _sabr_vol(alpha, nu, rho, forward, expiry, k3, True)
        r1, r2, r3 = vol1 - v1, vol2 - v2, vol3 - v3
        cost = r1 * r1 + r2 * r2 + r3 * r3
        return (cost, (r1, r2, r3), (row1, row2, row3)) if math.isfinite(cost) else None

    runs = []
    for nu0 in (0.3, 1.0):
        for rho0 in (-0.4, 0.4):
            # at K = F and alpha = 1 the kernel returns the level term itself
            level = _sabr_vol(1.0, nu0, rho0, forward, expiry, forward)
            start = (vol_scale / level, nu0, rho0)
            start = [min(max(x, lo), hi) for x, lo, hi in zip(start, lower, upper)]
            runs.append(_levenberg_marquardt(evaluate, start, lower, upper))
    finite = [r for r in runs if r is not None]
    if not finite:
        raise CalibrationFailure("no least-squares start produced finite parameters")
    objective, params, residuals = min(finite, key=lambda r: r[0])

    # nu = 0 fits the best flat line, so no fit does worse; one that does
    # no better, to the rounding floor (1e-12 * atm)^2, has left rho free.
    mean = (v1 + v2 + v3) / 3.0
    try:
        flat_objective = (v1 - mean) ** 2 + (v2 - mean) ** 2 + (v3 - mean) ** 2
        floor = (1e-12 * vol_scale) ** 2
    except OverflowError:
        raise CalibrationFailure(
            f"pivot vols {vols} are too large: the flat-smile objective overflows"
        ) from None
    rho_identified = objective < flat_objective * (1.0 - 1e-9) - floor
    return SABRFit(
        params=SABRParams(*params),
        residuals=residuals,
        objective=objective,
        rho_identified=rho_identified,
    )


# Levenberg-Marquardt stops once a step would move no parameter p by more
# than _LM_XTOL * (|p| + 1), once an accepted step lowers the cost by no
# more than _LM_FTOL of it, or after _LM_MAX_STEPS trial steps.
_LM_XTOL = 1e-15
_LM_FTOL = 1e-15
_LM_MAX_STEPS = 200
# Initial damping: the first step solves with diag(J^T J) scaled by 1.001.
_LM_DAMPING = 1e-3


def _levenberg_marquardt(evaluate, p, lower, upper):
    """Minimise a 3-parameter sum of squares over the box [lower, upper].

    `evaluate(*p)` returns (cost, residuals, Jacobian rows) as tuples, or
    None at a point the caller rejects; a trial step that lands there is
    refused like one that raises the cost. Levenberg-Marquardt (More 1978)
    with Marquardt's scaling by the running maximum of diag(J^T J) and
    Nielsen's damping update; each step solves
    (J^T J + lam D) step = -J^T r by Cholesky and is projected onto the
    box. The run starts in the interior. A parameter on one of its
    bounds whose cost gradient points out of the box has met its KKT
    condition there: it is held, and the step is solved over the others,
    so the run follows a face, edge or corner only while the gradient
    keeps pushing outwards. Returns (cost, p, residuals) at the lowest
    cost reached, or None when `p` itself is rejected.

    The size is fixed, so the loop is straight-line code on scalars (p1,
    p2, p3 for p, and so on) with the Cholesky solve inline: lists, `zip`
    and generators cost more than its arithmetic. Sums add left to right.
    """
    point = evaluate(*p)
    if point is None:
        return None
    cost, (r1, r2, r3), ((a1, a2, a3), (b1, b2, b3), (c1, c2, c3)) = point
    (p1, p2, p3), (lo1, lo2, lo3), (hi1, hi2, hi3) = p, lower, upper
    m1 = m2 = m3 = 0.0  # Marquardt's scale
    lam = _LM_DAMPING
    growth = 2.0
    for _ in range(_LM_MAX_STEPS):
        # the gradient J^T r and the lower triangle of J^T J
        g1 = a1 * r1 + b1 * r2 + c1 * r3
        g2 = a2 * r1 + b2 * r2 + c2 * r3
        g3 = a3 * r1 + b3 * r2 + c3 * r3
        h11 = a1 * a1 + b1 * b1 + c1 * c1
        h22 = a2 * a2 + b2 * b2 + c2 * c2
        h33 = a3 * a3 + b3 * b3 + c3 * c3
        h21 = a2 * a1 + b2 * b1 + c2 * c1
        h31 = a3 * a1 + b3 * b1 + c3 * c1
        h32 = a3 * a2 + b3 * b2 + c3 * c2
        m1 = h11 if h11 > m1 else m1
        m2 = h22 if h22 > m2 else m2
        m3 = h33 if h33 > m3 else m3
        d1 = h11 + lam * m1
        d2 = h22 + lam * m2
        d3 = h33 + lam * m3
        # a held parameter gets a unit row and column and a zero right-hand side
        if (p1 <= lo1 and g1 > 0.0) or (p1 >= hi1 and g1 < 0.0):
            d1, h21, h31, g1 = 1.0, 0.0, 0.0, 0.0
        if (p2 <= lo2 and g2 > 0.0) or (p2 >= hi2 and g2 < 0.0):
            d2, h21, h32, g2 = 1.0, 0.0, 0.0, 0.0
        if (p3 <= lo3 and g3 > 0.0) or (p3 >= hi3 and g3 < 0.0):
            d3, h31, h32, g3 = 1.0, 0.0, 0.0, 0.0
        # Cholesky solve of (J^T J + lam D) step = -g; a pivot that is not
        # numerically positive refuses the step like a rise in cost
        point = None
        if d1 > 0.0:
            l11 = math.sqrt(d1)
            l21 = h21 / l11
            l31 = h31 / l11
            d2 = d2 - l21 * l21
            if d2 > 0.0:
                l22 = math.sqrt(d2)
                l32 = (h32 - l31 * l21) / l22
                d3 = d3 - l31 * l31 - l32 * l32
                if d3 > 0.0:
                    l33 = math.sqrt(d3)
                    y1 = -g1 / l11
                    y2 = (-g2 - l21 * y1) / l22
                    y3 = (-g3 - l31 * y1 - l32 * y2) / l33
                    s3 = y3 / l33
                    s2 = (y2 - l32 * s3) / l22
                    s1 = (y1 - l21 * s2 - l31 * s3) / l11
                    if (
                        abs(s1) <= _LM_XTOL * (abs(p1) + 1.0)
                        and abs(s2) <= _LM_XTOL * (abs(p2) + 1.0)
                        and abs(s3) <= _LM_XTOL * (abs(p3) + 1.0)
                    ):
                        break
                    # projected onto the box, as min(max(t, lo), hi) would be
                    t1, t2, t3 = p1 + s1, p2 + s2, p3 + s3
                    t1 = lo1 if lo1 > t1 else hi1 if hi1 < t1 else t1
                    t2 = lo2 if lo2 > t2 else hi2 if hi2 < t2 else t2
                    t3 = lo3 if lo3 > t3 else hi3 if hi3 < t3 else t3
                    point = evaluate(t1, t2, t3)
        if point is None or not point[0] < cost:
            lam *= growth
            growth *= 2.0
            continue
        # gain ratio: actual over predicted decrease of the linear model
        s1, s2, s3 = t1 - p1, t2 - p2, t3 - p3
        e1 = r1 + a1 * s1 + a2 * s2 + a3 * s3
        e2 = r2 + b1 * s1 + b2 * s2 + b3 * s3
        e3 = r3 + c1 * s1 + c2 * s2 + c3 * s3
        predicted = cost - (e1 * e1 + e2 * e2 + e3 * e3)
        gain = (cost - point[0]) / predicted if predicted > 0.0 else 0.0
        lam *= max(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3)
        growth = 2.0
        done = cost - point[0] <= _LM_FTOL * cost
        p1, p2, p3 = t1, t2, t3
        cost, (r1, r2, r3), ((a1, a2, a3), (b1, b2, b3), (c1, c2, c3)) = point
        if done:
            break
    return cost, (p1, p2, p3), (r1, r2, r3)
