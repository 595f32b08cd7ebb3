"""Per-item correctness checks.

None needs a stored answer and none runs the library path it checks:
expected values come from `reference`, or from the library's own
`bachelier_price` where a check reprices a vol the inverter produced.
Each check returns per-item pass flags plus a count of the reasons
items failed, so known defects show up by name.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

import reference

EPS = np.finfo(float).eps
OK = "ok"
# The README promises 1e-10 round trips; the other tolerances sit well
# above the rounding of two independent evaluations of one formula.
REPRICE_TOL = 1e-10
FORMULA_TOL = 1e-9
PIVOT_TOL = 1e-9
# CLI numbers are printed to 12 significant digits.
PRINTED_TOL = 1e-9


def vv_points(p, ref_vol, method, strikes, vols, statuses, prices=None, reprice=None, tol=FORMULA_TOL):
    """Check one vanna-volga smile grid point by point.

    `vols` holds NaN where the library returned none. With `prices` (the
    library's hedge prices) an exact point must reprice its own price
    through `reprice` to REPRICE_TOL; without them (CLI output) the
    printed vol must reprice the reference VV price to `tol`.
    """
    k = np.asarray(strikes, dtype=float)
    vol = np.asarray(vols, dtype=float)
    status_ok = np.array([s == OK for s in statuses])
    why = Counter()
    # A vol that is missing or not positive is no usable smile point,
    # whatever status it carries.
    good = status_ok & np.isfinite(vol) & (vol > 0.0)
    why["failure_status"] += int(np.count_nonzero(~status_ok))
    why["nonpositive_vol"] += int(np.count_nonzero(status_ok & (vol <= 0.0)))
    why["missing_vol"] += int(np.count_nonzero(status_ok & ~np.isfinite(vol)))

    pars = p.as_reference(ref_vol)
    ref_price, scale = reference.vv_price(pars, k)
    if prices is not None:
        price = np.asarray(prices, dtype=float)
        price_ok = np.abs(price - ref_price) <= FORMULA_TOL * scale
        why["vv_price"] += int(np.count_nonzero(~price_ok))
        good &= price_ok
    intrinsic = p.discount * np.maximum(p.forward - k, 0.0)
    why["wrongly_failed"] += int(
        np.count_nonzero(~status_ok & (ref_price - intrinsic > FORMULA_TOL * scale))
    )

    with np.errstate(invalid="ignore"):
        if method == "vv-exact":
            reason = "reprice"
            if prices is not None:
                target = np.asarray(prices, dtype=float)
                back = np.array([reprice(ki, vi) if g else math.nan for ki, vi, g in zip(k, vol, good)])
                vol_ok = np.abs(back - target) <= REPRICE_TOL * np.abs(target)
            else:
                back = reference.bachelier(p.forward, k, p.expiry, vol, p.discount)
                vol_ok = np.abs(back - ref_price) <= tol * np.abs(ref_price)
        else:
            fn = reference.vv_first_order if method == "vv-first" else reference.vv_second_order
            expected = fn(pars, k)
            vol_ok = np.abs(vol - expected) <= tol * np.abs(expected)
            reason = "formula"
    why[reason] += int(np.count_nonzero(good & ~vol_ok))
    good &= vol_ok

    for k_i, v_i in zip(p.strikes, p.vols):
        at = k == k_i
        miss = at & good & ~(np.abs(vol - v_i) <= PIVOT_TOL * v_i)
        why["pivot"] += int(np.count_nonzero(miss))
        good &= ~miss
    return good, why


def window_moments(price_at, lo: float, hi: float, delta: float, discount: float):
    """Exact mass and mean of the density over [lo, hi].

    With f = C''/DF, the mass is [C']/DF and the first moment
    [x C' - C]/DF between the window ends; C' is taken by a central
    difference of the reference price.
    """

    def slope(x):
        return (price_at(x + delta) - price_at(x - delta)) / (2.0 * delta)

    mass = (slope(hi) - slope(lo)) / discount
    first = ((hi * slope(hi) - price_at(hi)) - (lo * slope(lo) - price_at(lo))) / discount
    return mass, first / mass


# Trapezoid error on a 401-point window, against the exact window moments.
MASS_TOL = 2e-3
MEAN_TOL = 2e-3


def density_points(x, values, integral, mean, delta, discount, price_and_scale, stddev):
    """Check a density grid against second differences of reference prices.

    `price_and_scale(k)` gives reference prices and the magnitude of the
    terms that formed them, which bounds their rounding. A NaN gap fails
    its point; a grid whose trapezoid mass or mean misses the window's
    exact moments fails every point.
    """
    x = np.asarray(x, dtype=float)
    values = np.asarray(values, dtype=float)
    up, s_up = price_and_scale(x + delta)
    mid, s_mid = price_and_scale(x)
    down, s_down = price_and_scale(x - delta)
    expected = reference.second_difference(up, mid, down, discount, delta)
    noise = 64.0 * EPS * (s_up + s_down + 2.0 * s_mid) / (discount * delta * delta)
    peak = float(np.max(np.abs(expected)))
    why = Counter()
    finite = np.isfinite(values)
    why["gap"] += int(np.count_nonzero(~finite))
    with np.errstate(invalid="ignore"):
        close = np.abs(values - expected) <= noise + 1e-9 * peak
    why["value"] += int(np.count_nonzero(finite & ~close))
    good = finite & close

    mass, centre = window_moments(lambda k: float(price_and_scale(np.array([k]))[0][0]), x[0], x[-1], delta, discount)
    if not (abs(integral - mass) <= MASS_TOL and abs(mean - centre) <= MEAN_TOL * stddev):
        why["moments"] += int(np.count_nonzero(good))
        good[:] = False
    return good, why


def sabr_fit(params, strikes, vols, forward, expiry, planted: bool, atm_vol: float):
    """The fit beats the flat (nu = 0) best fit, and is exact when the
    pivots were generated from SABR parameters. Returns the reasons it
    failed (empty when it passed)."""
    alpha, nu, rho = params
    fitted = reference.sabr_vol(alpha, nu, rho, forward, expiry, np.asarray(strikes, dtype=float))
    residuals = fitted - np.asarray(vols)
    objective = float(np.sum(residuals * residuals))
    mean = sum(vols) / 3.0
    flat = sum((v - mean) ** 2 for v in vols)
    why = Counter()
    if not objective <= flat * (1.0 + 1e-9) + (1e-12 * atm_vol) ** 2:
        why["sabr_worse_than_flat"] += 1
    if planted and not float(np.max(np.abs(residuals))) <= 1e-9 * atm_vol:
        why["sabr_not_exact"] += 1
    return why


def calibration(p, k4: float, sigma4: float, found: float) -> Counter:
    """The returned reference vol's smile reprices the fourth quote.

    Another root than the planted one is a right answer too: the quote
    can be reached from several reference vols.
    """
    why = Counter()
    price, scale = reference.vv_price(p.as_reference(found), k4)
    target = float(reference.bachelier(p.forward, k4, p.expiry, sigma4, p.discount))
    if not abs(float(price) - target) <= 1e-8 * max(abs(target), FORMULA_TOL * float(scale)):
        why["calibration_reprice"] += 1
    return why
