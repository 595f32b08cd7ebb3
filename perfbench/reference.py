"""Reference formulas for the benchmark's correctness checks.

Written from the model definitions with numpy and scipy.special, so a
check never runs the library code path it is checking. Every function
takes strike arrays.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtr

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def pdf(x):
    return _INV_SQRT_2PI * np.exp(-0.5 * np.square(x))


def bachelier(forward, strike, expiry, vol, discount=1.0, call=True):
    """Discounted Bachelier price; puts use the reflected form."""
    stddev = np.asarray(vol, dtype=float) * math.sqrt(expiry)
    intrinsic = np.asarray(forward - np.asarray(strike, dtype=float))
    d = intrinsic / stddev
    if call:
        value = intrinsic * ndtr(d) + stddev * pdf(d)
    else:
        value = -intrinsic * ndtr(-d) + stddev * pdf(d)
    return discount * value


def bachelier_greeks(forward, strike, expiry, vol, discount=1.0, call=True):
    """Price, forward delta, vega, gamma, vanna, volga and moneyness."""
    sqrt_t = math.sqrt(expiry)
    d = (forward - strike) / (vol * sqrt_t)
    vega = discount * sqrt_t * pdf(d)
    delta = discount * ndtr(d) if call else -discount * ndtr(-d)
    return {
        "price": bachelier(forward, strike, expiry, vol, discount, call),
        "delta_forward": delta,
        "vega": vega,
        "gamma_forward": vega / (vol * expiry),
        "vanna_forward": -vega * d / (vol * sqrt_t),
        "volga": vega * d * d / vol,
        "moneyness": d,
    }


def lagrange_weights(pivot_strikes, k0):
    """Quadratic-interpolation weights y_i(k0); they sum to one."""
    k1, k2, k3 = pivot_strikes
    k0 = np.asarray(k0, dtype=float)
    return (
        (k2 - k0) * (k3 - k0) / ((k2 - k1) * (k3 - k1)),
        (k1 - k0) * (k3 - k0) / ((k1 - k2) * (k3 - k2)),
        (k1 - k0) * (k2 - k0) / ((k1 - k3) * (k2 - k3)),
    )


def vv_price(p, k0):
    """Vanna-volga call price and the magnitude of its summed terms.

    `p` is a dict with forward, expiry, discount, strikes, vols and ref.
    The magnitude scales the tolerance where the terms cancel.
    """
    forward, expiry, df, ref = p["forward"], p["expiry"], p["discount"], p["ref"]
    k0 = np.asarray(k0, dtype=float)
    stddev = ref * math.sqrt(expiry)
    d0 = (forward - k0) / stddev
    flat = bachelier(forward, k0, expiry, ref, df)
    price = flat.copy()
    scale = np.abs(flat)
    for y_i, k_i, v_i in zip(lagrange_weights(p["strikes"], k0), p["strikes"], p["vols"]):
        d_i = (forward - k_i) / stddev
        # A pivot far in the tails of a small reference vol has pdf 0; the
        # NaN price that follows marks the point as having no smile.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            w_i = y_i * pdf(d0) / pdf(d_i)
        cost = bachelier(forward, k_i, expiry, v_i, df) - bachelier(forward, k_i, expiry, ref, df)
        price = price + w_i * cost
        scale = scale + np.abs(w_i * cost)
    return price, scale


def vv_first_order(p, k0):
    return sum(y * v for y, v in zip(lagrange_weights(p["strikes"], k0), p["vols"]))


def vv_second_order(p, k0):
    """Second-order smile; NaN where the square-root argument is negative."""
    forward, expiry, ref = p["forward"], p["expiry"], p["ref"]
    stddev = ref * math.sqrt(expiry)
    k0 = np.asarray(k0, dtype=float)
    d0 = (forward - k0) / stddev
    y = lagrange_weights(p["strikes"], k0)
    first = sum(y_i * v_i for y_i, v_i in zip(y, p["vols"]))
    q = sum(
        y_i * ((forward - k_i) / stddev) ** 2 * (v_i - ref) ** 2
        for y_i, k_i, v_i in zip(y, p["strikes"], p["vols"])
    )
    c = 2.0 * ref * (first - ref) + q
    disc = ref * ref + d0 * d0 * c
    with np.errstate(invalid="ignore"):
        return np.where(disc >= 0.0, ref + c / (ref + np.sqrt(np.maximum(disc, 0.0))), np.nan)


def sabr_vol(alpha, nu, rho, forward, expiry, strike):
    """Normal SABR (beta = 0) implied normal vol, Hagan et al. 2002."""
    zeta = nu / alpha * (forward - np.asarray(strike, dtype=float))
    # x(-zeta, -rho) = -x(zeta, rho): evaluate on |zeta| so the log
    # argument never cancels, then restore the sign.
    z = np.abs(zeta)
    r = np.where(zeta >= 0.0, rho, -rho)
    root = np.sqrt(1.0 - 2.0 * r * z + z * z)
    x = np.log1p((z * (z - 2.0 * r) / (1.0 + root) + z) / (1.0 - r))
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.where(
            z < 1e-6,
            1.0 - 0.5 * rho * zeta + (2.0 - 3.0 * rho * rho) / 12.0 * zeta * zeta,
            z / x,
        )
    level = 1.0 + (2.0 - 3.0 * rho * rho) / 24.0 * nu * nu * expiry
    return alpha * ratio * level


def implied_vol(price, forward, strike, expiry, discount=1.0, call=True):
    """Bachelier implied vol by bisection on log-vol; slow but plain."""
    lo, hi = math.log(1e-8), math.log(1e8)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if float(bachelier(forward, strike, expiry, math.exp(mid), discount, call)) < price:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-15:
            break
    return math.exp(0.5 * (lo + hi))


def second_difference(prices_up, prices_mid, prices_down, discount, delta):
    return (prices_up + prices_down - 2.0 * prices_mid) / (discount * delta * delta)
