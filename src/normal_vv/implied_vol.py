"""Implied normal volatility from option prices.

The workhorse is a rational approximation on the straddle time value
that is accurate to roughly ten significant digits on its own; a short
Newton polish against the analytic pricer then pins the round trip down
to the limits of double precision. No bisection, no damping loops.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bachelier import OptionSpec, _call_price_pdf, bachelier_price, norm_pdf

__all__ = [
    "ArbitrageViolation",
    "InversionCoefficients",
    "COEFFICIENTS",
    "implied_normal_vol",
    "implied_normal_vol_atm",
]


class ArbitrageViolation(ValueError):
    """The quoted price lies outside the no-arbitrage band for the option."""


@dataclass(frozen=True)
class InversionCoefficients:
    """Coefficients of the rational kernel mapping eta to vol.

    `numerator` has degree 7, `denominator` degree 9 with leading
    coefficient exactly 1. These constants are load-bearing: a single
    mistyped digit produces silently wrong vols, so a unit test asserts
    every literal digit for digit.
    """

    numerator: tuple[float, ...]
    denominator: tuple[float, ...]


COEFFICIENTS = InversionCoefficients(
    numerator=(
        3.994961687345134e-1,
        2.100960795068497e+1,
        4.980340217855084e+1,
        5.988761102690991e+2,
        1.848489695437094e+3,
        6.106322407867059e+3,
        2.493415285349361e+4,
        1.266458051348246e+4,
    ),
    denominator=(
        1.000000000000000e+0,
        4.990534153589422e+1,
        3.093573936743112e+1,
        1.495105008310999e+3,
        1.323614537899738e+3,
        1.598919697679745e+4,
        2.392008891720782e+4,
        3.608817108375034e+3,
        -2.067719486400926e+2,
        1.174240599306013e+1,
    ),
)

# Relative half-width of the band around F = K in which the direct ATM
# closed form is used; avoids atanh(theta)/theta cancellation at the seam.
_ATM_BAND = 1e-14

_MAX_NEWTON_STEPS = 4

_ATANH = np.frompyfunc(math.atanh, 1, 1)  # np.arctanh rounds differently


def _rational_kernel(eta: float) -> float:
    num = 0.0
    for a in reversed(COEFFICIENTS.numerator):
        num = num * eta + a
    den = 0.0
    for b in reversed(COEFFICIENTS.denominator):
        den = den * eta + b
    # sqrt is correctly rounded in numpy as in math, so arrays may use np.sqrt.
    root = np.sqrt(eta) if isinstance(eta, np.ndarray) else math.sqrt(eta)
    return root * num / den


def implied_normal_vol(price: float, spec: OptionSpec) -> float:
    """Invert a Bachelier price of `spec.kind` back to its normal vol.

    The price must lie strictly above discounted intrinsic value (and be
    finite); anything else raises :class:`ArbitrageViolation`. The result
    reprices the input to relative 1e-10 or better.
    """
    if not math.isfinite(price):
        raise ArbitrageViolation(f"price must be finite, got {price}")
    intrinsic = spec.intrinsic()
    if price <= intrinsic:
        raise ArbitrageViolation(
            f"price {price} does not exceed intrinsic value {intrinsic} "
            f"(F={spec.forward}, K={spec.strike}, {spec.kind})"
        )

    fwd_minus_strike = spec.forward - spec.strike
    # Work in forward (undiscounted) value space throughout.
    if spec.is_call:
        call_fwd = price / spec.discount
        put_fwd = call_fwd - fwd_minus_strike
    else:
        put_fwd = price / spec.discount
        call_fwd = put_fwd + fwd_minus_strike
    straddle = call_fwd + put_fwd

    scale = max(1.0, abs(spec.forward) + abs(spec.strike))
    if abs(fwd_minus_strike) <= _ATM_BAND * scale:
        sigma = 0.5 * straddle * math.sqrt(2.0 * math.pi / spec.expiry)
    else:
        theta = fwd_minus_strike / straddle
        if not -1.0 < theta < 1.0:
            raise ArbitrageViolation(
                f"straddle value {straddle} does not dominate |F - K| = "
                f"{abs(fwd_minus_strike)}; no finite vol reprices this quote"
            )
        eta = theta / math.atanh(theta)
        sigma = math.sqrt(math.pi / (2.0 * spec.expiry)) * straddle * _rational_kernel(eta)

    return _newton_polish(price, spec, sigma)


def _implied_call_vols(prices, forward: float, strikes, expiry: float, discount: float):
    """`implied_normal_vol` of call quotes over float arrays: bit for bit
    equal where it returns, NaN where it raises ArbitrageViolation."""
    fwd_minus_strike = forward - strikes
    call_fwd = prices / discount
    straddle = call_fwd + (call_fwd - fwd_minus_strike)
    valid = np.isfinite(prices) & ~(prices <= discount * np.maximum(fwd_minus_strike, 0.0))
    scale = np.fmax(1.0, abs(forward) + np.abs(strikes))
    atm = valid & (np.abs(fwd_minus_strike) <= _ATM_BAND * scale)
    sigma = np.full(prices.shape, math.nan)
    sigma[atm] = 0.5 * straddle[atm] * math.sqrt(2.0 * math.pi / expiry)
    idx = np.flatnonzero(valid & ~atm)
    theta = fwd_minus_strike[idx] / straddle[idx]
    inside = (-1.0 < theta) & (theta < 1.0)
    idx, theta = idx[inside], theta[inside]
    eta = theta / _ATANH(theta).astype(float)
    sigma[idx] = math.sqrt(math.pi / (2.0 * expiry)) * straddle[idx] * _rational_kernel(eta)
    # `_newton_polish` per element, each stopping where the scalar loop breaks;
    # a form of its own, as on one element it costs tens of scalar inversions.
    sqrt_t = math.sqrt(expiry)
    tol = 4.0 * np.spacing(np.abs(prices))
    idx = np.arange(sigma.size)
    for _ in range(_MAX_NEWTON_STEPS):
        idx = idx[(sigma[idx] > 0.0) & np.isfinite(sigma[idx])]
        s = sigma[idx]
        price, pdf = _call_price_pdf(fwd_minus_strike[idx], s * sqrt_t, discount)
        residual = price - prices[idx]
        vega = discount * sqrt_t * pdf
        live = ~(np.abs(residual) <= tol[idx]) & ~(vega <= 0.0)
        idx, s, step = idx[live], s[live], residual[live] / vega[live]
        halve = step >= s
        sigma[idx] = s = np.where(halve, 0.5 * s, s - step)
        idx = idx[halve | ~(np.abs(step) <= 2.0 * np.spacing(s))]
    return sigma


def implied_normal_vol_atm(price: float, spec: OptionSpec) -> float:
    """Exact ATM inversion sigma = price * sqrt(2*pi/T) / DF.

    Only valid when forward and strike coincide exactly; then call and
    put prices agree and the pricing formula collapses to a single
    invertible term.
    """
    if spec.forward != spec.strike:
        raise ValueError(
            f"ATM inversion needs F == K, got F={spec.forward}, K={spec.strike}"
        )
    if not price > 0.0 or not math.isfinite(price):
        raise ValueError(f"ATM price must be positive and finite, got {price}")
    return price * math.sqrt(2.0 * math.pi / spec.expiry) / spec.discount


def _newton_polish(target: float, spec: OptionSpec, sigma: float) -> float:
    """Drive the repricing residual to the floating-point floor.

    The rational seed is good to ~1e-10 near the money but degrades in
    the far wings; a couple of Newton steps with the analytic vega
    restore full precision everywhere. Steps stop early once the
    residual is at rounding level, so the common case does one pass.
    """
    sqrt_t = math.sqrt(spec.expiry)
    tol = 4.0 * math.ulp(abs(target))
    for _ in range(_MAX_NEWTON_STEPS):
        if not sigma > 0.0 or not math.isfinite(sigma):
            break
        residual = bachelier_price(spec, sigma) - target
        if abs(residual) <= tol:
            break
        d = (spec.forward - spec.strike) / (sigma * sqrt_t)
        vega = spec.discount * sqrt_t * norm_pdf(d)
        if vega <= 0.0:
            break
        step = residual / vega
        if step >= sigma:
            # Overshoot guard: halve toward zero instead of going negative.
            sigma = 0.5 * sigma
            continue
        sigma -= step
        if abs(step) <= 2.0 * math.ulp(sigma):
            break
    return sigma
