"""Implied normal volatility from option prices.

Each quote is reduced by put-call parity to its undiscounted
out-of-the-money (OTM) time value and its distance |F - K| from the
money. One kernel, written once for floats and arrays, inverts that
pair: the Choi-Kim-Kwak (2009) rational seed in eta = theta / atanh(theta),
with atanh taken through log1p so the time value is never rounded
against |F - K| (after Jaeckel 2017), then two Newton steps on the log
of the OTM price. No bisection, no loops that run to a tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bachelier import OptionSpec, _call_price_pdf, _is_array, _per_element

__all__ = [
    "ArbitrageViolation",
    "InversionCoefficients",
    "COEFFICIENTS",
    "implied_normal_vol",
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
# closed form seeds the Newton steps; at F == K eta is 0 / 0.
_ATM_BAND = 1e-14


def _rational_kernel(eta: float) -> float:
    num = 0.0
    for a in reversed(COEFFICIENTS.numerator):
        num = num * eta + a
    den = 0.0
    for b in reversed(COEFFICIENTS.denominator):
        den = den * eta + b
    if _is_array(eta):  # sqrt is correctly rounded in numpy as in math
        import numpy as np
        return np.sqrt(eta) * num / den
    return math.sqrt(eta) * num / den


def _log(x):
    """math.log on a float or per element of an array; NaN where x <= 0."""
    if _is_array(x):
        import numpy as np
        return _per_element(math.log, np.where(x > 0.0, x, math.nan))
    return math.log(x) if x > 0.0 else math.nan


def _implied_vol(value, distance, atm, expiry: float):
    """Normal vol at which the OTM option `distance` = |F - K| from the
    money is worth `value` (undiscounted), on floats or arrays.

    Arrays call libm per element, as `_call_price_pdf` does, so an element
    equals the float result bit for bit. Where no vol fits, the result is
    NaN, infinite or not positive, or a float raises ZeroDivisionError.
    """
    straddle = 2.0 * value + distance
    sigma = 0.5 * straddle * math.sqrt(2.0 * math.pi / expiry)
    # eta = theta / atanh(theta) for theta = distance / straddle, where
    # 2 atanh(theta) = log1p(distance / value): the time value is never
    # rounded against |F - K| before the log.
    if _is_array(value):
        import numpy as np
        log1p = _per_element(math.log1p, distance / value)
        eta = 2.0 * distance / (straddle * log1p)
        ckk = math.sqrt(math.pi / (2.0 * expiry)) * straddle * _rational_kernel(eta)
        sigma = np.where(atm, sigma, ckk)
    elif not atm:
        eta = 2.0 * distance / (straddle * math.log1p(distance / value))
        sigma = math.sqrt(math.pi / (2.0 * expiry)) * straddle * _rational_kernel(eta)
    # Two Newton steps on log P(sigma) - log value, P the OTM price.
    sqrt_t = math.sqrt(expiry)
    for _ in range(2):
        price, pdf = _call_price_pdf(-distance, sigma * sqrt_t, 1.0)
        sigma -= _log(price / value) * price / (sqrt_t * pdf)
    return sigma


def implied_normal_vol(price: float, spec: OptionSpec) -> float:
    """Invert a Bachelier price of `spec.kind` back to its normal vol.

    The price must be finite and leave a positive time value over
    intrinsic value; a quote that fails that, or that no finite positive
    vol reprices, raises :class:`ArbitrageViolation`.
    """
    if not math.isfinite(price):
        raise ArbitrageViolation(f"price must be finite, got {price}")
    payoff = spec._payoff
    intrinsic = spec.intrinsic()
    value = price / spec.discount - max(payoff, 0.0)
    if price <= intrinsic or not value > 0.0:
        raise ArbitrageViolation(
            f"price {price} does not exceed intrinsic value {intrinsic} "
            f"(F={spec.forward}, K={spec.strike}, {spec.kind})"
        )
    distance = abs(payoff)
    atm = distance <= _ATM_BAND * max(1.0, abs(spec.forward) + abs(spec.strike))
    try:
        sigma = _implied_vol(value, distance, atm, spec.expiry)
    except ZeroDivisionError:  # a vol or vega underflowed to 0
        sigma = math.nan
    if not 0.0 < sigma < math.inf:
        raise ArbitrageViolation(
            f"no finite vol reprices price {price} "
            f"(F={spec.forward}, K={spec.strike}, {spec.kind})"
        )
    return sigma


def _implied_call_vols(prices, forward: float, strikes, expiry: float, discount: float):
    """`implied_normal_vol` of call quotes over float arrays: bit for bit
    equal where it returns, NaN where it raises ArbitrageViolation."""
    import numpy as np
    payoff = forward - strikes
    intrinsic = np.maximum(payoff, 0.0)
    value = prices / discount - intrinsic
    valid = np.isfinite(prices) & (prices > discount * intrinsic) & (value > 0.0)
    distance = np.abs(payoff)
    atm = distance <= _ATM_BAND * np.fmax(1.0, abs(forward) + np.abs(strikes))
    with np.errstate(all="ignore"):
        sigma = _implied_vol(np.where(valid, value, math.nan), distance, atm, expiry)
    return np.where((0.0 < sigma) & (sigma < math.inf), sigma, math.nan)
