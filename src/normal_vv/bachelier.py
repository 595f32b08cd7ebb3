"""Closed-form prices and Greeks for the Normal (Bachelier) model.

Volatilities here are *normal* (absolute) vols carried in the same units
as the forward and strike, e.g. sigma = 50 for a forward quoted around 0.
Negative forwards and strikes are legal; negative vols are not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_INV_SQRT_2 = 1.0 / math.sqrt(2.0)


def norm_pdf(x: float) -> float:
    """Standard normal density."""
    return math.exp(-0.5 * x * x) / _SQRT_2PI


def norm_cdf(x: float) -> float:
    """Standard normal CDF via erfc; accurate to ~1 ulp over the full range."""
    return 0.5 * math.erfc(-x * _INV_SQRT_2)


_EXP, _ERFC = np.frompyfunc(math.exp, 1, 1), np.frompyfunc(math.erfc, 1, 1)


def _call_price_pdf(fwd_minus_strike, stddev, discount: float):
    """Call price and phi(d) on floats or arrays: the one place a Bachelier
    price is formed. Arrays call libm per element, as numpy's own exp and
    erfc round differently on a few percent of inputs, so an array element
    equals the float result bit for bit."""
    d = fwd_minus_strike / stddev
    if isinstance(d, np.ndarray):
        pdf = _EXP(-0.5 * d * d).astype(float) / _SQRT_2PI
        cdf = 0.5 * _ERFC(-d * _INV_SQRT_2).astype(float)
    else:
        pdf, cdf = norm_pdf(d), norm_cdf(d)
    return discount * (fwd_minus_strike * cdf + stddev * pdf), pdf


@dataclass(frozen=True)
class OptionSpec:
    """A European option quoted on a forward.

    The volatility is not part of the contract; every pricing call takes
    it separately. A zero discount factor is rejected outright: quote
    sheets occasionally print 0 where 1 is meant, and accepting it would
    silently zero every price.
    """

    forward: float
    strike: float
    expiry: float
    discount: float = 1.0
    kind: str = "call"

    def __post_init__(self) -> None:
        if not math.isfinite(self.forward):
            raise ValueError(f"forward must be finite, got {self.forward}")
        if not math.isfinite(self.strike):
            raise ValueError(f"strike must be finite, got {self.strike}")
        if not 0.0 < self.expiry < math.inf:
            raise ValueError(f"expiry must be positive and finite, got {self.expiry}")
        if not 0.0 < self.discount <= 1.0:
            raise ValueError(f"discount factor must be in (0, 1], got {self.discount}")
        if self.kind not in ("call", "put"):
            raise ValueError(f"kind must be 'call' or 'put', got {self.kind!r}")

    @property
    def is_call(self) -> bool:
        return self.kind == "call"

    def intrinsic(self) -> float:
        """Discounted intrinsic value; the hard lower bound for any price."""
        payoff = self.forward - self.strike
        if not self.is_call:
            payoff = -payoff
        return self.discount * max(payoff, 0.0)


@dataclass(frozen=True)
class GreekSet:
    """Price plus forward-measure Greeks of one option at one vol.

    All sensitivities are taken against the forward, not a spot. The
    identities volga = vega * d^2 / sigma and
    vanna = -vega * d / (sigma * sqrt(T)) hold by construction.
    """

    price: float
    delta_forward: float
    vega: float
    gamma_forward: float
    vanna_forward: float
    volga: float
    moneyness: float


def bachelier_price(spec: OptionSpec, sigma: float) -> float:
    """Bachelier price of `spec` at normal vol `sigma`.

    Calls use the closed form directly; puts use its parity-reflected
    twin, the call on the payoff K - F, which keeps full relative precision
    for small out-of-the-money prices instead of subtracting two large
    numbers.
    """
    _require_positive_vol(sigma)
    payoff = spec.forward - spec.strike if spec.is_call else spec.strike - spec.forward
    return _call_price_pdf(payoff, sigma * math.sqrt(spec.expiry), spec.discount)[0]


def bachelier_greeks(spec: OptionSpec, sigma: float) -> GreekSet:
    """Analytic price and Greeks; second-order Greeks expressed via vega."""
    _require_positive_vol(sigma)
    sqrt_t = math.sqrt(spec.expiry)
    stddev = sigma * sqrt_t
    d = (spec.forward - spec.strike) / stddev
    vega = spec.discount * sqrt_t * norm_pdf(d)
    if spec.is_call:
        delta = spec.discount * norm_cdf(d)
    else:
        delta = -spec.discount * norm_cdf(-d)
    return GreekSet(
        price=bachelier_price(spec, sigma),
        delta_forward=delta,
        vega=vega,
        gamma_forward=vega / (sigma * spec.expiry),
        vanna_forward=-vega * d / (sigma * sqrt_t),
        volga=vega * d * d / sigma,
        moneyness=d,
    )


def _require_positive_vol(sigma: float) -> None:
    # sigma = 0 is rejected rather than mapped to intrinsic value: every
    # downstream formula divides by sigma, and callers wanting intrinsic
    # can compute it directly.
    if not 0.0 < sigma < math.inf:
        raise ValueError(f"volatility must be positive and finite, got {sigma}")
