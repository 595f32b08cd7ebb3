"""Closed-form prices and Greeks for the Normal (Bachelier) model.

Volatilities here are *normal* (absolute) vols carried in the same units
as the forward and strike, e.g. sigma = 50 for a forward quoted around 0.
Negative forwards and strikes are legal; negative vols are not.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

__all__ = [
    "OptionSpec", "GreekSet", "bachelier_price", "bachelier_greeks", "norm_pdf", "norm_cdf"
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_INV_SQRT_2 = 1.0 / math.sqrt(2.0)


def norm_pdf(x: float) -> float:
    """Standard normal density."""
    return math.exp(-0.5 * x * x) / _SQRT_2PI


def norm_cdf(x: float) -> float:
    """Standard normal CDF via erfc; accurate to ~1 ulp over the full range."""
    return 0.5 * math.erfc(-x * _INV_SQRT_2)


def _is_array(x) -> bool:
    """Whether `x` is a numpy array, without importing numpy: nothing can
    be one before numpy is loaded. A float answers first, as it is the
    common case and costs least."""
    if isinstance(x, float):
        return False
    np = sys.modules.get("numpy")
    return np is not None and isinstance(x, np.ndarray)


def _per_element(fn, a):
    """`fn` called on each element of the array `a`: a float array of
    `a`'s shape. numpy is imported on the first array call, not with the
    package."""
    import numpy as np
    return np.fromiter(map(fn, a.ravel().tolist()), float, a.size).reshape(a.shape)


def _call_price_pdf(fwd_minus_strike, stddev, discount: float):
    """Call price and phi(d) on floats or arrays: the one place a Bachelier
    price is formed. A scalar takes `norm_pdf` and `norm_cdf` written out,
    with the same operations, as it is the per-strike hot path. Arrays call
    libm per element, as numpy's own exp and erfc round differently on a
    few percent of inputs, so an array element equals the float result bit
    for bit."""
    d = fwd_minus_strike / stddev
    if isinstance(d, float) or not _is_array(d):
        pdf = math.exp(-0.5 * d * d) / _SQRT_2PI
        cdf = 0.5 * math.erfc(-d * _INV_SQRT_2)
    else:
        pdf = _per_element(math.exp, -0.5 * d * d) / _SQRT_2PI
        cdf = 0.5 * _per_element(math.erfc, -d * _INV_SQRT_2)
    return discount * (fwd_minus_strike * cdf + stddev * pdf), pdf


@dataclass(frozen=True, init=False)
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

    def __init__(self, forward, strike, expiry, discount=1.0, kind="call") -> None:
        # Written by hand, as density prices build one per strike: the fields
        # go straight into the instance __dict__, where the generated frozen
        # __init__ calls object.__setattr__ once per field.
        if not math.isfinite(forward):
            raise ValueError(f"forward must be finite, got {forward}")
        if not math.isfinite(strike):
            raise ValueError(f"strike must be finite, got {strike}")
        if not 0.0 < expiry < math.inf:
            raise ValueError(f"expiry must be positive and finite, got {expiry}")
        if not 0.0 < discount <= 1.0:
            raise ValueError(f"discount factor must be in (0, 1], got {discount}")
        if kind not in ("call", "put"):
            raise ValueError(f"kind must be 'call' or 'put', got {kind!r}")
        fields = self.__dict__
        fields["forward"] = forward
        fields["strike"] = strike
        fields["expiry"] = expiry
        fields["discount"] = discount
        fields["kind"] = kind

    @property
    def is_call(self) -> bool:
        return self.kind == "call"

    @property
    def _payoff(self) -> float:
        """F - K for a call, K - F for a put: a put is the call on K - F."""
        payoff = self.forward - self.strike
        return payoff if self.kind == "call" else -payoff

    def intrinsic(self) -> float:
        """Discounted intrinsic value; the hard lower bound for any price."""
        return self.discount * max(0.0, self._payoff)  # +0.0 at the money


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
    return _call_price_pdf(spec._payoff, _stddev(sigma, spec.expiry), spec.discount)[0]


def bachelier_greeks(spec: OptionSpec, sigma: float) -> GreekSet:
    """Analytic price and Greeks; second-order Greeks expressed via vega."""
    stddev = _stddev(sigma, spec.expiry)
    if sigma * spec.expiry == 0.0:  # gamma divides by it
        raise ValueError(f"volatility {sigma} times expiry {spec.expiry} underflows to 0")
    sqrt_t = math.sqrt(spec.expiry)
    payoff = spec._payoff
    price, pdf = _call_price_pdf(payoff, stddev, spec.discount)
    delta = spec.discount * norm_cdf(payoff / stddev)
    d = (spec.forward - spec.strike) / stddev
    vega = spec.discount * sqrt_t * pdf
    return GreekSet(
        price=price,
        delta_forward=delta if spec.is_call else -delta,
        vega=vega,
        gamma_forward=vega / (sigma * spec.expiry),
        vanna_forward=-vega * d / (sigma * sqrt_t),
        volga=vega * d * d / sigma,
        moneyness=d,
    )


def _stddev(sigma: float, expiry: float) -> float:
    """sigma * sqrt(expiry), checked here rather than in `_call_price_pdf`,
    so the per-strike kernel pays for no check."""
    # sigma = 0 is rejected rather than mapped to intrinsic value: every
    # downstream formula divides by sigma, and callers wanting intrinsic
    # can compute it directly. For the same reason so is a product that
    # underflows to 0.
    if not 0.0 < sigma < math.inf:
        raise ValueError(f"volatility must be positive and finite, got {sigma}")
    stddev = sigma * math.sqrt(expiry)
    if stddev == 0.0:
        raise ValueError(f"volatility {sigma} times sqrt(expiry {expiry}) underflows to 0")
    return stddev
