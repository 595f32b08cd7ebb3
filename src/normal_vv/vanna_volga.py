"""Vanna-volga construction of normal volatility smiles.

Three pivot quotes plus one flat reference vol pin a hedge portfolio
whose vega, vanna and volga all cancel; the hedge cost turns into a
strike-dependent vol. The first- and second-order expansions are cheap
approximations; the exact construction reprices the hedge and inverts,
which is what the reference scenarios use.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .bachelier import OptionSpec, _call_price_pdf, _is_array, norm_pdf
from .implied_vol import ArbitrageViolation, _implied_call_vols, implied_normal_vol

__all__ = [
    "PivotSet",
    "VVWeights",
    "SmilePoint",
    "SmileGrid",
    "NegativeDiscriminant",
    "NoRoot",
    "ZeroVega",
    "FAILED_BELOW_INTRINSIC",
    "vv_weights",
    "vv_smile_first_order",
    "vv_smile_second_order",
    "vv_price",
    "vv_smile_exact",
    "vv_smile_grid",
    "calibrate_reference_vol",
]

STATUS_OK = "ok"
FAILED_BELOW_INTRINSIC = "failed_below_intrinsic"
# Status of a SABR row whose vol is not positive: the level term
# 1 + (2 - 3 rho^2) nu^2 T / 24 turned negative.
FAILED_NEGATIVE_VOL = "failed_negative_vol"


class NegativeDiscriminant(ArithmeticError):
    """Second-order smile has no real solution at this strike."""

    def __init__(self, strike: float, discriminant: float):
        self.strike = strike
        self.discriminant = discriminant
        super().__init__(
            f"second-order vol undefined at strike {strike}: "
            f"square-root argument {discriminant} is negative"
        )


class ZeroVega(ZeroDivisionError):
    """A pivot's vega at the reference vol is 0 or subnormal (|d| above about
    37.6, or sigma_ref*sqrt(T) underflowed to 0): every hedge weight divides
    by it, and would overflow."""


class NoRoot(RuntimeError):
    """Reference-vol calibration found no sign change over its bracket."""

    def __init__(self, message: str, bracket=None, residuals=None):
        self.bracket = bracket
        self.residuals = residuals
        super().__init__(message)


@dataclass(frozen=True)
class PivotSet:
    """Three market pivots plus the shared forward/expiry/discount context.

    `reference_vol` is the flat vol the hedge is built around. When left
    as None it defaults to the middle pivot vol, the usual desk
    convention; calibration against a fourth quote can replace it.
    """

    forward: float
    expiry: float
    strikes: tuple[float, float, float]
    vols: tuple[float, float, float]
    discount: float = 1.0
    reference_vol: float | None = None

    def __post_init__(self) -> None:
        if not math.isfinite(self.forward):
            raise ValueError(f"forward must be finite, got {self.forward}")
        if not 0.0 < self.expiry < math.inf:
            raise ValueError(f"expiry must be positive and finite, got {self.expiry}")
        if not 0.0 < self.discount <= 1.0:
            raise ValueError(f"discount factor must be in (0, 1], got {self.discount}")
        if len(self.strikes) != 3 or len(self.vols) != 3:
            raise ValueError("exactly three pivots are required")
        if not -math.inf < self.strikes[0] < self.strikes[1] < self.strikes[2] < math.inf:
            raise ValueError(
                f"pivot strikes must be finite and strictly increase, got {self.strikes}"
            )
        # The pivot strikes and the denominators of `_interp_weights`: the part of
        # the y_i that no target strike changes, kept as `_memo_legs` keeps the rest.
        k1, k2, k3 = self.strikes
        denominators = ((k2 - k1) * (k3 - k1), (k1 - k2) * (k3 - k2), (k1 - k3) * (k2 - k3))
        if not all(sys.float_info.min <= abs(den) < math.inf for den in denominators):
            raise ValueError(
                f"pivot strikes {self.strikes} are too close together or too far apart: "
                f"the interpolation denominators {denominators} must be normal floats"
            )
        if any(not 0.0 < v < math.inf for v in self.vols):
            raise ValueError(f"pivot vols must be positive and finite, got {self.vols}")
        if any(v * math.sqrt(self.expiry) == 0.0 for v in self.vols):
            raise ValueError(
                f"a pivot vol in {self.vols} times sqrt(expiry {self.expiry}) underflows to 0"
            )
        if self.reference_vol is not None and not 0.0 < self.reference_vol < math.inf:
            raise ValueError(
                f"reference vol must be positive and finite, got {self.reference_vol}"
            )
        self.__dict__["_geometry"] = (k1, k2, k3, *denominators)

    @property
    def ref_vol(self) -> float:
        return self.vols[1] if self.reference_vol is None else self.reference_vol

    def with_reference(self, sigma: float) -> "PivotSet":
        return PivotSet(self.forward, self.expiry, self.strikes, self.vols, self.discount, sigma)

    def call_spec(self, strike: float) -> OptionSpec:
        return OptionSpec(self.forward, strike, self.expiry, self.discount, "call")


@dataclass(frozen=True)
class VVWeights:
    """Hedge weights w and interpolation weights y for one target strike.

    y_i are the pure strike-ratio factors (they sum to one); the hedge
    weights rescale them by the vega ratio, w_i = y_i * vega0 / vega_i,
    all vegas taken at the reference vol.
    """

    strike: float
    hedge: tuple[float, float, float]
    interp: tuple[float, float, float]
    target_moneyness: float
    pivot_moneyness: tuple[float, float, float]


def _interp_weights(geometry: tuple[float, ...], k0: float) -> tuple[float, float, float]:
    k1, k2, k3, den1, den2, den3 = geometry
    a1, a2, a3 = k1 - k0, k2 - k0, k3 - k0
    return (a2 * a3 / den1, a1 * a3 / den2, a1 * a2 / den3)


def vv_weights(pivots: PivotSet, k0: float) -> VVWeights:
    """Hedge and interpolation weights for the target strike `k0`; raises
    :class:`ZeroVega` as `vv_price` does."""
    forward, stddev, _, geometry, legs = _memo_legs(pivots)
    y = _interp_weights(geometry, k0)
    d0 = (forward - k0) / stddev
    d = tuple((forward - k) / stddev for k in pivots.strikes)
    vega0 = norm_pdf(d0)
    # The common DF*sqrt(T) factor cancels in every vega ratio.
    hedge = tuple(y_i * vega0 / vega_i for y_i, (vega_i, _) in zip(y, legs))
    return VVWeights(
        strike=k0,
        hedge=hedge,
        interp=y,
        target_moneyness=d0,
        pivot_moneyness=d,
    )


def vv_smile_first_order(pivots: PivotSet, k0: float) -> float:
    """First-order smile: the quadratic in strike through the three pivots.

    Independent of the reference vol by construction.
    """
    y1, y2, y3 = _interp_weights(pivots._geometry, k0)
    v1, v2, v3 = pivots.vols
    return y1 * v1 + y2 * v2 + y3 * v3


def vv_smile_second_order(pivots: PivotSet, k0):
    """Second-order smile approximation at strike `k0`.

    Solves the quadratic correction around the reference vol. Evaluated
    in a rationalized form that is exact at the pivots and smooth
    through the ATM point, where it reduces to the first-order value
    plus the convexity term Q/(2*sigma). Arrays raise at their first bad strike.
    Needs no pivot vega, but divides by sigma_ref*sqrt(T): raises
    :class:`ZeroVega`, as `vv_price` does, when that underflows to 0, and
    `OverflowError` when (v_i - sigma)^2 overflows for a pivot vol v_i.
    """
    sigma = pivots.ref_vol
    stddev = _reference_stddev(pivots)
    y1, y2, y3 = _interp_weights(pivots._geometry, k0)
    v1, v2, v3 = pivots.vols
    d0 = (pivots.forward - k0) / stddev
    d1, d2, d3 = ((pivots.forward - k) / stddev for k in pivots.strikes)
    p_term = y1 * v1 + y2 * v2 + y3 * v3 - sigma
    try:
        gap1, gap2, gap3 = (v1 - sigma) ** 2, (v2 - sigma) ** 2, (v3 - sigma) ** 2
    except OverflowError:
        raise OverflowError(
            f"a pivot vol in {pivots.vols} lies so far from reference vol {sigma} "
            "that its squared gap overflows"
        ) from None
    q_term = y1 * d1 * d1 * gap1 + y2 * d2 * d2 * gap2 + y3 * d3 * d3 * gap3
    correction = 2.0 * sigma * p_term + q_term
    discriminant = sigma * sigma + d0 * d0 * correction
    if _is_array(discriminant):
        import numpy as np
        for i in np.flatnonzero(discriminant < 0.0)[:1]:
            raise NegativeDiscriminant(float(k0[i]), float(discriminant[i]))
        return sigma + correction / (sigma + np.sqrt(discriminant))
    if discriminant < 0.0:
        raise NegativeDiscriminant(k0, discriminant)
    return sigma + correction / (sigma + math.sqrt(discriminant))


def _reference_stddev(pivots: PivotSet) -> float:
    """sigma_ref*sqrt(T); raises :class:`ZeroVega` when it underflows to 0,
    as no pivot then has vega and every d_i divides by it."""
    stddev = pivots.ref_vol * math.sqrt(pivots.expiry)
    if stddev == 0.0:
        raise ZeroVega(
            f"no pivot has vega at reference vol {pivots.ref_vol}: "
            f"it times sqrt(expiry {pivots.expiry}) underflows to 0"
        )
    return stddev


def _memo_legs(pivots: PivotSet) -> tuple:
    """Every term of `vv_price` that no strike changes: the forward,
    sigma_ref*sqrt(T), the discount, the `PivotSet`'s strike geometry and,
    per pivot, phi(d_i) at the reference vol and the call price at the pivot
    vol minus that at the reference vol. So a scalar price does only
    per-strike work (about a third less time a call than with the geometry
    formed per call). Stored in the instance `__dict__` on the first price:
    no lock, as a racing thread computes and stores the same tuple.
    Field-based ==, hash and repr never see it, and a `ZeroVega` raises
    before anything is stored."""
    memo = pivots.__dict__.get("_legs")
    if memo is None:
        forward, discount, sqrt_t = pivots.forward, pivots.discount, math.sqrt(pivots.expiry)
        stddev = _reference_stddev(pivots)
        legs = []
        for strike, vol in zip(pivots.strikes, pivots.vols):
            ref_price, vega = _call_price_pdf(forward - strike, stddev, discount)
            if vega < sys.float_info.min:  # every hedge weight divides by it, in arrays too
                raise ZeroVega(f"pivot {strike} has no vega at reference vol {pivots.ref_vol}")
            price = _call_price_pdf(forward - strike, vol * sqrt_t, discount)[0]
            legs.append((vega, price - ref_price))
        memo = (forward, stddev, discount, pivots._geometry, tuple(legs))
        pivots.__dict__["_legs"] = memo
    return memo


def vv_price(pivots: PivotSet, k0):
    """Smile-consistent call price at `k0`: flat-vol price plus hedge cost.

    `k0` may also be a float array. May fall below intrinsic value in
    the far wings of a frown; that is a known failure mode of the
    construction, and detecting it is the caller's job. Raises
    :class:`ZeroVega` when a pivot has no vega at the reference vol.
    """
    forward, stddev, discount, geometry, legs = _memo_legs(pivots)
    (vega1, gap1), (vega2, gap2), (vega3, gap3) = legs
    y1, y2, y3 = _interp_weights(geometry, k0)
    price, vega0 = _call_price_pdf(forward - k0, stddev, discount)
    # Hedge weight w_i = y_i * vega0 / vega_i: DF*sqrt(T) cancels in the ratio.
    price += y1 * vega0 / vega1 * gap1
    price += y2 * vega0 / vega2 * gap2
    price += y3 * vega0 / vega3 * gap3
    return price


def vv_smile_exact(pivots: PivotSet, k0: float) -> float | None:
    """Exact smile vol at `k0`, or None when the hedge price admits no vol.

    The None marker (price at or below intrinsic) is in-band rather than
    an exception so that grid construction can keep going: frown wings
    fail strike by strike, not wholesale.
    """
    try:
        return implied_normal_vol(vv_price(pivots, k0), pivots.call_spec(k0))
    except ArbitrageViolation:
        return None


VV_SMILES = {
    "vv-exact": vv_smile_exact,
    "vv-first": vv_smile_first_order,
    "vv-second": vv_smile_second_order,
}


@dataclass(frozen=True, slots=True)
class SmilePoint:
    strike: float
    vol: float | None
    price: float
    status: str


def _smile_points(strikes: list, vols: list, prices: list) -> tuple[SmilePoint, ...]:
    """`SmilePoint(k, vol, price, status)` for each strike, in order, with
    the failed status where vol is None. Each slot is written through its
    descriptor: the generated frozen `__init__` calls `object.__setattr__`
    once a field, which made building the points most of a vv-first
    grid's time."""
    new = object.__new__
    set_strike, set_vol, set_price, set_status = (
        getattr(SmilePoint, name).__set__ for name in SmilePoint.__slots__
    )
    points = []
    for k0, vol, price in zip(strikes, vols, prices):
        point = new(SmilePoint)
        set_strike(point, k0)
        set_vol(point, vol)
        set_price(point, price)
        set_status(point, FAILED_BELOW_INTRINSIC if vol is None else STATUS_OK)
        points.append(point)
    return tuple(points)


@dataclass(frozen=True)
class SmileGrid:
    """One smile curve evaluated on an ordered strike grid."""

    method: str
    reference_vol: float | None
    points: tuple[SmilePoint, ...]

    @property
    def failed_strikes(self) -> tuple[float, ...]:
        return tuple(p.strike for p in self.points if p.status != STATUS_OK)


def vv_smile_grid(pivots: PivotSet, strikes, method: str = "vv-exact") -> SmileGrid:
    """Evaluate one vanna-volga smile over `strikes`.

    `method` is a key of `VV_SMILES`. Every point also carries the
    hedge-replication price. Exact-method points whose price violates the
    intrinsic bound are marked failed and keep vol=None.
    A non-finite strike raises `ValueError` before any strike is priced.
    """
    import numpy as np
    if method not in VV_SMILES:
        raise ValueError(f"unknown vanna-volga method {method!r}")
    k = np.fromiter(strikes, dtype=float)
    if not np.isfinite(k).all():
        raise ValueError(f"strike must be finite, got {k[~np.isfinite(k)][0]}")
    prices = vv_price(pivots, k)
    if method == "vv-exact":  # inverts the prices above rather than pricing again
        exact = _implied_call_vols(prices, pivots.forward, k, pivots.expiry, pivots.discount)
        vols = [None if math.isnan(v) else v for v in exact.tolist()]
    else:
        vols = VV_SMILES[method](pivots, k).tolist()
    points = _smile_points(k.tolist(), vols, prices.tolist())
    return SmileGrid(method=method, reference_vol=pivots.ref_vol, points=points)


_BRACKET_LO_FACTOR = 0.2
_BRACKET_HI_FACTOR = 5.0
_BRACKET_EXPAND = 5.0
_SCAN_SAMPLES = 25
# Brent stops once its bracket is narrower than xtol + rtol * |root|.
_BRENT_XTOL = 1e-12
_BRENT_RTOL = 8.9e-16
_BRENT_MAXITER = 200


def calibrate_reference_vol(
    pivots: PivotSet, fourth_quote: tuple[float, float]
) -> float:
    """Find the reference vol that makes the exact smile hit a fourth quote.

    Scans [0.2*min(vols), 5*max(vols)] geometrically, 25 points, for a sign
    change of the vol residual, expanding the range once if none appears.
    A scan point whose residual is exactly 0 is the root. Otherwise Brent's
    method (`_brent`; xtol 1e-12, rtol 8.9e-16, at most 200 iterations)
    starts from the first two scan points of opposite sign and the
    residuals the scan found there, so no reference vol is evaluated twice.
    Scan points where the smile itself fails (below-intrinsic hedge price,
    or a pivot with no vega) are skipped, so failed regions at the
    extremes only shrink the usable bracket.
    Raises :class:`NoRoot` with the endpoint residuals when no sign
    change can be found, or with the bracket when the smile fails inside
    it; when the residual is multi-rooted the returned root is whichever
    the scan isolates first.
    """
    k4, sigma4 = fourth_quote
    if k4 in pivots.strikes:
        raise ValueError(f"fourth strike {k4} coincides with a pivot strike")
    if not math.isfinite(k4):
        raise ValueError(f"fourth strike must be finite, got {k4}")
    if not 0.0 < sigma4 < math.inf:
        raise ValueError(f"fourth vol must be positive and finite, got {sigma4}")

    def residual(ref: float) -> float | None:
        try:
            vol = vv_smile_exact(pivots.with_reference(ref), k4)
        except ZeroVega:
            return None
        return None if vol is None else vol - sigma4

    def strict_residual(ref: float) -> float:
        value = residual(ref)
        if value is None:
            raise NoRoot(
                f"smile construction failed at reference vol {ref:.6g} "
                f"while solving for the fourth quote (K={k4}, vol={sigma4})",
                bracket=(a, b),
            )
        return value

    lo = _BRACKET_LO_FACTOR * min(pivots.vols)
    hi = _BRACKET_HI_FACTOR * max(pivots.vols)
    for lo, hi in ((lo, hi), (lo / _BRACKET_EXPAND, hi * _BRACKET_EXPAND)):
        ratio = (hi / lo) ** (1.0 / (_SCAN_SAMPLES - 1))
        a = fa = None
        b = lo
        for i in range(_SCAN_SAMPLES):
            fb = residual(b)
            if i == 0:
                f_lo = fb
            if fb is not None:
                if fb == 0.0:
                    return float(b)
                if fa is not None and fa * fb < 0.0:
                    return _brent(strict_residual, a, fa, b, fb)
                a, fa = b, fb
            b = hi if i == _SCAN_SAMPLES - 2 else b * ratio
    r_lo, r_hi = ("smile-failed" if r is None else f"{r:.6g}" for r in (f_lo, fb))
    raise NoRoot(
        f"no reference vol in [{lo:.6g}, {hi:.6g}] reprices the fourth quote "
        f"(K={k4}, vol={sigma4}); endpoint residuals {r_lo} and {r_hi}",
        bracket=(lo, hi),
        residuals=(r_lo, r_hi),
    )


def _brent(f, xpre: float, fpre: float, xcur: float, fcur: float) -> float:
    """Root of `f` between `xpre` and `xcur`, where it takes the nonzero
    values `fpre` and `fcur` of opposite signs.

    Brent's method (Brent 1973, ch. 4), written operation for operation
    as the widely used `brentq` C loop, so its roots carry the same bits:
    inverse quadratic interpolation or the secant, with bisection
    whenever the interpolated step is not short enough.
    """
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENT_MAXITER):
        if fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (_BRENT_XTOL + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate (secant)
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate (inverse quadratic)
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
    raise RuntimeError(f"Brent's method did not converge in {_BRENT_MAXITER} iterations")
