"""Seeded inputs for every workload.

Everything here is plain data derived from the seed; the library under
test never sees the seed, only these inputs. The smile_grid, density and
calibrate workloads draw their pivot sets from one generator.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

import reference

EPS = float(np.finfo(float).eps)

SHAPES = ("convex", "skew", "frown", "deep_frown", "flat")
METHODS = ("vv-exact", "vv-first", "vv-second")
# Grid sizes: the shipped scenarios' 61 and 401 points, and a large grid.
GRID_SIZES = (61, 401, 10001)
# The layer probe's grids reach this many reference standard deviations
# either side of the forward, deep enough to show the inverter's wing
# behaviour and the wholesale vv-second aborts.
GRID_REACH_D = 9.0
# Timed smile grids stop where every point has a right answer the seed
# library gives: at most this many reference standard deviations out, and
# for vv-exact at most INVERTER_REACH_D at the smile's own vol, short of
# the |d| > 7 wing where the inverter rejects valid quotes. The probe
# reports that wing; a timed item never fails on it.
WORKLOAD_REACH_D = 6.0
INVERTER_REACH_D = 6.0
# Samples per side of the scan for the admissible reach, and the share of
# the first failing sample's distance the grid keeps.
REACH_SAMPLES = 601
REACH_SHRINK = 0.97
# Smallest first- and second-order vol, as a share of the reference vol,
# that a timed grid may contain.
MIN_VOL_SHARE = 0.05
# Density grids of the workload, and of the density layer's own timing.
# Large workload grids keep the request count low, so the tail percentile
# stays inside the VV requests rather than in scheduler noise.
DENSITY_POINTS = 10001
DENSITY_LAYER_POINTS = 401
DENSITY_DELTA = 0.1
# Density window half-width in ATM standard deviations.
DENSITY_REACH_D = 8.0
# |d| bands of the inverter probe, named for the per-layer metrics.
BANDS = (("d0_2", 0.0, 2.0), ("d2_5", 2.0, 5.0), ("d5_7", 5.0, 7.0), ("d7_9", 7.0, 9.0))


# Steps of a Kronecker sequence: fractional parts of square roots of
# primes. Its points fill the unit cube evenly for any offset, so every
# run covers the parameter ranges alike and runs with different seeds
# differ far less than independent random draws would.
_STEPS = tuple(math.sqrt(q) % 1.0 for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53))


def draw(seed: int, stream: str, n: int) -> list[float]:
    """The n-th point of a Kronecker sequence whose offset the seed sets."""
    rng = random.Random(f"{seed}:{stream}")
    return [(rng.random() + n * step) % 1.0 for step in _STEPS]


def _between(u: float, lo: float, hi: float) -> float:
    return lo + u * (hi - lo)


@dataclass(frozen=True)
class Pivots:
    """One pivot set and how it was made.

    `sabr` holds the planted (alpha, nu, rho) when the pivot vols were
    generated from the Normal SABR formula, else None. `extra` holds the
    draw's unused coordinates, for choices that go with this pivot set.
    """

    shape: str
    forward: float
    expiry: float
    discount: float
    strikes: tuple[float, float, float]
    vols: tuple[float, float, float]
    atm_vol: float
    sabr: tuple[float, float, float] | None
    extra: tuple[float, ...] = ()

    @property
    def stddev(self) -> float:
        return self.atm_vol * math.sqrt(self.expiry)

    def as_reference(self, ref_vol) -> dict:
        return {
            "forward": self.forward,
            "expiry": self.expiry,
            "discount": self.discount,
            "strikes": self.strikes,
            "vols": self.vols,
            "ref": ref_vol,
        }

    def ref_vol(self, i: int, lo: float = 0.75, hi: float = 1.25) -> float:
        """A reference vol between lo and hi times the ATM vol."""
        return self.atm_vol * _between(self.extra[i], lo, hi)


def _pivot_set(u: list[float], shape: str) -> Pivots:
    forward = (1.0 if u[0] < 0.5 else -1.0) * _between(u[1], 0.0, 300.0)
    expiry = math.exp(_between(u[2], math.log(0.25), math.log(10.0)))
    discount = _between(u[3], 0.8, 1.0)
    atm_vol = _between(u[4], 30.0, 120.0)
    h = _between(u[5], 0.5, 1.2) * atm_vol * math.sqrt(expiry)
    k2 = forward + _between(u[6], -0.2, 0.2) * h
    strikes = (k2 - _between(u[7], 0.8, 1.2) * h, k2, k2 + _between(u[8], 0.8, 1.2) * h)
    sabr = None
    if shape in ("frown", "deep_frown"):
        lo, hi = (0.02, 0.06) if shape == "frown" else (0.08, 0.15)
        vols = (atm_vol * (1.0 - _between(u[9], lo, hi)), atm_vol, atm_vol * (1.0 - _between(u[10], lo, hi)))
    else:
        if shape == "convex":
            nu, rho = _between(u[9], 0.2, 0.8), _between(u[10], -0.2, 0.2)
        elif shape == "skew":
            nu, rho = _between(u[9], 0.2, 0.6), (1.0 if u[11] < 0.5 else -1.0) * _between(u[10], 0.4, 0.7)
        else:
            nu, rho = _between(u[9], 0.01, 0.05), _between(u[10], -0.3, 0.3)
        level = 1.0 + (2.0 - 3.0 * rho * rho) / 24.0 * nu * nu * expiry
        alpha = atm_vol / level
        sabr = (alpha, nu, rho)
        vols = tuple(float(v) for v in reference.sabr_vol(alpha, nu, rho, forward, expiry, strikes))
    return Pivots(shape, forward, expiry, discount, strikes, vols, atm_vol, sabr, tuple(u[12:]))


def pivot_set(seed: int, stream: str, shape: str, n: int) -> Pivots:
    """The n-th seeded pivot set of one shape in one stream.

    Streams keep the workloads' draws apart.
    """
    return _pivot_set(draw(seed, f"{stream}:{shape}", n), shape)


def pivot_sets(seed: int, stream: str, n: int) -> list[Pivots]:
    """The n-th pivot set of every shape."""
    return [pivot_set(seed, stream, shape, n) for shape in SHAPES]


def canonical(shape: str) -> Pivots:
    """The pivot set at the centre of every range, for warm-up calls whose
    cost must not depend on the seed."""
    return _pivot_set([0.5] * len(_STEPS), shape)


def strike_grid(pivots: Pivots, ref_vol: float, size: int, reach: float = GRID_REACH_D) -> list[float]:
    """`size` uniform strikes over F +/- reach * ref * sqrt(T).

    The points nearest the pivots inside the range are replaced by the
    pivot strikes themselves, so the grid can be checked at its pivots.
    """
    half = reach * ref_vol * math.sqrt(pivots.expiry)
    step = 2.0 * half / (size - 1)
    strikes = [pivots.forward - half + i * step for i in range(size)]
    for k in pivots.strikes:
        i = round((k - strikes[0]) / step)
        if 0 < i < size - 1:
            strikes[i] = k
    return strikes


def tail_ratio(d: float) -> float:
    """Bachelier time value over |F - K| at moneyness d > 0; it falls as
    d grows, so a time value above |F - K| * tail_ratio(D) means the
    quote's own |d| is below D."""
    return math.exp(-0.5 * d * d) / (d * math.sqrt(2.0 * math.pi)) - 0.5 * math.erfc(d / math.sqrt(2.0))


def _admissible(pivots: Pivots, ref_vol: float, method: str, k: np.ndarray) -> np.ndarray:
    """Strikes where the method's smile exists, by the reference formulas,
    with a margin: vv-exact prices above intrinsic value at |d| within
    INVERTER_REACH_D, first- and second-order vols real and positive."""
    pars = pivots.as_reference(ref_vol)
    with np.errstate(invalid="ignore", over="ignore"):
        if method == "vv-exact":
            price, scale = reference.vv_price(pars, k)
            gap = pivots.forward - k
            time_value = (price - pivots.discount * np.maximum(gap, 0.0)) / pivots.discount
            return (time_value > 1e3 * EPS * scale) & (time_value >= np.abs(gap) * tail_ratio(INVERTER_REACH_D))
        fn = reference.vv_first_order if method == "vv-first" else reference.vv_second_order
        return np.asarray(fn(pars, k) >= MIN_VOL_SHARE * ref_vol)


def admissible_reach(pivots: Pivots, ref_vol: float, method: str) -> float:
    """Reach, in reference standard deviations, of a symmetric grid on
    which every point of `method` has an answer: REACH_SHRINK of the first
    sample, going out from the forward on either side, where the smile
    stops existing, and at most WORKLOAD_REACH_D."""
    d = np.linspace(0.0, WORKLOAD_REACH_D, REACH_SAMPLES)
    stddev = ref_vol * math.sqrt(pivots.expiry)
    reach = WORKLOAD_REACH_D
    for side in (-1.0, 1.0):
        ok = _admissible(pivots, ref_vol, method, pivots.forward + side * stddev * d)
        if not ok.all():
            reach = min(reach, REACH_SHRINK * d[int(np.argmin(ok))])
    return reach


def density_grid(pivots: Pivots, points: int = DENSITY_POINTS) -> list[float]:
    half = DENSITY_REACH_D * pivots.stddev
    step = 2.0 * half / (points - 1)
    return [pivots.forward - half + i * step for i in range(points)]


def band_sheet(seed: int, per_band: int) -> list[tuple[str, float, float, float, float, bool]]:
    """Out-of-the-money quotes at known vols, `per_band` in each |d| band.

    Each row is (band, forward, strike, expiry, vol, is_call).
    """
    rng = random.Random(f"{seed}:bands")
    rows = []
    for name, lo, hi in BANDS:
        for _ in range(per_band):
            forward = rng.uniform(-200.0, 200.0)
            vol = rng.uniform(10.0, 150.0)
            expiry = math.exp(rng.uniform(math.log(0.1), math.log(10.0)))
            d = rng.uniform(lo, hi)
            call = rng.random() < 0.5
            offset = d * vol * math.sqrt(expiry)
            rows.append((name, forward, forward + offset if call else forward - offset, expiry, vol, call))
    return rows
