"""Risk-neutral density extraction from call prices.

The terminal density is the second strike-derivative of the undiscounted
call price, estimated here with a symmetric second difference over a
small step `delta`. Note the division by the discount factor: quoted
prices carry a DF, and the density must integrate to one without it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "DensityDiagnostics",
    "DensityGrid",
    "density_from_prices",
    "density_diagnostics",
]

# Plateau tolerance for peak counting: neighbours closer than this are
# treated as one flat top so a mode is never counted twice.
_PLATEAU_TOL = 1e-12


@dataclass(frozen=True)
class DensityDiagnostics:
    """Summary checks on an extracted density.

    `integral` should be close to 1 and `mean` close to the forward when
    the price function is arbitrage-clean over the window; `min_value`
    going negative flags a construction that is not. Trapezoid rule over
    the valid grid points throughout.
    """

    integral: float
    mean: float
    min_value: float
    mode_count: int
    gap_count: int


@dataclass(frozen=True)
class DensityGrid:
    """Density values on a uniform grid of terminal levels.

    `values` holds NaN wherever the price function declined to produce a
    price (a gap), so failed wings stay visible instead of silently
    shrinking the support.
    """

    x: np.ndarray
    values: np.ndarray
    delta: float
    source: str
    diagnostics: DensityDiagnostics


def density_from_prices(
    price_fn: Callable[[float], float | None],
    discount: float,
    grid,
    delta: float,
    source: str = "vv",
) -> DensityGrid:
    """Second-difference density over `grid` with step `delta`.

    `price_fn` maps a strike (a Python float) to an (discounted) call
    price, or None where it has no answer. It is called 3N times for N
    grid points: at every x in grid order, then at every x + delta, then
    at every x - delta; so it should hoist work that no strike changes,
    as `vv_price` does: a `PivotSet` keeps its pivot legs and strike
    geometry, so a call costs about 850 ns. A None is stored as NaN,
    so a None at x or x +/- delta leaves a NaN gap at x.
    The grid must be uniformly spaced and increasing, and `delta` finite
    and large enough that x + delta and x - delta differ from every x.
    """
    import numpy as np
    if not 0.0 < delta < math.inf:
        raise ValueError(f"delta must be positive and finite, got {delta}")
    if not 0.0 < discount <= 1.0:
        raise ValueError(f"discount factor must be in (0, 1], got {discount}")
    if not discount * delta * delta > 0.0:
        raise ValueError(f"delta {delta} is too small: discount * delta**2 underflows to 0")
    x = np.asarray(grid, dtype=float)
    if x.ndim != 1 or x.size < 3:
        raise ValueError("grid must be a 1-d array with at least 3 points")
    spacing = np.diff(x)
    if np.any(spacing <= 0) or not np.allclose(spacing, spacing[0], rtol=1e-9, atol=0.0):
        raise ValueError("grid must be strictly increasing with uniform spacing")

    x_up, x_down = x + delta, x - delta
    if np.any(x_up == x) or np.any(x_down == x):
        raise ValueError(f"delta {delta} is too small: x +/- delta rounds to x on the grid")
    center, up, down = (
        np.fromiter(map(price_fn, k.tolist()), dtype=float, count=k.size)
        for k in (x, x_up, x_down)
    )
    # inf - inf and overflow give NaN and inf silently, as Python floats do
    with np.errstate(all="ignore"):
        values = (up + down - 2.0 * center) / (discount * delta * delta)
    return DensityGrid(
        x=x,
        values=values,
        delta=delta,
        source=source,
        diagnostics=_diagnose(x, values),
    )


def density_diagnostics(grid: DensityGrid) -> DensityDiagnostics:
    """Recompute the summary diagnostics for `grid`."""
    return _diagnose(grid.x, grid.values)


def _diagnose(x: np.ndarray, values: np.ndarray) -> DensityDiagnostics:
    import numpy as np
    valid = np.isfinite(values)
    gap_count = int(np.size(values) - np.count_nonzero(valid))
    if np.count_nonzero(valid) < 3:
        return DensityDiagnostics(
            integral=math.nan,
            mean=math.nan,
            min_value=math.nan,
            mode_count=0,
            gap_count=gap_count,
        )
    xv = x[valid]
    fv = values[valid]
    integral = float(np.trapezoid(fv, xv))
    mass_x = float(np.trapezoid(fv * xv, xv))
    mean = mass_x / integral if integral != 0.0 else math.nan
    return DensityDiagnostics(
        integral=integral,
        mean=mean,
        min_value=float(np.min(fv)),
        mode_count=_count_modes(values),
        gap_count=gap_count,
    )


def _count_modes(values: np.ndarray) -> int:
    """Local maxima, counting a flat top once and boundary maxima as modes.

    Gaps (non-finite values) split the grid into independent segments.
    Within a segment the values are collapsed into plateau runs: a value
    within the plateau tolerance of the current run's first value joins
    it. A run is a mode when every existing neighbour run is strictly
    lower.
    """
    count = 0
    # the current run's value, and whether the run before it (if any) is lower
    level, rising = -math.inf, False
    for v in values.tolist():
        if math.isfinite(v):
            if abs(v - level) > _PLATEAU_TOL:
                count += rising and v < level
                level, rising = v, v > level
        else:
            count += rising
            level, rising = -math.inf, False
    return count + rising
