"""Risk-neutral density extraction from call prices.

The terminal density is the second strike-derivative of the undiscounted
call price, estimated here with a symmetric second difference over a
small step `delta`. Note the division by the discount factor: quoted
prices carry a DF, and the density must integrate to one without it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

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

    `price_fn` maps a strike to an (discounted) call price, or None where
    it has no answer; a None at x or x +/- delta leaves a NaN gap at x.
    The grid must be uniformly spaced and increasing.
    """
    if not delta > 0.0:
        raise ValueError(f"delta must be positive, got {delta}")
    if not 0.0 < discount <= 1.0:
        raise ValueError(f"discount factor must be in (0, 1], got {discount}")
    x = np.asarray(grid, dtype=float)
    if x.ndim != 1 or x.size < 3:
        raise ValueError("grid must be a 1-d array with at least 3 points")
    spacing = np.diff(x)
    if np.any(spacing <= 0) or not np.allclose(spacing, spacing[0], rtol=1e-9, atol=0.0):
        raise ValueError("grid must be strictly increasing with uniform spacing")

    values = np.empty_like(x)
    for i, xi in enumerate(x):
        center = price_fn(float(xi))
        up = price_fn(float(xi + delta))
        down = price_fn(float(xi - delta))
        if center is None or up is None or down is None:
            values[i] = math.nan
        else:
            values[i] = (up + down - 2.0 * center) / (discount * delta * delta)

    grid_obj = DensityGrid(
        x=x,
        values=values,
        delta=delta,
        source=source,
        diagnostics=_diagnose(x, values),
    )
    return grid_obj


def density_diagnostics(grid: DensityGrid) -> DensityDiagnostics:
    """Recompute the summary diagnostics for `grid`."""
    return _diagnose(grid.x, grid.values)


def _diagnose(x: np.ndarray, values: np.ndarray) -> DensityDiagnostics:
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

    Gaps split the grid into independent segments. Within a segment the
    values are collapsed into plateau runs (neighbours within the plateau
    tolerance); a run is a mode when every existing neighbour run is
    strictly lower.
    """
    count = 0
    segment: list[float] = []
    for v in values:
        if math.isfinite(v):
            segment.append(v)
        else:
            count += _segment_modes(segment)
            segment = []
    count += _segment_modes(segment)
    return count


def _segment_modes(segment: list[float]) -> int:
    if not segment:
        return 0
    runs: list[float] = [segment[0]]
    for v in segment[1:]:
        if abs(v - runs[-1]) > _PLATEAU_TOL:
            runs.append(v)
    if len(runs) == 1:
        return 1
    count = 0
    for i, level in enumerate(runs):
        left_lower = i == 0 or runs[i - 1] < level
        right_lower = i == len(runs) - 1 or runs[i + 1] < level
        if left_lower and right_lower:
            count += 1
    return count
