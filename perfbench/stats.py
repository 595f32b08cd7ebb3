"""Order statistics shared by the runner and the compare mode."""

from __future__ import annotations

import statistics

# The tail is the highest percentile with at least this many samples beyond it.
TAIL_BEYOND = 10


def median(values):
    return statistics.median(values)


def central_mean(values):
    """Mean of the middle half: robust like the median, finer than the
    integer-nanosecond median of per-call spans."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail(values):
    """(value, percentile) of the highest order statistic with at least
    TAIL_BEYOND samples above it; the maximum when there are too few."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    index = n - TAIL_BEYOND - 1
    return ordered[index], 100.0 * (index + 1) / n
