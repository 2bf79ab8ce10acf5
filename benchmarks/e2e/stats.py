"""Percentiles as the benchmark reports them.

A timing is reported as its median and its *tail*: the highest percentile
on :data:`TAIL_LADDER` that has at least :data:`MIN_BEYOND` samples beyond
it, so a tail never rests on a handful of outliers.  The ladder is coarse on
purpose: each workload's sample count stays on one rung across runs and
commits, so the tail of one run is comparable with the tail of the next.
Fewer than ``MIN_BEYOND + 1`` samples support no percentile at all; the tail
is then the slowest sample, and reported as percentile 100.
"""

from __future__ import annotations

import statistics
from collections.abc import Sequence

import numpy as np

#: Candidate tail percentiles, highest first.
TAIL_LADDER = (99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 66.0)

#: Samples that must lie beyond a percentile for it to be reported.
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (linear interpolation between order statistics)."""
    if not values:
        raise ValueError("percentile of no samples")
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def tail_percentile(n: int) -> float | None:
    """The highest ladder percentile with ``MIN_BEYOND`` of ``n`` samples beyond it."""
    for q in TAIL_LADDER:
        if n * (100.0 - q) >= MIN_BEYOND * 100.0 - 1e-9:
            return q
    return None


def tail(values: Sequence[float]) -> tuple[float, float]:
    """``(percentile, value)`` of the reported tail of ``values``."""
    q = tail_percentile(len(values))
    if q is None:
        return 100.0, float(max(values))
    return q, percentile(values, q)


def median(values: Sequence[float]) -> float:
    """The sample median."""
    return float(statistics.median(values))


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """``(Q1, median, Q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        only = float(values[0])
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")
