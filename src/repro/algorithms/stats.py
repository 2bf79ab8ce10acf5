"""Descriptive statistics used across the analyses.

The paper reports empirical CDFs (Figures 3 and 9), deciles (Figure 7),
histograms (Figure 6), weekday mean/standard deviation tables (Table 1) and
ordinary-least-squares trend lines with R-squared (Figure 2).  Everything here
is a thin, well-tested wrapper over numpy so the analysis modules stay
readable.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any, Union

import numpy as np
import numpy.typing as npt

#: Accepted sample types: any 1-D float sequence or numpy array.
Sample = Union[Sequence[float], npt.NDArray[Any]]


@dataclass(frozen=True)
class TrendLine:
    """An ordinary-least-squares fit ``y = slope * x + intercept``."""

    slope: float
    intercept: float
    r_squared: float

    def predict(self, x: float) -> float:
        """Fitted value at ``x``."""
        return self.slope * x + self.intercept


@dataclass(frozen=True)
class SummaryStats:
    """Five-number-plus summary of a sample."""

    count: int
    mean: float
    std: float
    minimum: float
    median: float
    maximum: float


def _as_array(values: Sample) -> npt.NDArray[np.float64]:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-D sample, got shape {arr.shape}")
    return arr


def ecdf(
    values: Sample,
) -> tuple[npt.NDArray[np.float64], npt.NDArray[np.float64]]:
    """Empirical CDF of a sample.

    Returns ``(x, p)`` where ``x`` is the sorted sample and ``p[i]`` is the
    fraction of observations less than or equal to ``x[i]``.  Suitable for
    plotting the paper's cumulative-distribution figures directly.
    """
    arr = _as_array(values)
    if arr.size == 0:
        raise ValueError("cannot compute the ECDF of an empty sample")
    x = np.sort(arr)
    p = np.arange(1, x.size + 1, dtype=float) / x.size
    return x, p


def ecdf_at(values: Sample, points: Sample) -> npt.NDArray[np.float64]:
    """Evaluate the empirical CDF of ``values`` at the given ``points``."""
    arr = np.sort(_as_array(values))
    if arr.size == 0:
        raise ValueError("cannot evaluate the ECDF of an empty sample")
    pts = np.asarray(points, dtype=np.float64)
    ranks = np.searchsorted(arr, pts, side="right")
    return np.asarray(ranks / arr.size, dtype=np.float64)


def percentile(values: Sample, q: float) -> float:
    """The ``q``-th percentile (0..100) of the sample, linearly interpolated."""
    if not 0 <= q <= 100:
        raise ValueError(f"percentile must be in 0..100, got {q}")
    return float(np.percentile(_as_array(values), q))


def deciles(values: Sample) -> npt.NDArray[np.float64]:
    """The 11 decile edges 0%, 10%, ..., 100% of the sample."""
    edges = np.percentile(_as_array(values), np.arange(0, 101, 10))
    return np.asarray(edges, dtype=np.float64)


def decile_shares(values: Sample, edges: Sample) -> npt.NDArray[np.float64]:
    """Fraction of the sample falling in each bucket delimited by ``edges``.

    Buckets are half-open ``[edges[i], edges[i+1])`` with the final bucket
    closed on the right, matching how the paper buckets the proportion of
    cars by percentage of time in busy cells (Figure 7).
    """
    arr = _as_array(values)
    e = np.asarray(edges, dtype=np.float64)
    if e.size < 2 or np.any(np.diff(e) <= 0):
        raise ValueError("edges must be strictly increasing with >= 2 entries")
    counts, _ = np.histogram(arr, bins=e)
    if arr.size == 0:
        return np.zeros(e.size - 1)
    return np.asarray(counts / arr.size, dtype=np.float64)


def histogram(
    values: Sample, bin_width: float, start: float = 0.0
) -> tuple[npt.NDArray[np.float64], npt.NDArray[np.int64]]:
    """Fixed-width histogram ``(edges, counts)`` covering the whole sample."""
    if bin_width <= 0:
        raise ValueError(f"bin_width must be positive, got {bin_width}")
    arr = _as_array(values)
    if arr.size == 0:
        return np.asarray([start, start + bin_width]), np.zeros(1, dtype=np.int64)
    n_bins = max(1, int(np.ceil((arr.max() - start) / bin_width)))
    if start + n_bins * bin_width <= arr.max():
        n_bins += 1
    edges = start + bin_width * np.arange(n_bins + 1, dtype=np.float64)
    counts, _ = np.histogram(arr, bins=edges)
    return edges, counts.astype(np.int64)


def linear_trend(x: Sample, y: Sample) -> TrendLine:
    """Ordinary-least-squares line fit with the coefficient of determination.

    Reproduces the Excel-style annotations of Figure 2 (``y = 0.0003x +
    0.6448, R^2 = 0.0333``).
    """
    xa = _as_array(x)
    ya = _as_array(y)
    if xa.size != ya.size:
        raise ValueError(f"x and y differ in length: {xa.size} vs {ya.size}")
    if xa.size < 2:
        raise ValueError("need at least two points to fit a trend line")
    slope, intercept = (float(c) for c in np.polyfit(xa, ya, 1))
    fitted = slope * xa + intercept
    ss_res = float(np.sum((ya - fitted) ** 2))
    ss_tot = float(np.sum((ya - ya.mean()) ** 2))
    # For OLS with an intercept, R^2 lies in [0, 1] mathematically; values
    # outside that range only arise from floating-point noise on (near-)
    # constant series, so clamp.
    r_squared = 1.0 if ss_tot == 0 else min(max(1.0 - ss_res / ss_tot, 0.0), 1.0)
    return TrendLine(float(slope), float(intercept), r_squared)


def summarize(values: Sample) -> SummaryStats:
    """Count, mean, standard deviation and order statistics of a sample."""
    arr = _as_array(values)
    if arr.size == 0:
        raise ValueError("cannot summarize an empty sample")
    return SummaryStats(
        count=int(arr.size),
        mean=float(arr.mean()),
        std=float(arr.std(ddof=0)),
        minimum=float(arr.min()),
        median=float(np.median(arr)),
        maximum=float(arr.max()),
    )


def binned_order_statistic(
    bins: npt.NDArray[np.int64],
    counts: npt.NDArray[np.int64],
    rank: int,
    bin_width: float,
) -> float:
    """Midpoint of the histogram bin holding the ``rank``-th smallest value.

    ``bins`` are sorted bin indices (bin ``k`` covers
    ``[k * bin_width, (k + 1) * bin_width)``) with their observation
    ``counts``; ``rank`` is 1-based.  The read-out is within
    ``bin_width / 2`` of the exact order statistic, and deterministic under
    any split of the observations because histogram counts merge exactly.
    """
    n = int(counts.sum())
    if not 1 <= rank <= n:
        raise ValueError(f"rank must be in 1..{n}, got {rank}")
    k = int(np.searchsorted(np.cumsum(counts), rank))
    return (float(bins[k]) + 0.5) * bin_width
