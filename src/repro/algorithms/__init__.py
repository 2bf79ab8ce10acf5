"""Generic algorithmic substrate: time binning, interval algebra, statistics,
and clustering primitives used throughout the reproduction.

These modules are deliberately dependency-light (numpy only) so that the
analysis pipeline in :mod:`repro.core` reads as a direct transcription of the
paper's methodology.
"""

from repro.algorithms.intervals import (
    Interval,
    concatenate_gaps,
    concurrency_by_bin,
    merge_intervals,
    total_duration,
)
from repro.algorithms.kmeans import KMeans, KMeansResult, silhouette_score
from repro.algorithms.stats import (
    TrendLine,
    deciles,
    ecdf,
    linear_trend,
    percentile,
    summarize,
)
from repro.algorithms.timebins import (
    BIN_SECONDS,
    BINS_PER_DAY,
    BINS_PER_WEEK,
    DAY,
    HOUR,
    MINUTE,
    WEEK,
    StudyClock,
)

__all__ = [
    "BIN_SECONDS",
    "BINS_PER_DAY",
    "BINS_PER_WEEK",
    "DAY",
    "HOUR",
    "MINUTE",
    "WEEK",
    "Interval",
    "KMeans",
    "KMeansResult",
    "StudyClock",
    "TrendLine",
    "concatenate_gaps",
    "concurrency_by_bin",
    "deciles",
    "ecdf",
    "linear_trend",
    "merge_intervals",
    "percentile",
    "silhouette_score",
    "summarize",
    "total_duration",
]
