"""Macro-level temporal behaviour: total time on the network (Figure 3).

Per car, the union of its connection intervals as a percentage of the whole
study period — computed twice, once from reported durations and once with the
600-second truncation.  The paper reports means of ~8% (full) and ~4%
(truncated) and tail percentiles (99.5th at 27% / 15%), and concludes the
window of opportunity for large downloads is small.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

from repro.algorithms.intervals import total_duration
from repro.algorithms.stats import percentile
from repro.algorithms.timebins import StudyClock
from repro.core.preprocess import PreprocessResult


@dataclass(frozen=True)
class ConnectTimeResult:
    """Per-car connected-time shares, full vs truncated.

    ``full_share`` and ``truncated_share`` are aligned arrays over the same
    cars (sorted by car id), each entry the fraction of the study period the
    car was connected.
    """

    car_ids: list[str]
    full_share: npt.NDArray[np.float64]
    truncated_share: npt.NDArray[np.float64]

    @property
    def mean_full(self) -> float:
        """Mean share of study time connected, reported durations."""
        return float(self.full_share.mean())

    @property
    def mean_truncated(self) -> float:
        """Mean share of study time connected, durations capped at 600 s."""
        return float(self.truncated_share.mean())

    def tail(self, q: float = 99.5) -> tuple[float, float]:
        """The ``q``-th percentile of (full, truncated) shares."""
        return (
            percentile(self.full_share, q),
            percentile(self.truncated_share, q),
        )

    def hours_per_day(self, clock: StudyClock) -> tuple[float, float]:
        """Mean connected hours per day implied by the two means."""
        return (self.mean_full * 24.0, self.mean_truncated * 24.0)


def connect_time_analysis(
    pre: PreprocessResult, clock: StudyClock
) -> ConnectTimeResult:
    """Figure 3: per-car connected time as a fraction of the study period.

    Overlapping records of one car (parallel bearers, artifacts) count once:
    shares come from the union of intervals, not the sum of durations.
    """
    car_ids = sorted(set(pre.full.by_car()) | set(pre.truncated.by_car()))
    duration = float(clock.duration)
    full = np.empty(len(car_ids))
    trunc = np.empty(len(car_ids))
    full_by_car = pre.full.by_car()
    trunc_by_car = pre.truncated.by_car()
    for i, car in enumerate(car_ids):
        full[i] = total_duration(
            rec.interval for rec in full_by_car.get(car, [])
        ) / duration
        trunc[i] = total_duration(
            rec.interval for rec in trunc_by_car.get(car, [])
        ) / duration
    return ConnectTimeResult(car_ids=car_ids, full_share=full, truncated_share=trunc)


def cell_connection_durations(
    pre: PreprocessResult, truncated: bool
) -> npt.NDArray[np.float64]:
    """Durations of individual per-cell connections (Figure 9's sample).

    The unit here is the raw record: one car's connection to one cell.  The
    paper reports a median of 105 s, mean 625 s full / 238 s truncated.
    """
    batch = pre.truncated if truncated else pre.full
    return np.asarray([rec.duration for rec in batch], dtype=float)


@dataclass(frozen=True)
class DurationStats:
    """Figure 9's headline numbers over per-cell connection durations.

    ``n`` kept records; the ``median`` and 73rd percentile of the reported
    durations; the mean of reported and of truncated durations; and the
    fraction of records whose reported duration exceeds the truncation
    cutoff.
    """

    n: int
    median: float
    p73: float
    mean_full: float
    mean_truncated: float
    fraction_over_cutoff: float
