"""Time arithmetic for the study period.

The paper analyzes a 90-day study window using several granularities:

* 15-minute bins (PRB utilization counters, concurrency straddling, Fig 8/10/11),
* hours of the day and hour-of-week cells of the 24x7 matrices (Fig 4/5),
* whole study days (Fig 2, Fig 6, Table 1).

All simulation and analysis code measures time as *seconds since the start of
the study* (a float or int).  The start of the study is midnight local time on
a configurable weekday.  :class:`StudyClock` converts a timestamp into each of
the calendar coordinates above.  Keeping time relative avoids timezone
handling entirely: the paper renders everything in the device's local time,
which the synthetic trace generator emits directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

MINUTE = 60
HOUR = 3600
DAY = 86_400
WEEK = 7 * DAY

#: Length of the 15-minute bin the paper uses for PRB counters and concurrency.
BIN_SECONDS = 15 * MINUTE
#: Number of 15-minute bins in one day (the 96-sized vectors of Fig 11).
BINS_PER_DAY = DAY // BIN_SECONDS
#: Number of 15-minute bins in one week (96 x 7).
BINS_PER_WEEK = 7 * BINS_PER_DAY

WEEKDAY_NAMES = (
    "Monday",
    "Tuesday",
    "Wednesday",
    "Thursday",
    "Friday",
    "Saturday",
    "Sunday",
)


def straddled_bin_span(
    start: npt.NDArray[np.float64], end: npt.NDArray[np.float64]
) -> tuple[npt.NDArray[np.int64], npt.NDArray[np.int64]]:
    """First and last 15-minute bin each ``[start, end)`` interval straddles.

    The vectorized ``Interval.bins_straddled(BIN_SECONDS)``: an end exactly
    on a bin boundary excludes that bin, and a zero-length interval still
    touches the single bin holding its start.
    """
    first = np.floor_divide(start, BIN_SECONDS).astype(np.int64)
    last = np.floor_divide(end, BIN_SECONDS).astype(np.int64)
    last[np.mod(end, BIN_SECONDS) == 0] -= 1
    last = np.maximum(last, first)
    return first, last


@dataclass(frozen=True)
class StudyClock:
    """Calendar coordinates for timestamps measured from the study start.

    Parameters
    ----------
    start_weekday:
        Weekday of study day 0; 0 = Monday ... 6 = Sunday.  The paper's study
        starts on an arbitrary day; the default of Monday makes Table 1
        straightforward to eyeball.
    n_days:
        Length of the study period in days (the paper uses 90).
    """

    start_weekday: int = 0
    n_days: int = 90

    def __post_init__(self) -> None:
        if not 0 <= self.start_weekday <= 6:
            raise ValueError(f"start_weekday must be in 0..6, got {self.start_weekday}")
        if self.n_days <= 0:
            raise ValueError(f"n_days must be positive, got {self.n_days}")

    @property
    def duration(self) -> int:
        """Total study length in seconds."""
        return self.n_days * DAY

    def day_index(self, t: float) -> int:
        """Study day (0-based) containing timestamp ``t``."""
        return int(t // DAY)

    def weekday(self, t: float) -> int:
        """Weekday of ``t``; 0 = Monday ... 6 = Sunday."""
        return (self.day_index(t) + self.start_weekday) % 7

    def weekday_name(self, t: float) -> str:
        """English weekday name of ``t``."""
        return WEEKDAY_NAMES[self.weekday(t)]

    def second_of_day(self, t: float) -> float:
        """Seconds elapsed since local midnight of ``t``'s day."""
        return t % DAY

    def hour_of_day(self, t: float) -> int:
        """Hour of the local day, 0..23."""
        return int(self.second_of_day(t) // HOUR)

    def hour_of_week(self, t: float) -> int:
        """Cell index in the 24x7 matrix: ``weekday * 24 + hour``, 0..167."""
        return self.weekday(t) * 24 + self.hour_of_day(t)

    def bin15_of_day(self, t: float) -> int:
        """15-minute bin of the local day, 0..95."""
        return int(self.second_of_day(t) // BIN_SECONDS)

    def bin15_of_week(self, t: float) -> int:
        """15-minute bin of the local week, 0..671."""
        return self.weekday(t) * BINS_PER_DAY + self.bin15_of_day(t)

    def bin15_global(self, t: float) -> int:
        """Absolute 15-minute bin index from the start of the study."""
        return int(t // BIN_SECONDS)

    @property
    def n_bins(self) -> int:
        """Total number of 15-minute bins in the study period."""
        return self.n_days * BINS_PER_DAY

    def in_study(self, t: float) -> bool:
        """True when ``t`` falls within the study window ``[0, duration)``."""
        return 0 <= t < self.duration

    def day_start(self, day: int) -> int:
        """Timestamp of midnight starting study day ``day``."""
        return day * DAY

    def days_of_weekday(self, weekday: int) -> list[int]:
        """All study day indices that fall on ``weekday`` (0 = Monday)."""
        if not 0 <= weekday <= 6:
            raise ValueError(f"weekday must be in 0..6, got {weekday}")
        first = (weekday - self.start_weekday) % 7
        return list(range(first, self.n_days, 7))
