"""Unit tests for study-clock calendar arithmetic."""

import numpy as np
import pytest

from repro.algorithms.intervals import Interval
from repro.algorithms.timebins import (
    BIN_SECONDS,
    BINS_PER_DAY,
    BINS_PER_WEEK,
    DAY,
    HOUR,
    WEEK,
    StudyClock,
    straddled_bin_span,
)


class TestConstants:
    def test_bin_structure(self):
        assert BIN_SECONDS == 900
        assert BINS_PER_DAY == 96
        assert BINS_PER_WEEK == 672
        assert WEEK == 7 * DAY


class TestStudyClockValidation:
    def test_rejects_bad_weekday(self):
        with pytest.raises(ValueError):
            StudyClock(start_weekday=7)
        with pytest.raises(ValueError):
            StudyClock(start_weekday=-1)

    def test_rejects_non_positive_days(self):
        with pytest.raises(ValueError):
            StudyClock(n_days=0)


class TestDayAndWeekday:
    def test_day_index(self):
        clock = StudyClock()
        assert clock.day_index(0) == 0
        assert clock.day_index(DAY - 1) == 0
        assert clock.day_index(DAY) == 1
        assert clock.day_index(89 * DAY + 5) == 89

    def test_weekday_monday_start(self):
        clock = StudyClock(start_weekday=0)
        assert clock.weekday(0) == 0
        assert clock.weekday(5 * DAY) == 5  # Saturday
        assert clock.weekday(7 * DAY) == 0  # next Monday

    def test_weekday_nonzero_start(self):
        clock = StudyClock(start_weekday=3)  # Thursday
        assert clock.weekday(0) == 3
        assert clock.weekday(4 * DAY) == 0  # Monday

    def test_weekday_name(self):
        clock = StudyClock(start_weekday=5)
        assert clock.weekday_name(0) == "Saturday"
        assert clock.weekday_name(DAY) == "Sunday"


class TestHourCoordinates:
    def test_hour_of_day(self):
        clock = StudyClock()
        assert clock.hour_of_day(0) == 0
        assert clock.hour_of_day(HOUR * 23 + 59 * 60) == 23
        assert clock.hour_of_day(DAY + 2 * HOUR) == 2

    def test_hour_of_week(self):
        clock = StudyClock(start_weekday=0)
        assert clock.hour_of_week(0) == 0
        assert clock.hour_of_week(DAY + HOUR) == 25
        assert clock.hour_of_week(6 * DAY + 23 * HOUR) == 167

    def test_second_of_day_wraps(self):
        clock = StudyClock()
        assert clock.second_of_day(3 * DAY + 42.5) == pytest.approx(42.5)


class TestBins:
    def test_bin15_of_day(self):
        clock = StudyClock()
        assert clock.bin15_of_day(0) == 0
        assert clock.bin15_of_day(899) == 0
        assert clock.bin15_of_day(900) == 1
        assert clock.bin15_of_day(DAY - 1) == 95

    def test_bin15_of_week(self):
        clock = StudyClock(start_weekday=0)
        assert clock.bin15_of_week(0) == 0
        assert clock.bin15_of_week(DAY) == 96
        assert clock.bin15_of_week(6 * DAY + DAY - 1) == 671

    def test_bin15_global(self):
        clock = StudyClock()
        assert clock.bin15_global(0) == 0
        assert clock.bin15_global(2 * DAY) == 192

    def test_n_bins(self):
        assert StudyClock(n_days=90).n_bins == 90 * 96


class TestStraddledBinSpan:
    def test_matches_interval_bins_straddled(self):
        spans = [
            (0.0, 0.0),  # zero length on a bin start
            (900.0, 900.0),
            (450.0, 450.0),  # zero length inside a bin
            (0.0, 900.0),  # end on a boundary excludes that bin
            (100.0, 1800.0),
            (899.5, 900.5),
            (1000.0, 1799.0),
            (3.0 * DAY - 1.0, 3.0 * DAY + 2000.0),
        ]
        start = np.array([s for s, _ in spans])
        end = np.array([e for _, e in spans])
        first, last = straddled_bin_span(start, end)
        for i, (s, e) in enumerate(spans):
            bins = Interval(s, e).bins_straddled(BIN_SECONDS)
            assert (first[i], last[i]) == (bins[0], bins[-1])


class TestWindows:
    def test_in_study(self):
        clock = StudyClock(n_days=2)
        assert clock.in_study(0)
        assert clock.in_study(2 * DAY - 1)
        assert not clock.in_study(2 * DAY)
        assert not clock.in_study(-1)

    def test_day_start(self):
        assert StudyClock().day_start(3) == 3 * DAY

    def test_days_of_weekday(self):
        clock = StudyClock(start_weekday=0, n_days=14)
        assert clock.days_of_weekday(0) == [0, 7]
        assert clock.days_of_weekday(6) == [6, 13]

    def test_days_of_weekday_offset_start(self):
        clock = StudyClock(start_weekday=5, n_days=10)
        # Day 0 is Saturday; Monday first occurs on day 2.
        assert clock.days_of_weekday(0) == [2, 9]

    def test_days_of_weekday_rejects_bad_input(self):
        with pytest.raises(ValueError):
            StudyClock().days_of_weekday(9)

    def test_duration(self):
        assert StudyClock(n_days=90).duration == 90 * DAY
