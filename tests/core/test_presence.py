"""Unit tests for daily presence (Figure 2 / Table 1)."""

import pytest

from repro.algorithms.timebins import DAY, StudyClock
from repro.cdr.records import CDRBatch, ConnectionRecord
from repro.core.presence import daily_presence, weekday_table


def rec(start, car="car-a", cell=1):
    return ConnectionRecord(
        start=start, car_id=car, cell_id=cell, carrier="C3", technology="4G", duration=60.0
    )


@pytest.fixture()
def week_clock():
    return StudyClock(start_weekday=0, n_days=7)


class TestDailyPresence:
    def test_fractions(self, week_clock):
        batch = CDRBatch(
            [
                rec(0, car="a", cell=1),
                rec(10, car="b", cell=2),
                rec(DAY + 5, car="a", cell=1),
            ]
        )
        presence = daily_presence(batch, week_clock)
        assert presence.n_cars_total == 2
        assert presence.n_cells_total == 2
        assert presence.car_fraction[0] == 1.0
        assert presence.car_fraction[1] == 0.5
        assert presence.cell_fraction[1] == 0.5
        assert presence.car_fraction[2:].sum() == 0

    def test_car_counted_once_per_day(self, week_clock):
        batch = CDRBatch([rec(0), rec(100), rec(200)])
        presence = daily_presence(batch, week_clock)
        assert presence.car_fraction[0] == 1.0

    def test_out_of_window_records_ignored(self, week_clock):
        batch = CDRBatch([rec(0), rec(10 * DAY)])
        presence = daily_presence(batch, week_clock)
        assert presence.car_fraction.shape == (7,)

    def test_trends_computed(self, week_clock):
        batch = CDRBatch([rec(d * DAY, car=f"c{d}") for d in range(7)])
        presence = daily_presence(batch, week_clock)
        assert presence.car_trend.r_squared >= 0
        assert presence.cell_trend.slope == pytest.approx(0.0)


class TestWeekdayTable:
    def _presence(self, n_days=28):
        clock = StudyClock(start_weekday=0, n_days=n_days)
        records = []
        for day in range(n_days):
            weekday = day % 7
            n_cars = 10 if weekday < 5 else 6  # weekend dip
            for i in range(n_cars):
                records.append(rec(day * DAY + i, car=f"car-{i}", cell=i))
        return daily_presence(CDRBatch(records), clock), clock

    def test_rows_cover_week_plus_overall(self):
        presence, _ = self._presence()
        rows = weekday_table(presence)
        assert [r.weekday for r in rows] == [
            "Monday",
            "Tuesday",
            "Wednesday",
            "Thursday",
            "Friday",
            "Saturday",
            "Sunday",
            "Overall",
        ]

    def test_weekend_dip_visible(self):
        presence, _ = self._presence()
        rows = {r.weekday: r for r in weekday_table(presence)}
        assert rows["Saturday"].car_mean < rows["Wednesday"].car_mean

    def test_deterministic_means(self):
        presence, _ = self._presence()
        rows = {r.weekday: r for r in weekday_table(presence)}
        assert rows["Monday"].car_mean == pytest.approx(1.0)
        assert rows["Sunday"].car_mean == pytest.approx(0.6)
        assert rows["Monday"].car_std == pytest.approx(0.0)

    def test_overall_row_aggregates_all_days(self):
        presence, clock = self._presence()
        rows = {r.weekday: r for r in weekday_table(presence)}
        assert rows["Overall"].car_mean == pytest.approx(
            presence.car_fraction.mean()
        )

    def test_short_study_has_rows_only_for_weekdays_it_reaches(self):
        presence, _ = self._presence(n_days=3)
        rows = weekday_table(presence)
        assert [r.weekday for r in rows] == ["Monday", "Tuesday", "Wednesday", "Overall"]
        assert rows[-1].car_mean == pytest.approx(1.0)
