"""Unit tests for car behaviour profiles and trip planning."""

import pytest

from repro.algorithms.timebins import DAY, HOUR, StudyClock
from repro.mobility.profiles import (
    PROFILE_MIX,
    CarProfile,
    DailyTripPlanner,
    draw_profile,
)


@pytest.fixture(scope="module")
def planner(roads):
    return DailyTripPlanner(roads, StudyClock(start_weekday=0, n_days=28))


class TestProfileMix:
    def test_sums_to_one(self):
        assert sum(PROFILE_MIX.values()) == pytest.approx(1.0)

    def test_draw_respects_mix(self, rng):
        draws = [draw_profile(rng) for _ in range(3000)]
        frac_commuter = sum(p is CarProfile.COMMUTER for p in draws) / len(draws)
        assert frac_commuter == pytest.approx(PROFILE_MIX[CarProfile.COMMUTER], abs=0.05)


class TestItinerary:
    def test_home_differs_from_work(self, planner, rng):
        for profile in CarProfile:
            it = planner.make_itinerary(profile, rng)
            assert it.home != it.work

    def test_rare_cars_have_rare_days(self, planner, rng):
        it = planner.make_itinerary(CarProfile.RARE, rng)
        assert 1 <= len(it.rare_days) <= 15
        assert all(0 <= d < 28 for d in it.rare_days)

    def test_one_day_study_rare_car_gets_its_single_day(self, roads, rng):
        """A 1-day study has one day to draw: the count is capped at it."""
        one_day = DailyTripPlanner(roads, StudyClock(start_weekday=0, n_days=1))
        for _ in range(20):
            it = one_day.make_itinerary(CarProfile.RARE, rng)
            assert it.rare_days == frozenset({0})

    def test_non_rare_have_no_rare_days(self, planner, rng):
        it = planner.make_itinerary(CarProfile.COMMUTER, rng)
        assert it.rare_days == frozenset()

    def test_departure_hours_sane(self, planner, rng):
        for _ in range(20):
            it = planner.make_itinerary(CarProfile.COMMUTER, rng)
            assert 5.5 <= it.depart_out_hour <= 10.5
            assert 14.5 <= it.depart_back_hour <= 21.0

    def test_downtown_fraction_validated(self, roads, clock):
        with pytest.raises(ValueError):
            DailyTripPlanner(roads, clock, downtown_home_fraction=1.5)


class TestDayFactors:
    def test_factor_per_day(self, planner):
        assert planner.day_factors.shape == (28,)
        assert (planner.day_factors >= 0).all()

    def test_saturdays_more_variable(self, roads):
        clock = StudyClock(start_weekday=0, n_days=7 * 52)
        planner = DailyTripPlanner(roads, clock)
        sat = planner.day_factors[clock.days_of_weekday(5)]
        tue = planner.day_factors[clock.days_of_weekday(1)]
        assert sat.std() > tue.std()


class TestTripsForDay:
    def test_commuter_weekday_commutes(self, planner, rng):
        it = planner.make_itinerary(CarProfile.COMMUTER, rng)
        for day in range(5):
            trips = planner.trips_for_day(it, day, rng)
            if not trips:
                continue
            assert trips[0].origin == it.home
            assert trips[0].destination == it.work
            # Trips are chronological.
            departures = [t.departure for t in trips]
            assert departures == sorted(departures)

    def test_trips_within_day_window(self, planner, rng):
        it = planner.make_itinerary(CarProfile.HEAVY, rng)
        for day in range(14):
            for trip in planner.trips_for_day(it, day, rng):
                assert day * DAY <= trip.departure < (day + 1) * DAY

    def test_rare_car_drives_only_rare_days(self, planner, rng):
        it = planner.make_itinerary(CarProfile.RARE, rng)
        for day in range(28):
            trips = planner.trips_for_day(it, day, rng)
            if day not in it.rare_days:
                assert trips == []

    def test_weekender_prefers_weekends(self, planner, rng):
        it = planner.make_itinerary(CarProfile.WEEKENDER, rng)
        weekday_days = sum(
            bool(planner.trips_for_day(it, d, rng)) for d in range(28) if d % 7 < 5
        )
        weekend_days = sum(
            bool(planner.trips_for_day(it, d, rng)) for d in range(28) if d % 7 >= 5
        )
        # 20 weekdays vs 8 weekend days; a weekender still drives more
        # weekend days in absolute terms... not guaranteed, so compare rates.
        assert weekend_days / 8 > weekday_days / 20

    def test_commuter_morning_departure_near_habit(self, planner, rng):
        it = planner.make_itinerary(CarProfile.COMMUTER, rng)
        for day in range(5):
            trips = planner.trips_for_day(it, day, rng)
            if trips:
                hour = (trips[0].departure - day * DAY) / HOUR
                assert abs(hour - it.depart_out_hour) < 1.5

    def test_errand_window_respected(self, planner, rng):
        # Evening-window cars never start errands in the morning.
        for _ in range(50):
            it = planner.make_itinerary(CarProfile.ERRAND, rng)
            if it.errand_window[0] >= 16.0:
                for day in range(14):
                    trips = planner.trips_for_day(it, day, rng)
                    if trips:
                        first_hour = (trips[0].departure - (trips[0].departure // DAY) * DAY) / HOUR
                        assert first_hour >= 16.0
                break
        else:
            pytest.skip("no evening-window itinerary drawn in 50 tries")
