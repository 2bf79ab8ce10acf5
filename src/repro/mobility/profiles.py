"""Car behaviour profiles and daily trip planning.

Section 4.2 of the paper shows cars with sharply different 24x7 connection
matrices: strict weekday commuters, heavy all-week users, weekend-leaning
cars and cars that barely appear.  The profile mix below synthesizes those
archetypes.  Aggregate calibration targets (Figure 2 / Table 1): roughly
76-80% of cars appear on a weekday, ~70% on Saturday and ~67% on Sunday, and
the days-on-network histogram (Figure 6) has a small "rare" mass below 10
days with most cars above 60 days.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.algorithms.timebins import DAY, HOUR, StudyClock
from repro.mobility.roads import RoadNetwork
from repro.mobility.trips import Trip, TripPurpose
from repro.network.geometry import Point


class CarProfile(enum.Enum):
    """Behaviour archetype of a car."""

    COMMUTER = "commuter"
    HEAVY = "heavy"
    WEEKENDER = "weekender"
    ERRAND = "errand"
    RARE = "rare"


#: Fleet mix; fractions sum to 1.  Tuned so daily presence and the Figure 6
#: histogram have the paper's shape.
PROFILE_MIX: dict[CarProfile, float] = {
    CarProfile.COMMUTER: 0.42,
    CarProfile.HEAVY: 0.16,
    CarProfile.WEEKENDER: 0.10,
    CarProfile.ERRAND: 0.22,
    CarProfile.RARE: 0.10,
}

#: Probability a car of each profile drives at all on a weekday / weekend day.
_DRIVE_PROB: dict[CarProfile, tuple[float, float]] = {
    CarProfile.COMMUTER: (0.95, 0.62),
    CarProfile.HEAVY: (0.98, 0.90),
    CarProfile.WEEKENDER: (0.35, 0.92),
    CarProfile.ERRAND: (0.74, 0.78),
    CarProfile.RARE: (0.0, 0.0),  # handled via explicit driving days
}


@dataclass(frozen=True)
class CarItinerary:
    """Static facts about one car the planner needs every day."""

    profile: CarProfile
    home: int
    work: int
    #: Per-car jitter of habitual departure hours, so different commuters
    #: peak at slightly different times.
    depart_out_hour: float
    depart_back_hour: float
    #: Hours of day within which this car's errand/leisure trips depart;
    #: some cars are evening-only drivers, which (living downtown) makes
    #: them the paper's ~1% always-on-busy-radios cars.
    errand_window: tuple[float, float] = (8.5, 18.0)
    #: First study day this car exists on the network.  Cars sold during
    #: the study activate late, producing the slow upward trend of Fig 2.
    activation_day: int = 0
    #: For RARE cars only: the explicit set of study days the car drives.
    rare_days: frozenset[int] = frozenset()


class DailyTripPlanner:
    """Generates each car's trips for the whole study period.

    The planner is deterministic given its RNG: the trace generator hands it
    a per-car child generator, so regenerating a fleet reproduces identical
    schedules.
    """

    def __init__(
        self,
        roads: RoadNetwork,
        clock: StudyClock,
        downtown_home_fraction: float = 0.22,
        day_factor_seed: int = 97,
    ) -> None:
        if not 0 <= downtown_home_fraction <= 1:
            raise ValueError(
                f"downtown_home_fraction must be in [0, 1], got {downtown_home_fraction}"
            )
        self.roads = roads
        self.clock = clock
        self.downtown_home_fraction = downtown_home_fraction
        # Fleet-wide day-to-day variability: weather, events, holidays.  The
        # paper's Table 1 shows Friday and especially Saturday with several
        # times the standard deviation of midweek days; a shared per-day
        # multiplier on drive probability reproduces that, which i.i.d.
        # per-car coin flips alone cannot.
        factor_rng = np.random.default_rng(day_factor_seed)
        sigma_by_weekday = (0.015, 0.015, 0.015, 0.015, 0.045, 0.09, 0.03)
        self.day_factors = np.asarray(
            [
                max(
                    0.0,
                    1.0
                    + factor_rng.normal(
                        0.0, sigma_by_weekday[(d + clock.start_weekday) % 7]
                    ),
                )
                for d in range(clock.n_days)
            ]
        )
        # Population density is highest downtown: a share of homes lands in
        # the metro core, which (with the hot downtown district in the load
        # model) produces the cars that live mostly on busy radios.
        self._center = Point(
            roads.config.width_km / 2.0, roads.config.height_km / 2.0
        )
        self._core_radius_km = min(roads.config.width_km, roads.config.height_km) / 5.0

    def make_itinerary(
        self,
        profile: CarProfile,
        rng: np.random.Generator,
        activation_day: int = 0,
    ) -> CarItinerary:
        """Draw the car's home/work nodes and habitual hours."""
        if rng.random() < self.downtown_home_fraction:
            home = self.roads.random_node_near(rng, self._center, self._core_radius_km)
        else:
            home = self.roads.random_node(rng)
        work = self.roads.random_node_near(
            rng, self.roads.position(home), radius_km=26.0
        )
        if work == home:
            work = self.roads.random_node(rng)
            while work == home:
                work = self.roads.random_node(rng)
        rare_days: frozenset[int] = frozenset()
        if profile is CarProfile.RARE:
            # Rare cars appear on up to ~1/6 of study days (at most 15 over
            # the paper's 90 days), scaling down for shorter studies so the
            # Figure 6 histogram keeps its sub-10-day mass at any scale.
            # A one-day study caps the draw at its single day.
            max_days = min(
                max(2, min(15, self.clock.n_days // 6)), self.clock.n_days
            )
            n_days = int(rng.integers(1, max_days + 1))
            rare_days = frozenset(
                int(d) for d in rng.choice(self.clock.n_days, size=n_days, replace=False)
            )
        window_draw = rng.random()
        if window_draw < 0.70:
            errand_window = (8.5, 18.0)
        elif window_draw < 0.85:
            errand_window = (16.5, 21.0)  # evening-only drivers
        else:
            errand_window = (9.0, 21.0)
        return CarItinerary(
            profile=profile,
            home=home,
            work=work,
            depart_out_hour=float(min(max(rng.normal(7.8, 0.8), 5.5), 10.5)),
            depart_back_hour=float(min(max(rng.normal(17.2, 1.0), 14.5), 21.0)),
            errand_window=errand_window,
            activation_day=activation_day,
            rare_days=rare_days,
        )

    def trips_for_day(
        self, itinerary: CarItinerary, day: int, rng: np.random.Generator
    ) -> list[Trip]:
        """Trips the car makes on one study day (possibly none)."""
        if day < itinerary.activation_day:
            return []
        weekday = (day + self.clock.start_weekday) % 7
        is_weekend = weekday >= 5
        profile = itinerary.profile

        if profile is CarProfile.RARE:
            if day not in itinerary.rare_days:
                return []
            return self._errand_trips(itinerary, day, rng, max_trips=2)

        p_weekday, p_weekend = _DRIVE_PROB[profile]
        p = (p_weekend if is_weekend else p_weekday) * self.day_factors[day]
        if rng.random() >= p:
            return []

        if is_weekend:
            if profile is CarProfile.COMMUTER:
                return self._errand_trips(itinerary, day, rng, max_trips=2)
            n = 2 if profile in (CarProfile.HEAVY, CarProfile.WEEKENDER) else 2
            return self._errand_trips(itinerary, day, rng, max_trips=n)

        if profile in (CarProfile.COMMUTER, CarProfile.HEAVY):
            trips = self._commute_trips(itinerary, day, rng)
            extra_prob = 0.6 if profile is CarProfile.HEAVY else 0.3
            if rng.random() < extra_prob:
                trips.extend(self._errand_trips(itinerary, day, rng, max_trips=1))
            return sorted(trips)
        return self._errand_trips(itinerary, day, rng, max_trips=3)

    def _commute_trips(
        self, itinerary: CarItinerary, day: int, rng: np.random.Generator
    ) -> list[Trip]:
        day_start = self.clock.day_start(day)
        out_depart = day_start + (
            itinerary.depart_out_hour + float(rng.normal(0.0, 0.25))
        ) * HOUR
        back_depart = day_start + (
            itinerary.depart_back_hour + float(rng.normal(0.0, 0.4))
        ) * HOUR
        out_depart = float(min(max(out_depart, day_start), day_start + DAY - 2 * HOUR))
        back_depart = float(
            min(max(back_depart, out_depart + HOUR), day_start + DAY - HOUR)
        )
        return [
            Trip(out_depart, itinerary.home, itinerary.work, TripPurpose.COMMUTE_OUT),
            Trip(back_depart, itinerary.work, itinerary.home, TripPurpose.COMMUTE_BACK),
        ]

    def _errand_trips(
        self,
        itinerary: CarItinerary,
        day: int,
        rng: np.random.Generator,
        max_trips: int,
    ) -> list[Trip]:
        """Out-and-back errand/leisure legs at daytime-weighted hours."""
        day_start = self.clock.day_start(day)
        n_out = int(rng.integers(1, max_trips + 1))
        trips: list[Trip] = []
        origin = itinerary.home
        lo, hi = itinerary.errand_window
        t = day_start + float(lo + (hi - lo) * rng.random()) * HOUR
        for _ in range(n_out):
            dest = self.roads.random_node_near(
                rng, self.roads.position(origin), radius_km=12.0
            )
            if dest == origin:
                continue
            trips.append(Trip(t, origin, dest, TripPurpose.LEISURE))
            dwell = float(0.5 + (2.5 - 0.5) * rng.random()) * HOUR
            t_back = min(t + dwell, day_start + DAY - 30 * 60)
            if t_back <= trips[-1].departure:
                t_back = trips[-1].departure + 20 * 60
            trips.append(Trip(t_back, dest, origin, TripPurpose.LEISURE))
            origin = itinerary.home
            t = t_back + float(0.5 + (2.0 - 0.5) * rng.random()) * HOUR
            if t >= day_start + DAY - HOUR:
                break
        return trips


def draw_profile(rng: np.random.Generator) -> CarProfile:
    """Sample a profile from the fleet mix."""
    profiles = list(PROFILE_MIX)
    weights = np.asarray([PROFILE_MIX[p] for p in profiles])
    return profiles[int(rng.choice(len(profiles), p=weights / weights.sum()))]
