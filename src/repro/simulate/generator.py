"""End-to-end synthetic trace generation.

:class:`TraceGenerator` wires the substrates together: build the radio
topology and its load model, build the road network, synthesize the fleet,
drive every car's trips over the study period, emit CDRs, then inject
measurement artifacts.  The result, a :class:`TraceDataset`, is the
reproduction's stand-in for the paper's proprietary data set and is what
every analysis and benchmark consumes.

The per-car pipeline is factored into :func:`build_substrates` and
:func:`records_for_cars` so that :func:`repro.simulate.parallel.
parallel_records` can run the identical code over fleet shards in worker
processes: every car's records depend only on the config-derived
substrates and that car's child seed, which is what makes sharding safe.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

from repro.algorithms.timebins import StudyClock
from repro.cdr.errors import TraceGenerationError
from repro.cdr.records import CDRBatch, ConnectionRecord
from repro.cpus import available_cpus
from repro.mobility.movement import EdgeCellIndex, route_span_arrays
from repro.mobility.profiles import DailyTripPlanner
from repro.mobility.roads import RoadNetwork, build_road_network
from repro.mobility.routing import Router
from repro.mobility.trips import Trip
from repro.network.load import CellLoadModel
from repro.network.topology import NetworkTopology, build_topology
from repro.simulate.artifacts import (
    apply_data_loss,
    apply_stuck_modems,
    inject_ghost_hour_records,
)
from repro.simulate.config import SimulationConfig
from repro.simulate.events import EventConfig, event_trips, venue_node
from repro.simulate.population import Car, build_population
from repro.simulate.radio import CarrierSampler, records_for_trip_spans


@dataclass
class TraceDataset:
    """A generated trace plus everything needed to analyze it.

    ``cars`` is ground truth the paper's authors did not have (per-car
    behaviour profiles); tests use it to check that analyses recover known
    structure, and analyses must not peek at it.
    """

    config: SimulationConfig
    clock: StudyClock
    topology: NetworkTopology
    load_model: CellLoadModel
    roads: RoadNetwork
    cars: list[Car]
    batch: CDRBatch

    @property
    def n_records(self) -> int:
        """Number of connection records after artifact injection."""
        return len(self.batch)


@dataclass
class GenerationSubstrates:
    """Everything a worker needs to turn (car, seed) pairs into records.

    Built deterministically from a :class:`SimulationConfig` alone, so a
    worker process can rebuild an identical copy from the pickled config —
    or inherit the parent's via fork — and produce the same records.
    """

    clock: StudyClock
    topology: NetworkTopology
    roads: RoadNetwork
    router: Router
    edge_index: EdgeCellIndex
    planner: DailyTripPlanner
    event_venues: dict[EventConfig, int]
    carrier_sampler: CarrierSampler


def build_substrates(cfg: SimulationConfig) -> GenerationSubstrates:
    """Construct the config-derived generation substrates."""
    clock = cfg.clock
    topology = build_topology(cfg.topology)
    roads = build_road_network(cfg.roads)
    router = Router(roads)
    edge_index = EdgeCellIndex(roads, topology)
    planner = DailyTripPlanner(roads, clock)
    event_venues = {event: venue_node(event, roads) for event in cfg.events}
    return GenerationSubstrates(
        clock=clock,
        topology=topology,
        roads=roads,
        router=router,
        edge_index=edge_index,
        planner=planner,
        event_venues=event_venues,
        carrier_sampler=CarrierSampler(cfg.carrier_weights),
    )


def records_for_cars(
    cfg: SimulationConfig,
    substrates: GenerationSubstrates,
    cars: list[Car],
    car_seeds: npt.NDArray[np.int64],
) -> list[ConnectionRecord]:
    """Clean records for a shard of the fleet, in per-car generation order.

    Each car's stream depends only on its own child RNG, so any contiguous
    partition of ``(cars, car_seeds)`` concatenates back to exactly the
    serial record list.
    """
    records: list[ConnectionRecord] = []
    for car, car_seed in zip(cars, car_seeds):
        rng = np.random.default_rng(int(car_seed))
        records.extend(_records_for_car(cfg, substrates, car, rng))
    return records


def _records_for_car(
    cfg: SimulationConfig,
    sub: GenerationSubstrates,
    car: Car,
    rng: np.random.Generator,
) -> list[ConnectionRecord]:
    clock = sub.clock
    planner = sub.planner
    router = sub.router
    edge_index = sub.edge_index
    topology = sub.topology
    records: list[ConnectionRecord] = []
    for day in range(clock.n_days):
        trips = planner.trips_for_day(car.itinerary, day, rng)
        trips.extend(_event_trips_for_day(car, day, rng, router, sub.event_venues))
        trips.sort()
        previous_end = 0.0
        for trip in trips:
            route = router.route(trip.origin, trip.destination)
            if len(route.nodes) < 2:
                continue
            # Trips cannot start before the previous one ended: nudge
            # departures so one car never drives two trips at once.
            departure = max(trip.departure, previous_end + 60.0)
            keys, starts, ends = route_span_arrays(route, departure, edge_index)
            previous_end = ends[-1] if ends else departure
            records.extend(
                records_for_trip_spans(
                    car,
                    departure,
                    keys,
                    starts,
                    ends,
                    topology,
                    sub.carrier_sampler,
                    cfg.activity,
                    rng,
                )
            )
    # Clip to the study window: a late-evening trip's records may spill
    # past the end of the study and would never appear in the data set.
    horizon = clock.duration
    return [rec for rec in records if rec.start < horizon]


def _event_trips_for_day(
    car: Car,
    day: int,
    rng: np.random.Generator,
    router: Router,
    event_venues: dict[EventConfig, int] | None,
) -> list[Trip]:
    """Trips a car makes to attend the day's configured events."""
    if not event_venues:
        return []
    trips: list[Trip] = []
    for event, venue in event_venues.items():
        if event.day != day or day < car.itinerary.activation_day:
            continue
        if rng.random() >= event.attendee_fraction:
            continue
        home = car.itinerary.home
        if home == venue:
            continue
        travel = router.route(home, venue).travel_time
        trips.extend(event_trips(event, home, venue, travel, rng))
    return trips


def finalize_dataset(
    cfg: SimulationConfig,
    substrates: GenerationSubstrates,
    load_model: CellLoadModel,
    cars: list[Car],
    clean: list[ConnectionRecord],
    artifact_rng: np.random.Generator,
) -> TraceDataset:
    """Inject measurement artifacts and assemble the dataset."""
    dirty = inject_ghost_hour_records(
        clean, cfg.artifacts.ghost_hour_rate, artifact_rng
    )
    dirty = apply_stuck_modems(
        dirty,
        cfg.artifacts.stuck_modem_rate,
        artifact_rng,
        log_mean=cfg.artifacts.stuck_log_mean,
        log_sigma=cfg.artifacts.stuck_log_sigma,
    )
    dirty = apply_data_loss(
        dirty,
        cfg.artifacts.data_loss_days,
        cfg.artifacts.data_loss_fraction,
        artifact_rng,
    )
    return TraceDataset(
        config=cfg,
        clock=substrates.clock,
        topology=substrates.topology,
        load_model=load_model,
        roads=substrates.roads,
        cars=cars,
        batch=CDRBatch(dirty),
    )


class TraceGenerator:
    """Generates a :class:`TraceDataset` from a :class:`SimulationConfig`.

    Generation is deterministic in the config's seeds: per-car child RNGs
    are spawned from the root seed, so fleets of different sizes share the
    behaviour of their common prefix of cars.

    ``workers`` shards the fleet across that many processes (0 = one per
    CPU this process may use); :mod:`repro.simulate.parallel` says when
    the dataset is record-for-record the serial one.
    """

    def __init__(
        self, config: SimulationConfig | None = None, workers: int = 1
    ) -> None:
        if workers < 0:
            raise TraceGenerationError(
                f"workers must be 0 (one per CPU) or a positive count, got {workers}"
            )
        self.config = config or SimulationConfig()
        self.workers = workers or available_cpus()

    def generate(self) -> TraceDataset:
        """Run the full generation pipeline."""
        cfg = self.config
        substrates = build_substrates(cfg)
        load_model = CellLoadModel(
            substrates.topology, substrates.clock, seed=cfg.load_seed
        )

        root = np.random.default_rng(cfg.seed)
        population_rng = np.random.default_rng(root.integers(2**63))
        cars = build_population(
            cfg.n_cars,
            substrates.roads,
            substrates.clock,
            population_rng,
            c5_capable_fraction=cfg.c5_capable_fraction,
            fleet_growth_fraction=cfg.fleet_growth_fraction,
        )

        car_seeds = root.integers(2**63, size=len(cars))
        if min(self.workers, len(cars)) <= 1:
            clean = records_for_cars(cfg, substrates, cars, car_seeds)
        else:
            # Imported here: the pool module imports this one.
            from repro.simulate.parallel import parallel_records

            clean = parallel_records(cfg, substrates, cars, car_seeds, self.workers)

        artifact_rng = np.random.default_rng(root.integers(2**63))
        return finalize_dataset(
            cfg, substrates, load_model, cars, clean, artifact_rng
        )
