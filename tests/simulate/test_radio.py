"""Unit tests for radio session synthesis."""

import numpy as np

from repro.mobility.profiles import CarItinerary, CarProfile
from repro.simulate.config import ActivityConfig
from repro.simulate.population import BASE_CAPABILITIES, Car
from repro.simulate.radio import (
    MIN_RECORD_S,
    CarrierSampler,
    _draw_carrier,
    generate_bursts,
    records_for_trip_spans,
)

WEIGHTS = {"C1": 0.2, "C2": 0.1, "C3": 0.5, "C4": 0.2}


def make_car(capabilities=BASE_CAPABILITIES, infotainment=1.0):
    return Car(
        car_id="car-000001",
        profile=CarProfile.COMMUTER,
        itinerary=CarItinerary(
            profile=CarProfile.COMMUTER,
            home=0,
            work=1,
            depart_out_hour=8.0,
            depart_back_hour=17.0,
        ),
        capabilities=frozenset(capabilities),
        infotainment_factor=infotainment,
    )


class TestCarrierSampler:
    def test_draw_matches_uncached_choice_stream(self):
        """The cached CDF draw is bit-identical to rng.choice(n, p=p)."""
        car = make_car()
        sampler = CarrierSampler(WEIGHTS)
        for seed in range(50):
            rng_a = np.random.default_rng(seed)
            rng_b = np.random.default_rng(seed)
            assert sampler.draw(car.capabilities, rng_a) == _draw_carrier(
                car, WEIGHTS, rng_b
            )
            # Both paths must consume the stream identically too.
            assert rng_a.random() == rng_b.random()

    def test_zero_weight_capabilities_uniform(self):
        sampler = CarrierSampler({})
        caps = frozenset({"C1", "C2"})
        draws = {sampler.draw(caps, np.random.default_rng(s)) for s in range(40)}
        assert draws == {"C1", "C2"}

    def test_table_cached_per_capability_set(self):
        sampler = CarrierSampler(WEIGHTS)
        caps = frozenset({"C1", "C3"})
        assert sampler.table(caps) is sampler.table(caps)


class TestGenerateBursts:
    def test_empty_for_zero_duration(self, rng):
        assert generate_bursts(0.0, make_car(), ActivityConfig(), rng) == []

    def test_bursts_sorted_disjoint(self, rng):
        bursts = generate_bursts(1800.0, make_car(), ActivityConfig(), rng)
        assert bursts
        for a, b in zip(bursts, bursts[1:]):
            assert a.end < b.start

    def test_first_burst_at_engine_start(self, rng):
        bursts = generate_bursts(1800.0, make_car(), ActivityConfig(), rng)
        assert bursts[0].start == 0.0

    def test_bursts_extended_by_timeout(self, rng):
        cfg = ActivityConfig()
        bursts = generate_bursts(600.0, make_car(infotainment=0.0), cfg, rng)
        # Every burst carries at least the minimum idle timeout past its data.
        assert all(b.duration >= cfg.idle_timeout_s[0] for b in bursts)

    def test_bursts_bounded_by_trip_plus_timeout(self, rng):
        cfg = ActivityConfig()
        for _ in range(10):
            bursts = generate_bursts(900.0, make_car(), cfg, rng)
            assert bursts[-1].end <= 900.0 + cfg.idle_timeout_s[1] + 1e-6

    def test_longer_trips_more_bursts(self, rng):
        car = make_car(infotainment=0.0)
        cfg = ActivityConfig()
        short = np.mean(
            [len(generate_bursts(300.0, car, cfg, rng)) for _ in range(30)]
        )
        long = np.mean(
            [len(generate_bursts(3600.0, car, cfg, rng)) for _ in range(30)]
        )
        assert long > short


def spans(*triples):
    """Parallel (keys, starts, ends) lists from (key, start, end) triples."""
    keys, starts, ends = (list(column) for column in zip(*triples))
    return keys, starts, ends


class TestMergeSameSite:
    """A connection stays on its cell while the car stays under the site."""

    def _one_burst(self, timeline, topology, rng):
        # Spans of 2 s: the engine-start burst's 10-12 s idle timeout alone
        # outlasts the drive, and every later burst starts inside it, so the
        # whole trip is one connection.
        keys, starts, ends = timeline
        return records_for_trip_spans(
            make_car(), starts[0], keys, starts, ends, topology, CarrierSampler(WEIGHTS),
            ActivityConfig(), rng,
        )

    def test_merges_consecutive_same_site(self, topology, rng):
        """One burst across two sectors of one site is one record, on the
        first sector's cell."""
        site = topology.sites[0].base_station_id
        timeline = spans(((site, 0), 1000.0, 1002.0), ((site, 1), 1002.0, 1004.0))
        records = self._one_burst(timeline, topology, rng)
        assert len(records) == 1
        assert records[0].start == 1000.0
        assert records[0].end > 1004.0
        first_sector = topology.sector(site, 0)
        assert records[0].cell_id in {cell.cell_id for cell in first_sector.cells}

    def test_preserves_alternation(self, topology, rng):
        """Sites visited A-B-A are not merged."""
        a = topology.sites[0].base_station_id
        b = topology.sites[1].base_station_id
        timeline = spans(
            ((a, 0), 1000.0, 1002.0), ((b, 0), 1002.0, 1004.0), ((a, 1), 1004.0, 1006.0)
        )
        records = self._one_burst(timeline, topology, rng)
        sites = [topology.cell(r.cell_id).base_station_id for r in records]
        assert sites == [a, b, a]


class TestRecordsForTrip:
    def _timeline(self, topology, departure=1000.0):
        triples = []
        t = departure
        for site in topology.sites[:3]:
            triples.append(((site.base_station_id, 0), t, t + 300.0))
            t += 300.0
        return spans(*triples)

    def _records(self, car, timeline, topology, weights, cfg, rng, departure=1000.0):
        keys, starts, ends = timeline
        return records_for_trip_spans(
            car, departure, keys, starts, ends, topology, CarrierSampler(weights), cfg,
            rng,
        )

    def test_records_within_burst_windows(self, topology, rng):
        car = make_car()
        timeline = self._timeline(topology)
        records = self._records(
            car, timeline, topology, WEIGHTS, ActivityConfig(), rng
        )
        assert records
        for rec in records:
            assert rec.start >= 1000.0
            assert rec.duration >= MIN_RECORD_S
            assert rec.car_id == car.car_id

    def test_records_cells_belong_to_timeline_sites(self, topology, rng):
        car = make_car()
        timeline = self._timeline(topology)
        site_ids = {key[0] for key in timeline[0]}
        records = self._records(
            car, timeline, topology, WEIGHTS, ActivityConfig(), rng
        )
        for rec in records:
            assert topology.cell(rec.cell_id).base_station_id in site_ids

    def test_carrier_respects_capabilities(self, topology, rng):
        car = make_car(capabilities={"C3"})
        timeline = self._timeline(topology)
        records = self._records(
            car, timeline, topology, {"C3": 1.0}, ActivityConfig(), rng
        )
        assert records
        assert {r.carrier for r in records} == {"C3"}

    def test_technology_matches_carrier(self, topology, rng):
        car = make_car()
        records = self._records(
            car, self._timeline(topology), topology, WEIGHTS, ActivityConfig(), rng
        )
        for rec in records:
            assert rec.technology == ("3G" if rec.carrier == "C1" else "4G")

    def test_empty_timeline_no_records(self, topology, rng):
        assert (
            self._records(
                make_car(), ([], [], []), topology, WEIGHTS, ActivityConfig(), rng,
                departure=0.0,
            )
            == []
        )

    def test_burst_crossing_sites_splits_records(self, topology, rng):
        # With a high-duty activity config, at least one burst spans several
        # sites and must emit one record per site (the handover).
        car = make_car(infotainment=5.0)
        cfg = ActivityConfig(infotainment_prob=1.0, infotainment_mean_s=5000.0)
        timeline = self._timeline(topology)
        records = self._records(car, timeline, topology, WEIGHTS, cfg, rng)
        cells = {topology.cell(r.cell_id).base_station_id for r in records}
        assert len(cells) >= 2
