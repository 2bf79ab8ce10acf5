"""Unit and behavioural tests for the end-to-end trace generator."""

from dataclasses import replace

import numpy as np
import pytest

from repro.algorithms.timebins import DAY
from repro.cdr.errors import TraceGenerationError
from repro.mobility.roads import RoadConfig
from repro.simulate.artifacts import ArtifactConfig
from repro.simulate.config import SimulationConfig
from repro.simulate.generator import TraceGenerator


@pytest.fixture(scope="module")
def clean_dataset(small_config):
    """The shared dataset's config with every artifact switched off."""
    artifacts = ArtifactConfig(
        ghost_hour_rate=0.0, stuck_modem_rate=0.0, data_loss_days=()
    )
    return TraceGenerator(replace(small_config, artifacts=artifacts)).generate()


class TestConfigValidation:
    def test_rejects_zero_cars(self):
        with pytest.raises(TraceGenerationError):
            SimulationConfig(n_cars=0)

    def test_rejects_region_mismatch(self):
        with pytest.raises(TraceGenerationError):
            SimulationConfig(roads=RoadConfig(width_km=10.0, height_km=10.0))

    def test_rejects_bad_c5_fraction(self):
        with pytest.raises(TraceGenerationError):
            SimulationConfig(c5_capable_fraction=1.2)


class TestGeneratedDataset:
    def test_record_count_positive(self, dataset):
        assert dataset.n_records > 1000

    def test_all_records_in_study_window(self, dataset):
        horizon = dataset.clock.duration
        for rec in dataset.batch:
            assert 0 <= rec.start < horizon

    def test_cars_subset_of_fleet(self, dataset):
        fleet_ids = {c.car_id for c in dataset.cars}
        assert set(dataset.batch.car_ids()) <= fleet_ids

    def test_cells_exist_in_topology(self, dataset):
        for cell_id in dataset.batch.cell_ids():
            assert cell_id in dataset.topology.cells

    def test_record_carrier_matches_cell(self, dataset):
        for rec in dataset.batch.records[:2000]:
            cell = dataset.topology.cell(rec.cell_id)
            assert rec.carrier == cell.carrier.name
            assert rec.technology == cell.technology.value

    def test_clean_records_preserved(self, dataset, clean_dataset):
        assert clean_dataset.batch.records
        # Artifact injection only adds ghosts/stuck/drops; the clean trace
        # has no exactly-one-hour records, and the same cars.
        assert all(r.duration != 3600.0 for r in clean_dataset.batch)
        assert clean_dataset.batch.car_ids() == dataset.batch.car_ids()

    def test_ghost_records_present_in_batch(self, dataset):
        ghosts = [r for r in dataset.batch if r.duration == 3600.0]
        assert ghosts

    def test_data_loss_days_dip(self, clock):
        from repro.simulate.artifacts import ArtifactConfig

        cfg = SimulationConfig(
            n_cars=40,
            seed=5,
            clock=clock,
            artifacts=ArtifactConfig(data_loss_days=(9,), data_loss_fraction=0.6),
        )
        ds = TraceGenerator(cfg).generate()
        per_day = np.zeros(clock.n_days)
        for rec in ds.batch:
            per_day[int(rec.start // DAY)] += 1
        # Day 9 lost ~60% of records; compare to the same weekday one week
        # earlier (day 2).
        assert per_day[9] < per_day[2] * 0.7

    def test_no_overlapping_trips_per_car(self, clean_dataset):
        # Per-car clean records never have a later trip starting before an
        # earlier *clean* record's start (sorted order is consistent).
        by_car = {}
        for rec in clean_dataset.batch:
            by_car.setdefault(rec.car_id, []).append(rec)
        for recs in by_car.values():
            starts = [r.start for r in sorted(recs)]
            assert starts == sorted(starts)


class TestDeterminism:
    def test_same_seed_same_trace(self, clock):
        cfg = SimulationConfig(n_cars=10, seed=77, clock=clock)
        a = TraceGenerator(cfg).generate()
        b = TraceGenerator(cfg).generate()
        assert a.n_records == b.n_records
        assert a.batch.records[:50] == b.batch.records[:50]

    def test_different_seed_different_trace(self, clock):
        a = TraceGenerator(SimulationConfig(n_cars=10, seed=1, clock=clock)).generate()
        b = TraceGenerator(SimulationConfig(n_cars=10, seed=2, clock=clock)).generate()
        assert a.batch.records[:200] != b.batch.records[:200]


class TestScaling:
    def test_more_cars_more_records(self, clock):
        small = TraceGenerator(
            SimulationConfig(n_cars=5, seed=3, clock=clock)
        ).generate()
        large = TraceGenerator(
            SimulationConfig(n_cars=25, seed=3, clock=clock)
        ).generate()
        assert large.n_records > small.n_records * 2
