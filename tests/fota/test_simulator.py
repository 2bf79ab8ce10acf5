"""Tests for the campaign simulator, on controlled and generated traces."""

import numpy as np
import pytest

from repro.algorithms.timebins import DAY
from repro.cdr.records import CDRBatch, ConnectionRecord
from repro.core.busy import BusySchedule
from repro.core.preprocess import preprocess
from repro.core.segmentation import days_on_network
from repro.fota.campaign import CampaignConfig
from repro.fota.policy import BusyAwarePolicy, NaivePolicy, OffPeakPolicy
from repro.fota.simulator import CampaignSimulator
from repro.network.load import CellLoadModel


def rec(start, dur, car="car-a", cell=1):
    return ConnectionRecord(
        start=start, car_id=car, cell_id=cell, carrier="C3", technology="4G", duration=dur
    )


def schedule(always_busy=False, n_bins=96 * 30):
    mask = np.full(n_bins, 0.9 if always_busy else 0.1)
    return BusySchedule.from_series({1: mask})


class TestControlledDelivery:
    def test_small_update_completes_in_one_connection(self):
        # 600 s at 4 Mbps = 300 MB >> 10 MB update.
        batch = CDRBatch([rec(0, 600.0)])
        sim = CampaignSimulator(batch, schedule(), {"car-a": 30})
        result = sim.run(NaivePolicy(), CampaignConfig(update_bytes=10e6, window_days=1))
        outcome = result.outcomes["car-a"]
        assert outcome.complete
        assert outcome.transferred_bytes == pytest.approx(10e6)
        assert outcome.busy_bytes == 0.0

    def test_update_spans_connections(self):
        # Each 100 s connection moves 50 MB at 4 Mbps; a 120 MB update needs 3.
        batch = CDRBatch([rec(i * 10_000, 100.0) for i in range(5)])
        sim = CampaignSimulator(batch, schedule(), {"car-a": 30})
        result = sim.run(
            NaivePolicy(), CampaignConfig(update_bytes=120e6, window_days=1)
        )
        outcome = result.outcomes["car-a"]
        assert outcome.complete
        assert outcome.opportunities_used == 3

    def test_incomplete_when_window_too_small(self):
        batch = CDRBatch([rec(0, 10.0)])
        sim = CampaignSimulator(batch, schedule(), {"car-a": 1})
        result = sim.run(
            NaivePolicy(), CampaignConfig(update_bytes=1e9, window_days=1)
        )
        assert not result.outcomes["car-a"].complete
        assert result.completion_rate == 0.0

    def test_records_outside_window_ignored(self):
        batch = CDRBatch([rec(40 * DAY, 600.0)])
        sim = CampaignSimulator(batch, schedule(), {"car-a": 1})
        result = sim.run(
            NaivePolicy(), CampaignConfig(update_bytes=1e6, window_days=28)
        )
        assert result.outcomes["car-a"].transferred_bytes == 0.0

    def test_busy_bytes_accounted(self):
        batch = CDRBatch([rec(0, 600.0)])
        sim = CampaignSimulator(batch, schedule(always_busy=True), {"car-a": 30})
        result = sim.run(NaivePolicy(), CampaignConfig(update_bytes=10e6, window_days=1))
        outcome = result.outcomes["car-a"]
        assert outcome.busy_bytes == pytest.approx(outcome.transferred_bytes)
        assert result.busy_byte_fraction == pytest.approx(1.0)

    def test_busy_rate_slower(self):
        cfg = CampaignConfig(update_bytes=1e9, window_days=1, busy_rate_factor=0.25)
        quiet_batch = CDRBatch([rec(0, 600.0)])
        busy_batch = CDRBatch([rec(0, 600.0)])
        quiet = CampaignSimulator(quiet_batch, schedule(False), {"car-a": 1}).run(
            NaivePolicy(), cfg
        )
        busy = CampaignSimulator(busy_batch, schedule(True), {"car-a": 1}).run(
            NaivePolicy(), cfg
        )
        assert busy.outcomes["car-a"].transferred_bytes == pytest.approx(
            quiet.outcomes["car-a"].transferred_bytes * 0.25
        )

    def test_off_peak_skips_busy_connection(self):
        batch = CDRBatch([rec(0, 600.0)])
        sim = CampaignSimulator(batch, schedule(always_busy=True), {"car-a": 30})
        result = sim.run(
            OffPeakPolicy(), CampaignConfig(update_bytes=10e6, window_days=1)
        )
        outcome = result.outcomes["car-a"]
        assert outcome.transferred_bytes == 0.0
        assert outcome.opportunities_skipped == 1

    def test_completion_time_within_window(self):
        batch = CDRBatch([rec(100.0, 600.0)])
        sim = CampaignSimulator(batch, schedule(), {"car-a": 30})
        result = sim.run(NaivePolicy(), CampaignConfig(update_bytes=1e6, window_days=1))
        t = result.outcomes["car-a"].completion_time
        assert 100.0 < t <= DAY


class TestOnGeneratedTrace:
    @pytest.fixture(scope="class")
    def sim_inputs(self, dataset):
        pre = preprocess(dataset.batch)
        sched = BusySchedule.from_load_model(dataset.load_model)
        days = days_on_network(pre.full, dataset.clock)
        return pre, sched, days

    def test_policies_trade_completion_for_impact(self, sim_inputs, dataset):
        pre, sched, days = sim_inputs
        sim = CampaignSimulator(pre.truncated, sched, days, seed=1)
        cfg = CampaignConfig(
            update_bytes=150e6, window_days=dataset.clock.n_days
        )
        naive = sim.run(NaivePolicy(), cfg)
        aware = sim.run(BusyAwarePolicy(), cfg)
        # The managed policy all but eliminates busy-cell bytes (a sliver
        # can remain when a mostly-quiet connection crosses a busy bin)...
        assert naive.busy_byte_fraction > 0.0
        assert aware.busy_byte_fraction < 0.2 * naive.busy_byte_fraction
        # ...and pays at most a modest completion-rate penalty.
        assert aware.completion_rate >= naive.completion_rate - 0.25

    def test_all_cars_have_outcomes(self, sim_inputs, dataset):
        pre, sched, days = sim_inputs
        sim = CampaignSimulator(pre.truncated, sched, days)
        result = sim.run(NaivePolicy(), CampaignConfig(window_days=7))
        assert result.n_cars == len(pre.truncated.car_ids())

    def test_construction_builds_every_mask_in_bulk(
        self, sim_inputs, dataset, monkeypatch
    ):
        # Campaigns read masks record by record: the simulator builds the
        # whole calendar up front, so neither campaign builds one.
        pre, _, days = sim_inputs
        built = []
        series_block = CellLoadModel.series_block

        def spy(model, cell_ids, study_days):
            built.append(len(cell_ids))
            return series_block(model, cell_ids, study_days)

        monkeypatch.setattr(CellLoadModel, "series_block", spy)
        schedule = BusySchedule.from_load_model(dataset.load_model)
        sim = CampaignSimulator(pre.truncated, schedule, days)
        n_cells = len(dataset.topology.cells)
        assert sum(built) == n_cells * dataset.clock.n_days
        built.clear()
        cfg = CampaignConfig(update_bytes=150e6, window_days=dataset.clock.n_days)
        sim.run(NaivePolicy(), cfg)
        sim.run_throttled(NaivePolicy(), cfg, 5)
        assert built == []
