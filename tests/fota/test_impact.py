"""Tests for campaign impact assessment and throttled delivery."""

import numpy as np
import pytest

from repro.algorithms.timebins import BIN_SECONDS
from repro.cdr.records import CDRBatch, ConnectionRecord
from repro.core.busy import BusySchedule
from repro.core.preprocess import preprocess
from repro.core.segmentation import days_on_network
from repro.fota.campaign import CampaignConfig
from repro.fota.impact import assess_impact
from repro.fota.policy import BusyAwarePolicy, NaivePolicy, OffPeakPolicy, RareFirstPolicy
from repro.fota.simulator import CampaignSimulator


def rec(start, dur, car="car-a", cell=1):
    return ConnectionRecord(
        start=start, car_id=car, cell_id=cell, carrier="C3", technology="4G", duration=dur
    )


def quiet_schedule(n_bins=96 * 30):
    return BusySchedule.from_series({1: np.full(n_bins, 0.1)})


class TestThrottledSimulator:
    def test_cap_validated(self):
        sim = CampaignSimulator(CDRBatch([]), quiet_schedule(), {})
        with pytest.raises(ValueError):
            sim.run(NaivePolicy(), CampaignConfig(), 0)

    def test_cap_one_serializes_cell(self):
        # Three cars connect in the same cell and bin; cap 1 serves one.
        batch = CDRBatch(
            [rec(0, 300.0, car=f"car-{i}") for i in range(3)]
        )
        sim = CampaignSimulator(batch, quiet_schedule(), {f"car-{i}": 30 for i in range(3)})
        result = sim.run(
            NaivePolicy(), CampaignConfig(update_bytes=1e6, window_days=1), 1
        )
        served = sum(o.opportunities_used for o in result.outcomes.values())
        throttled = sum(o.opportunities_throttled for o in result.outcomes.values())
        assert served == 1
        assert throttled == 2

    def test_cap_not_binding_matches_unthrottled(self):
        batch = CDRBatch(
            [rec(i * 50_000, 300.0, car=f"car-{i}") for i in range(4)]
        )
        days = {f"car-{i}": 30 for i in range(4)}
        sim = CampaignSimulator(batch, quiet_schedule(), days)
        plain = sim.run(NaivePolicy(), CampaignConfig(update_bytes=1e6, window_days=28))
        capped = sim.run(
            NaivePolicy(), CampaignConfig(update_bytes=1e6, window_days=28), 10
        )
        assert capped.completion_rate == plain.completion_rate
        assert all(
            o.opportunities_throttled == 0 for o in capped.outcomes.values()
        )

    def test_throttling_reduces_completion_on_generated_trace(self, dataset):
        pre = preprocess(dataset.batch)
        schedule = BusySchedule.from_load_model(dataset.load_model)
        days = days_on_network(pre.full, dataset.clock)
        sim = CampaignSimulator(pre.truncated, schedule, days, seed=2)
        config = CampaignConfig(update_bytes=400e6, window_days=dataset.clock.n_days)
        plain = sim.run(NaivePolicy(), config)
        capped = sim.run(NaivePolicy(), config, max_concurrent_per_cell=1)
        assert capped.completion_rate <= plain.completion_rate
        total_throttled = sum(
            o.opportunities_throttled for o in capped.outcomes.values()
        )
        assert total_throttled > 0

    @pytest.mark.parametrize("update_mb", [50, 300, 2000])
    @pytest.mark.parametrize(
        "policy", [NaivePolicy, OffPeakPolicy, RareFirstPolicy, BusyAwarePolicy]
    )
    def test_cap_never_reached_changes_no_outcome(self, dataset, policy, update_mb):
        # The cap only refuses opportunities: one no car can reach leaves
        # every outcome, transfer events included, as the uncapped replay's.
        pre = preprocess(dataset.batch)
        schedule = BusySchedule.from_load_model(dataset.load_model)
        days = days_on_network(pre.full, dataset.clock)
        sim = CampaignSimulator(pre.truncated, schedule, days, seed=3)
        config = CampaignConfig(
            update_bytes=update_mb * 1e6, window_days=dataset.clock.n_days
        )
        plain = sim.run(policy(), config)
        capped = sim.run(policy(), config, max_concurrent_per_cell=10**9)
        assert capped.policy_name == f"{plain.policy_name}-throttled"
        assert capped.outcomes == plain.outcomes
        assert any(o.transfers for o in plain.outcomes.values())


class TestAssessImpact:
    def _run_campaign(self, dataset):
        pre = preprocess(dataset.batch)
        schedule = BusySchedule.from_load_model(dataset.load_model)
        days = days_on_network(pre.full, dataset.clock)
        sim = CampaignSimulator(pre.truncated, schedule, days, seed=4)
        config = CampaignConfig(update_bytes=300e6, window_days=dataset.clock.n_days)
        result = sim.run(NaivePolicy(), config)
        return result, pre

    def test_impact_fields_populated(self, dataset):
        result, pre = self._run_campaign(dataset)
        impact = assess_impact(
            result, dataset.topology.cells, dataset.load_model
        )
        assert impact.added_utilization
        assert 0 < impact.peak_added_utilization <= 1.0
        assert impact.peak_concurrency >= 1

    def test_concurrency_counts_overlapping_downloads(self, dataset):
        result, pre = self._run_campaign(dataset)
        impact = assess_impact(
            result, dataset.topology.cells, dataset.load_model
        )
        assert impact.bins_with_concurrency_at_least(2) <= impact.bins_with_concurrency_at_least(1)

    def test_newly_busy_bins_valid(self, dataset):
        result, pre = self._run_campaign(dataset)
        impact = assess_impact(
            result, dataset.topology.cells, dataset.load_model
        )
        for cell_id, b in impact.newly_busy_bins:
            assert cell_id in dataset.topology.cells
            base = dataset.load_model.utilization(cell_id, b * BIN_SECONDS)
            assert base <= 0.80

    def test_empty_campaign_no_impact(self, dataset):
        pre = preprocess(dataset.batch)
        schedule = BusySchedule.from_load_model(dataset.load_model)
        sim = CampaignSimulator(pre.truncated, schedule, {}, seed=0)
        # Window entirely outside the study: nothing transfers.
        config = CampaignConfig(start_day=2000, window_days=1)
        result = sim.run(NaivePolicy(), config)
        impact = assess_impact(
            result, dataset.topology.cells, dataset.load_model, config
        )
        assert impact.peak_added_utilization == 0.0
        assert impact.peak_concurrency == 0
