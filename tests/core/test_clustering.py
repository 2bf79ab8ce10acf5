"""Unit tests for busy-radio clustering (Figure 11)."""

import math
import warnings

import numpy as np
import pytest

from repro.algorithms.timebins import DAY
from repro.cdr.records import CDRBatch, ConnectionRecord
from repro.core.clustering import cluster_busy_cells, cluster_vectors, select_busy_cells
from repro.core.report import format_ratio


def rec(start, car, cell, dur=120.0):
    return ConnectionRecord(
        start=start, car_id=car, cell_id=cell, carrier="C3", technology="4G", duration=dur
    )


def synthetic_batch(busy_cells, clock, cars_per_bin_by_cell):
    """Records giving each cell a controllable concurrency level.

    ``cars_per_bin_by_cell[cell]`` cars connect in the 18:00 bin of every
    study day.
    """
    records = []
    for cell in busy_cells:
        n = cars_per_bin_by_cell[cell]
        for day in range(clock.n_days):
            t = day * DAY + 18 * 3600
            for i in range(n):
                records.append(rec(t, car=f"car-{cell}-{i}", cell=cell))
    return CDRBatch(records)


class TestSelectBusyCells:
    def test_matches_load_model(self, load_model):
        cells = select_busy_cells(load_model, 0.70)
        assert cells == load_model.busy_cell_ids(0.70)
        assert cells


class TestClusterBusyCells:
    def test_two_level_structure_recovered(self, load_model, clock):
        busy = select_busy_cells(load_model, 0.70)
        assert len(busy) >= 4
        # Give the first quarter of busy cells 5x the concurrency.
        high = set(busy[: max(1, len(busy) // 4)])
        levels = {c: (10 if c in high else 2) for c in busy}
        batch = synthetic_batch(busy, clock, levels)
        clusters = cluster_busy_cells(batch, load_model, clock, k=2)
        assert clusters.k == 2
        # The high-level cluster contains exactly the high cells.
        assert set(clusters.cluster_cells(1)) == high
        assert clusters.level(1) > clusters.level(0)

    def test_level_ratio_reflects_input(self, load_model, clock):
        busy = select_busy_cells(load_model, 0.70)
        high = set(busy[: max(1, len(busy) // 4)])
        levels = {c: (10 if c in high else 2) for c in busy}
        batch = synthetic_batch(busy, clock, levels)
        clusters = cluster_busy_cells(batch, load_model, clock, k=2)
        assert clusters.level_ratio() == pytest.approx(5.0, rel=0.3)

    def test_size_ratio(self, load_model, clock):
        busy = select_busy_cells(load_model, 0.70)
        n_high = max(1, len(busy) // 4)
        levels = {c: (10 if c in set(busy[:n_high]) else 2) for c in busy}
        batch = synthetic_batch(busy, clock, levels)
        clusters = cluster_busy_cells(batch, load_model, clock, k=2)
        assert clusters.size_ratio() == pytest.approx(
            (len(busy) - n_high) / n_high, rel=0.2
        )

    def test_cells_without_records_get_zero_vectors(self, load_model, clock):
        busy = select_busy_cells(load_model, 0.70)
        levels = {c: 0 for c in busy}
        levels[busy[0]] = 5
        batch = synthetic_batch([busy[0]], clock, levels)
        clusters = cluster_busy_cells(batch, load_model, clock, k=2)
        assert clusters.vectors.shape == (len(busy), 672)
        # All-zero cells cluster together at level ~0.
        assert clusters.level(0) == pytest.approx(0.0, abs=1e-9)

    def test_raises_when_too_few_busy_cells(self, load_model, clock):
        batch = CDRBatch([])
        with pytest.raises(ValueError):
            cluster_busy_cells(batch, load_model, clock, k=2, mean_threshold=1.01)

    def test_shape_correlation_of_identical_shapes(self, load_model, clock):
        busy = select_busy_cells(load_model, 0.70)
        high = set(busy[: max(1, len(busy) // 4)])
        levels = {c: (10 if c in high else 2) for c in busy}
        batch = synthetic_batch(busy, clock, levels)
        clusters = cluster_busy_cells(batch, load_model, clock, k=2)
        # Same diurnal placement, different level -> near-perfect correlation.
        assert clusters.shape_correlation() > 0.99


class TestEmptyCluster:
    """Identical vectors (no rows on any busy cell) leave one cluster empty."""

    @pytest.fixture()
    def clusters(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return cluster_vectors([1, 2, 3], np.zeros((3, 672)), k=2)

    def test_one_cluster_is_empty(self, clusters):
        assert sorted(clusters.size(rank) for rank in range(2)) == [0, 3]

    def test_statistics_are_quiet_and_scored_like_cluster_vectors(self, clusters):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for rank in range(2):
                assert clusters.cluster_mean_vector(rank).tolist() == [0.0] * 672
                assert clusters.level(rank) == 0.0
            assert clusters.shape_correlation() == 0.0
            # Callers compare the raw ratios; only their rendering changes.
            assert clusters.level_ratio() == math.inf
            assert clusters.size_ratio() == math.inf

    def test_non_finite_ratios_render_as_not_available(self):
        assert format_ratio(math.inf, "x") == "n/a"
        assert format_ratio(math.nan, "×") == "n/a"
        assert format_ratio(4.96, "x") == "5.0x"
