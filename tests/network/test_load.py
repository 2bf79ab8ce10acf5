"""Unit tests for the PRB utilization model."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.algorithms.timebins import BIN_SECONDS, BINS_PER_DAY, BINS_PER_WEEK, DAY, StudyClock
from repro.network.load import (
    CellLoadModel,
    LoadProfile,
    weekday_shape,
    weekend_shape,
)


class TestShapes:
    def test_shapes_normalized(self):
        for shape in (weekday_shape(), weekend_shape()):
            assert shape.shape == (BINS_PER_DAY,)
            assert shape.max() == pytest.approx(1.0)
            assert shape.min() >= 0

    def test_weekday_evening_peak(self):
        shape = weekday_shape()
        evening = shape[int(18 * 4) : int(22 * 4)].mean()
        overnight = shape[int(2 * 4) : int(5 * 4)].mean()
        assert evening > 2 * overnight

    def test_weekday_morning_bump(self):
        shape = weekday_shape()
        assert shape[8 * 4] > shape[5 * 4]


class TestLoadProfile:
    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            LoadProfile(floor=0.9, ceiling=0.5, hot=False)
        with pytest.raises(ValueError):
            LoadProfile(floor=-0.1, ceiling=0.5, hot=False)


class TestCellLoadModel:
    def test_every_cell_has_profile(self, topology, load_model):
        for cell_id in topology.cells:
            prof = load_model.profile(cell_id)
            assert 0 <= prof.floor <= prof.ceiling <= 1

    def test_weekly_template_shape(self, load_model, topology):
        cid = next(iter(topology.cells))
        template = load_model.weekly_template(cid)
        assert template.shape == (BINS_PER_WEEK,)
        assert (template >= 0).all() and (template <= 1).all()

    def test_day_series_bounds(self, load_model, topology):
        cid = next(iter(topology.cells))
        series = load_model.day_series(cid, 0)
        assert series.shape == (BINS_PER_DAY,)
        assert (series >= 0.01).all() and (series <= 1.0).all()

    def test_deterministic(self, topology, clock):
        m1 = CellLoadModel(topology, clock, seed=5)
        m2 = CellLoadModel(topology, clock, seed=5)
        cid = next(iter(topology.cells))
        assert np.array_equal(m1.day_series(cid, 3), m2.day_series(cid, 3))

    def test_different_seed_differs(self, topology, clock, load_model):
        other = CellLoadModel(topology, clock, seed=6)
        cid = next(iter(topology.cells))
        assert not np.array_equal(
            other.day_series(cid, 3), load_model.day_series(cid, 3)
        )

    def test_utilization_matches_series(self, load_model, topology):
        cid = next(iter(topology.cells))
        t = 2 * DAY + 5 * BIN_SECONDS + 17.0
        assert load_model.utilization(cid, t) == pytest.approx(
            load_model.day_series(cid, 2)[5]
        )

    @pytest.mark.parametrize("start_weekday", [0, 4, 6])
    def test_series_block_is_bit_identical_to_day_series(
        self, topology, start_weekday
    ):
        # Each bin's value is a function of its own word: any block, in any
        # order, gives each pair the row day_series gives it.
        clock = StudyClock(start_weekday=start_weekday, n_days=9)
        model = CellLoadModel(topology, clock, seed=2**40)
        cells = sorted(topology.cells)[::97]
        # Whole calendars, cell-major, as a full mask build asks for them...
        cell_ids = np.repeat(cells, 9)
        days = np.tile(np.arange(9), len(cells))
        expected = np.stack(
            [model.day_series(c, d) for c, d in zip(cell_ids.tolist(), days.tolist())]
        )
        assert model.series_block(cell_ids, days).tobytes() == expected.tobytes()
        # ...and the same pairs shuffled, as scattered requests arrive.
        order = np.random.default_rng(start_weekday).permutation(cell_ids.size)
        shuffled = model.series_block(cell_ids[order], days[order])
        assert shuffled.tobytes() == expected[order].tobytes()
        masks = model.busy_block(cell_ids, days, 0.8)
        assert np.array_equal(masks, expected > 0.8)
        assert np.array_equal(
            model.busy_block(cell_ids[order], days[order], 0.8), masks[order]
        )

    @pytest.mark.parametrize("threshold", [0.005, 0.01, 0.5, 0.99, 1.0, 1.2])
    def test_masks_follow_the_clipped_series_at_any_threshold(
        self, load_model, topology, threshold
    ):
        cells = np.repeat(sorted(topology.cells)[::40], 3)
        days = np.tile(np.arange(3), cells.size // 3)
        series = load_model.series_block(cells, days)
        masks = load_model.busy_block(cells, days, threshold)
        clear = np.abs(series - threshold) > 1e-9
        assert np.array_equal(masks[clear], series[clear] > threshold)

    def test_series_block_of_no_pairs_is_empty(self, load_model):
        empty = np.zeros(0, dtype=np.int64)
        assert load_model.series_block(empty, empty).shape == (0, BINS_PER_DAY)
        assert load_model.busy_block(empty, empty, 0.8).shape == (0, BINS_PER_DAY)

    def test_series_block_rejects_unpaired_arrays(self, load_model, topology):
        cell = min(topology.cells)
        with pytest.raises(ValueError, match="equal-length"):
            load_model.series_block(np.asarray([cell, cell]), np.asarray([0]))
        with pytest.raises(ValueError, match="equal-length"):
            load_model.busy_block(np.asarray([cell, cell]), np.asarray([0]), 0.8)
        with pytest.raises(ValueError, match="equal-length"):
            load_model.busy_block(np.asarray([[cell]]), np.asarray([[0]]), 0.8)

    @pytest.mark.parametrize("seed", [-1, 2**110])
    def test_seed_outside_bulk_seeding_range_rejected(self, topology, clock, seed):
        with pytest.raises(ValueError, match="2\\*\\*64"):
            CellLoadModel(topology, clock, seed=seed)

    def test_largest_seed_is_accepted(self, topology, clock):
        model = CellLoadModel(topology, clock, seed=2**64 - 1)
        cell = min(topology.cells)
        assert model.day_series(cell, 0).shape == (BINS_PER_DAY,)

    @pytest.mark.parametrize("cell_id", [-1, 2**40])
    def test_cell_id_outside_the_noise_key_rejected(self, clock, cell_id):
        # The range check runs before any profile is drawn.
        topology = SimpleNamespace(cells={0: None, cell_id: None})
        with pytest.raises(ValueError, match="2\\*\\*40"):
            CellLoadModel(topology, clock)

    def test_study_longer_than_the_noise_key_rejected(self, topology):
        with pytest.raises(ValueError, match="2\\*\\*16"):
            CellLoadModel(topology, StudyClock(n_days=2**16 + 1))

    @pytest.mark.parametrize("day", [-1, 2**16])
    def test_days_outside_the_noise_key_rejected(self, load_model, topology, day):
        cell = np.asarray([min(topology.cells)])
        with pytest.raises(ValueError, match="2\\*\\*16"):
            load_model.series_block(cell, np.asarray([day]))
        with pytest.raises(ValueError, match="2\\*\\*16"):
            load_model.busy_block(cell, np.asarray([day]), 0.8)

    def test_nonpositive_noise_rejected(self, topology, clock):
        with pytest.raises(ValueError, match="noise_std"):
            CellLoadModel(topology, clock, noise_std=0.0)

    def test_hot_cells_exist_and_are_busier(self, load_model, topology):
        hot = [c for c in topology.cells if load_model.profile(c).hot]
        cold = [c for c in topology.cells if not load_model.profile(c).hot]
        assert hot and cold
        hot_mean = np.mean([load_model.mean_weekly_utilization(c) for c in hot])
        cold_mean = np.mean([load_model.mean_weekly_utilization(c) for c in cold])
        assert hot_mean > cold_mean + 0.2

    def test_hotness_is_per_site(self, load_model, topology):
        for site in topology.sites:
            flags = {load_model.profile(c.cell_id).hot for c in site.cells}
            assert len(flags) == 1

    def test_busy_cell_ids_threshold(self, load_model):
        busy = load_model.busy_cell_ids(0.70)
        assert busy
        for cid in busy:
            assert load_model.mean_weekly_utilization(cid) >= 0.70

    def test_busy_cell_ids_match_per_cell_means(self, topology):
        # A fresh model, so the per-cell means below fill the template
        # cache only after busy_cell_ids has run without it.
        model = CellLoadModel(topology, StudyClock(n_days=14), seed=5)
        cells = sorted(topology.cells)
        assert model.busy_cell_ids(0.0) == cells
        assert not model._templates
        means = {cid: model.mean_weekly_utilization(cid) for cid in cells}
        edge = means[cells[len(cells) // 2]]
        for threshold in (0.5, 0.7, edge, float(np.nextafter(edge, 1.0)), 1.01):
            expected = [cid for cid in cells if means[cid] >= threshold]
            assert model.busy_cell_ids(threshold) == expected
        # The threshold equal to one cell's mean keeps that cell.
        assert cells[len(cells) // 2] in model.busy_cell_ids(edge)

    def test_weekend_profile_differs(self, load_model, topology):
        cid = next(iter(topology.cells))
        template = load_model.weekly_template(cid)
        monday = template[:BINS_PER_DAY]
        saturday = template[5 * BINS_PER_DAY : 6 * BINS_PER_DAY]
        assert not np.allclose(monday, saturday)
