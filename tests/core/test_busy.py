"""Unit tests for busy-cell exposure (Figure 7)."""

from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.busy as busy_module
from repro.algorithms.timebins import BIN_SECONDS, BINS_PER_DAY, DAY, StudyClock
from repro.cdr.records import CDRBatch, ConnectionRecord
from repro.core.busy import BUSY_THRESHOLD, BusyExposure, BusySchedule, busy_exposure
from repro.core.fused import FusedEngine, busy_exposure_fused
from repro.core.preprocess import preprocess
from repro.core.report import format_report
from repro.network.load import CellLoadModel
from repro.network.topology import TopologyConfig, build_topology


def rec(start, dur, car="car-a", cell=1):
    return ConnectionRecord(
        start=start, car_id=car, cell_id=cell, carrier="C3", technology="4G", duration=dur
    )


def schedule_with(cell_masks):
    """BusySchedule from explicit per-cell boolean bin masks."""
    series = {
        cid: np.where(np.asarray(mask, dtype=bool), 0.9, 0.1)
        for cid, mask in cell_masks.items()
    }
    return BusySchedule.from_series(series)


class TestBusySchedule:
    def test_threshold_validated(self):
        with pytest.raises(ValueError):
            BusySchedule({}, threshold=0.0)

    def test_from_series(self):
        sched = BusySchedule.from_series({1: np.asarray([0.9, 0.5])})
        assert sched.is_busy(1, 0)
        assert not sched.is_busy(1, 1)

    def test_unknown_cell_never_busy(self):
        sched = schedule_with({1: [True]})
        assert not sched.is_busy(99, 0)
        assert sched.busy_mask(99) is None

    def test_out_of_range_bin_not_busy(self):
        sched = schedule_with({1: [True]})
        assert not sched.is_busy(1, 5)
        assert not sched.is_busy(1, -1)

    def test_from_load_model(self, load_model):
        sched = BusySchedule.from_load_model(load_model)
        cid = load_model.busy_cell_ids(0.7)[0]
        assert sched.busy_mask(cid).any()

    def test_masks_and_model_are_exclusive(self, load_model):
        with pytest.raises(ValueError, match="not both"):
            BusySchedule({1: np.ones(2, dtype=bool)}, model=load_model)

    def test_from_series_table_pads_ragged_masks(self):
        sched = BusySchedule.from_series(
            {7: np.asarray([0.9, 0.1, 0.95]), 2: np.asarray([0.85])}
        )
        cell_ids, lens, grid = sched.mask_table()
        assert cell_ids.tolist() == [2, 7]
        assert lens.tolist() == [1, 3]
        assert grid.tolist() == [[True, False, False], [True, False, True]]
        assert sched.busy_mask(7).tolist() == [True, False, True]


@pytest.fixture(scope="module")
def small_topology():
    """114 cells, hot district included."""
    return build_topology(
        TopologyConfig(
            width_km=12.0, height_km=12.0, urban_radius_km=3.0, suburban_radius_km=5.0
        )
    )


def oracle_masks(model, cell_ids, n_days):
    """Busy masks from the series, one ``day_series`` per (cell, day)."""
    return np.stack(
        [
            np.concatenate([model.day_series(c, d) for d in range(n_days)])
            > BUSY_THRESHOLD
            for c in cell_ids
        ]
    )


class TestModelMaskTable:
    # Small and large load seeds; weekdays 4-6 start the study next to or
    # on a weekend.
    @pytest.mark.parametrize("seed", [11, 2**20, 2**40])
    @pytest.mark.parametrize("n_days", [1, 7, 45])
    @pytest.mark.parametrize("start_weekday", [0, 4, 5, 6])
    def test_grid_rows_equal_day_series_oracle(
        self, small_topology, start_weekday, n_days, seed
    ):
        clock = StudyClock(start_weekday=start_weekday, n_days=n_days)
        model = CellLoadModel(small_topology, clock, seed=seed)
        cell_ids, lens, grid = BusySchedule.from_load_model(model).mask_table()
        assert cell_ids.tolist() == sorted(small_topology.cells)
        assert lens.tolist() == [n_days * BINS_PER_DAY] * len(cell_ids)
        assert grid.dtype == np.bool_
        assert np.array_equal(grid, oracle_masks(model, cell_ids.tolist(), n_days))

    def test_busy_mask_is_the_grid_row(self, small_topology):
        model = CellLoadModel(small_topology, StudyClock(n_days=3), seed=11)
        sched = BusySchedule.from_load_model(model)
        cell_ids, _, grid = sched.mask_table()
        for row, cell_id in enumerate(cell_ids.tolist()):
            mask = sched.busy_mask(cell_id)
            assert np.shares_memory(mask, grid)
            assert np.array_equal(mask, grid[row])
        assert sched.busy_mask(int(cell_ids.max()) + 1) is None
        assert sched.mask_table()[2] is grid

    def test_busy_mask_first_builds_the_one_grid(self, small_topology):
        model = CellLoadModel(small_topology, StudyClock(n_days=2), seed=11)
        sched = BusySchedule.from_load_model(model)
        cell_id = min(small_topology.cells)
        mask = sched.busy_mask(cell_id)
        # Only the asked cell's calendar is built...
        assert sched._built[0].all() and not sched._built[1:].any()
        assert sched.busy_mask(cell_id) is mask
        # ...into the row of the one grid the rest is later built into.
        _, _, grid = sched.mask_table()
        assert sched._built.all()
        assert np.shares_memory(mask, grid)
        assert np.array_equal(mask, oracle_masks(model, [cell_id], 2)[0])


DEMAND_DAYS = 9


@pytest.fixture(scope="module")
def demand_model(small_topology):
    """A study that starts on a Friday, under a large load seed."""
    clock = StudyClock(start_weekday=4, n_days=DEMAND_DAYS)
    return CellLoadModel(small_topology, clock, seed=2**40)


@pytest.fixture(scope="module")
def demand_oracle(demand_model):
    """``(n_cells, n_days, 96)`` masks from ``day_series``, directory order."""
    cells = sorted(demand_model.topology.cells)
    masks = oracle_masks(demand_model, cells, DEMAND_DAYS)
    return masks.reshape(len(cells), DEMAND_DAYS, BINS_PER_DAY)


def demand_batch(cells, seed, n_rows=160):
    """Rows around day boundaries on known and unknown cells, inside and
    outside the study, ghosts and over-cap durations included."""
    rng = np.random.default_rng(seed)
    pool = sorted(cells) + [10**6, 10**6 + 1]
    day = rng.integers(-1, DEMAND_DAYS + 1, n_rows)
    offset = np.where(
        rng.random(n_rows) < 0.3,
        DAY - rng.uniform(0.0, 700.0, n_rows),
        rng.uniform(0.0, DAY, n_rows),
    )
    duration = rng.choice([0.0, 30.0, 450.0, 900.0, 2000.0, 3600.0], n_rows)
    return CDRBatch(
        [
            ConnectionRecord(
                start=float(d * DAY + o),
                car_id=f"car-{i % 7}",
                cell_id=int(pool[rng.integers(len(pool))]),
                carrier="C3",
                technology="4G",
                duration=float(dur),
            )
            for i, (d, o, dur) in enumerate(zip(day, offset, duration))
        ]
    )


def pairs_read(batch, cells):
    """(directory position, study day) of every mask bin the reference
    ``busy_exposure`` reads for the batch's cleaned, truncated records."""
    rows = {cell_id: row for row, cell_id in enumerate(sorted(cells))}
    pairs = set()
    for rec in preprocess(batch).truncated:
        if rec.cell_id in rows:
            for b in rec.interval.bins_straddled(BIN_SECONDS):
                if 0 <= b < DEMAND_DAYS * BINS_PER_DAY:
                    pairs.add((rows[rec.cell_id], b // BINS_PER_DAY))
    return pairs


def built_pairs(sched):
    return set(zip(*(axis.tolist() for axis in np.nonzero(sched._built))))


class TestCounterDraw:
    """A bin's mask is the compare behind its series value: one word each."""

    @pytest.mark.parametrize("threshold", [0.70, 0.80, 0.90])
    def test_masks_agree_with_series_away_from_the_threshold(
        self, small_topology, threshold
    ):
        clock = StudyClock(start_weekday=3, n_days=14)
        model = CellLoadModel(small_topology, clock, seed=11)
        sched = BusySchedule.from_load_model(model, threshold)
        cell_ids, _, grid = sched.mask_table()
        cells = np.repeat(cell_ids, clock.n_days)
        days = np.tile(np.arange(clock.n_days), cell_ids.size)
        series = model.series_block(cells, days).reshape(grid.shape)
        clear = np.abs(series - threshold) > 1e-9
        assert 0 < grid.mean() < 1 and clear.mean() > 0.999
        assert np.array_equal(grid[clear], series[clear] > threshold)

    def test_busy_rate_matches_the_busy_probability(self, small_topology):
        from statistics import NormalDist

        clock = StudyClock(start_weekday=0, n_days=2**12)
        model = CellLoadModel(small_topology, clock, seed=7)
        weekdays = np.flatnonzero(np.arange(clock.n_days) % 7 < 5)
        tested = 0
        for cell in sorted(small_topology.cells):
            monday = model.weekly_template(cell)[:BINS_PER_DAY]
            z = (BUSY_THRESHOLD - monday) / model.noise_std
            probs = np.asarray([1.0 - NormalDist().cdf(v) for v in z.tolist()])
            bins = np.flatnonzero((probs > 0.2) & (probs < 0.8))
            if bins.size == 0:
                continue
            masks = model.busy_block(
                np.full(weekdays.size, cell), weekdays, BUSY_THRESHOLD
            )
            for b, p in zip(bins[:2].tolist(), probs[bins[:2]].tolist()):
                n = weekdays.size
                sigma = (n * p * (1.0 - p)) ** 0.5
                assert abs(int(masks[:, b].sum()) - n * p) <= 4 * sigma
                tested += 1
            if tested >= 6:
                break
        assert tested >= 6

    def test_noise_is_standard_normal_where_no_clip_reaches(self, small_topology):
        clock = StudyClock(n_days=28)
        model = CellLoadModel(small_topology, clock, seed=3)
        cells = np.repeat(sorted(small_topology.cells), clock.n_days)
        days = np.tile(np.arange(clock.n_days), len(small_topology.cells))
        series = model.series_block(cells, days)
        weeks = {
            c: model.weekly_template(c).reshape(7, BINS_PER_DAY)
            for c in small_topology.cells
        }
        weekday = (days + clock.start_weekday) % 7
        base = np.stack(
            [weeks[c][w] for c, w in zip(cells.tolist(), weekday.tolist())]
        )
        inside = (base > 0.2) & (base < 0.8)
        z = (series[inside] - base[inside]) / model.noise_std
        assert z.size > 100_000
        assert abs(z.mean()) < 4 / z.size**0.5
        assert abs(z.std() - 1.0) < 0.01
        assert abs((z > 1.645).mean() - 0.05) < 0.003

    def test_a_pair_is_the_same_in_any_block(self, demand_model, demand_oracle):
        rng = np.random.default_rng(5)
        cells = np.asarray(sorted(demand_model.topology.cells))
        pos = rng.integers(0, cells.size, 200)
        days = rng.integers(0, DEMAND_DAYS, 200)
        block = demand_model.busy_block(cells[pos], days, BUSY_THRESHOLD)
        assert np.array_equal(block, demand_oracle[pos, days])
        order = rng.permutation(pos.size)
        assert np.array_equal(
            demand_model.busy_block(cells[pos[order]], days[order], BUSY_THRESHOLD),
            block[order],
        )
        for i in range(0, pos.size, 37):
            one = demand_model.busy_block(cells[pos[i : i + 1]], days[i : i + 1], 0.8)
            assert np.array_equal(one[0], block[i])


class TestOnDemandMasks:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_random_requests_build_exactly_the_oracle_pairs(
        self, demand_model, demand_oracle, data
    ):
        n_cells = demand_oracle.shape[0]
        pair = st.tuples(
            st.integers(0, n_cells - 1), st.integers(0, DEMAND_DAYS - 1)
        )
        batches = data.draw(st.lists(st.lists(pair, max_size=60), max_size=6))
        block = data.draw(st.integers(1, 50))
        sched = BusySchedule.from_load_model(demand_model)
        requested = np.zeros((n_cells, DEMAND_DAYS), dtype=bool)
        with patch.object(busy_module, "MASK_BLOCK_PAIRS", block):
            for batch in batches:
                positions = np.asarray([p for p, _ in batch], dtype=np.int64)
                days = np.asarray([d for _, d in batch], dtype=np.int64)
                _, _, grid = sched.mask_table(positions, days)
                requested[positions, days] = True
                by_day = grid.reshape(n_cells, DEMAND_DAYS, BINS_PER_DAY)
                assert np.array_equal(sched._built, requested)
                assert by_day[requested].tobytes() == demand_oracle[requested].tobytes()
                assert not by_day[~requested].any()
            _, _, grid = sched.mask_table()
        assert sched._built.all()
        assert grid.tobytes() == demand_oracle.tobytes()

    def test_days_outside_the_study_are_rejected(self, demand_model):
        sched = BusySchedule.from_load_model(demand_model)
        for day in (-1, DEMAND_DAYS):
            with pytest.raises(ValueError, match="study days"):
                sched.mask_table(np.asarray([0]), np.asarray([day]))
        with pytest.raises(ValueError, match="together"):
            sched.mask_table(np.asarray([0]))
        assert not sched._built.any()

    def test_directory_builds_nothing(self, demand_model, small_topology):
        sched = BusySchedule.from_load_model(demand_model)
        cell_ids, lens = sched.directory()
        assert cell_ids.tolist() == sorted(small_topology.cells)
        assert lens.tolist() == [DEMAND_DAYS * BINS_PER_DAY] * len(cell_ids)
        assert not sched._built.any()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_kernel_builds_exactly_the_pairs_its_fragments_read(
        self, demand_model, small_topology, seed
    ):
        batch = demand_batch(small_topology.cells, seed)
        sched = BusySchedule.from_load_model(demand_model)
        busy_exposure_fused(preprocess(batch).full.columnar(), sched)
        expected = pairs_read(batch, small_topology.cells)
        assert 0 < len(expected) < sched._built.size
        assert built_pairs(sched) == expected

    @pytest.mark.parametrize("seed", [0, 1])
    def test_fresh_and_warm_schedules_give_identical_results(
        self, demand_model, small_topology, seed
    ):
        batch = demand_batch(small_topology.cells, seed)
        pre = preprocess(batch)
        warm = BusySchedule.from_load_model(demand_model)
        warm.mask_table()
        want = busy_exposure_fused(pre.full.columnar(), warm)
        got = busy_exposure_fused(pre.full.columnar(), BusySchedule.from_load_model(demand_model))
        assert got.car_ids == want.car_ids
        assert got.busy_share.tobytes() == want.busy_share.tobytes()
        assert got.nonbusy_share.tobytes() == want.nonbusy_share.tobytes()
        ref = busy_exposure(pre.truncated, warm)
        assert got.busy_share.tobytes() == ref.busy_share.tobytes()

        raw = batch.columnar()
        clock = demand_model.clock
        for size in (1, 7, len(raw)):
            reports = []
            for sched in (BusySchedule.from_load_model(demand_model), warm):
                engine = FusedEngine(clock, schedule=sched, cells=small_topology.cells)
                for lo in range(0, len(raw), size):
                    engine.consume(raw.rows(lo, min(lo + size, len(raw))))
                reports.append(engine.finalize())
            fresh, warmed = reports
            assert format_report(fresh) == format_report(warmed)
            assert fresh.exposure.busy_share.tobytes() == warmed.exposure.busy_share.tobytes()
            assert fresh.exposure.nonbusy_share.tobytes() == (
                warmed.exposure.nonbusy_share.tobytes()
            )


class TestBusyExposure:
    def test_all_time_busy(self):
        sched = schedule_with({1: [True, True]})
        batch = CDRBatch([rec(0, 2 * BIN_SECONDS)])
        exposure = busy_exposure(batch, sched)
        assert exposure.busy_share[0] == pytest.approx(1.0)
        assert exposure.fraction_all_busy() == 1.0

    def test_no_time_busy(self):
        sched = schedule_with({1: [False, False]})
        batch = CDRBatch([rec(0, 2 * BIN_SECONDS)])
        exposure = busy_exposure(batch, sched)
        assert exposure.busy_share[0] == 0.0
        assert exposure.nonbusy_share[0] == pytest.approx(1.0)

    def test_split_across_bins(self):
        # Busy in bin 0 only; record covers bins 0 and 1 equally.
        sched = schedule_with({1: [True, False]})
        batch = CDRBatch([rec(0, 2 * BIN_SECONDS)])
        exposure = busy_exposure(batch, sched)
        assert exposure.busy_share[0] == pytest.approx(0.5)

    def test_partial_bin_overlap_weighted_by_seconds(self):
        # Record covers 300 s of busy bin 0 and 600 s of quiet bin 1.
        sched = schedule_with({1: [True, False]})
        batch = CDRBatch([rec(600.0, 900.0)])
        exposure = busy_exposure(batch, sched)
        assert exposure.busy_share[0] == pytest.approx(300.0 / 900.0)

    def test_multiple_cars(self):
        sched = schedule_with({1: [True], 2: [False]})
        batch = CDRBatch(
            [rec(0, 100.0, car="a", cell=1), rec(0, 100.0, car="b", cell=2)]
        )
        exposure = busy_exposure(batch, sched)
        shares = dict(zip(exposure.car_ids, exposure.busy_share))
        assert shares["a"] == pytest.approx(1.0)
        assert shares["b"] == 0.0

    def test_fraction_above(self):
        sched = schedule_with({1: [True], 2: [False]})
        batch = CDRBatch(
            [rec(0, 100.0, car="a", cell=1), rec(0, 100.0, car="b", cell=2)]
        )
        exposure = busy_exposure(batch, sched)
        assert exposure.fraction_above(0.5) == pytest.approx(0.5)

    def test_share_distribution_sums_to_one(self):
        sched = schedule_with({1: [True], 2: [False]})
        batch = CDRBatch(
            [rec(0, 50.0, car=f"car-{i}", cell=1 + i % 2) for i in range(10)]
        )
        exposure = busy_exposure(batch, sched)
        dist = exposure.share_distribution()
        assert dist.sum() == pytest.approx(1.0)
        assert dist.shape == (10,)

    def test_empty_batch(self):
        exposure = busy_exposure(CDRBatch([]), schedule_with({}))
        assert exposure.fraction_above(0.5) == 0.0
        assert exposure.fraction_all_busy() == 0.0

    def test_unknown_cell_counts_as_nonbusy(self):
        sched = schedule_with({})
        batch = CDRBatch([rec(0, 100.0, cell=42)])
        exposure = busy_exposure(batch, sched)
        assert exposure.busy_share[0] == 0.0


class TestFig7bZoom:
    def test_distribution_above_floor(self):
        exposure = BusyExposure(
            car_ids=["a", "b", "c", "d"],
            busy_share=np.asarray([0.55, 0.65, 0.95, 0.1]),
            nonbusy_share=np.asarray([0.45, 0.35, 0.05, 0.9]),
        )
        zoom = exposure.share_distribution_above(0.5)
        assert zoom.shape == (5,)
        assert zoom.sum() == pytest.approx(1.0)
        assert zoom[0] == pytest.approx(1 / 3)  # 0.55 in [0.5, 0.6)
        assert zoom[4] == pytest.approx(1 / 3)  # 0.95 in [0.9, 1.0]

    def test_empty_tail_all_zero(self):
        exposure = BusyExposure(
            car_ids=["a"],
            busy_share=np.asarray([0.1]),
            nonbusy_share=np.asarray([0.9]),
        )
        assert exposure.share_distribution_above(0.5).sum() == 0.0

    def test_floor_validated(self):
        exposure = BusyExposure(
            car_ids=[], busy_share=np.zeros(0), nonbusy_share=np.zeros(0)
        )
        with pytest.raises(ValueError):
            exposure.share_distribution_above(1.0)
