"""Unit tests for per-cell concurrency (Figures 8, 10 and 11)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.timebins import BIN_SECONDS, BINS_PER_WEEK, DAY, StudyClock
from repro.cdr.columnar import ColumnarCDRBatch
from repro.cdr.records import CDRBatch, ConnectionRecord
from repro.core.concurrency import (
    car_sessions_in_cell,
    cell_timeline,
    concurrency_counts,
    fold_to_day,
    weekly_concurrency,
    weekly_concurrency_fused,
)


def rec(start, dur=60.0, car="car-a", cell=1):
    return ConnectionRecord(
        start=start, car_id=car, cell_id=cell, carrier="C3", technology="4G", duration=dur
    )


class TestCarSessions:
    def test_per_car_aggregation(self):
        records = [rec(0), rec(70, car="car-a"), rec(0, car="car-b")]
        sessions = car_sessions_in_cell(records)
        assert len(sessions["car-a"]) == 1  # 10 s gap joins at 30 s rule
        assert len(sessions["car-b"]) == 1

    def test_large_gap_splits(self):
        sessions = car_sessions_in_cell([rec(0), rec(1000)])
        assert len(sessions["car-a"]) == 2


class TestConcurrencyCounts:
    def test_one_car_counts_once_per_bin(self):
        # Two fragmented connections of the same car in the same bin.
        counts = concurrency_counts([rec(0), rec(300)])
        assert counts[0] == 1

    def test_two_cars_in_same_bin(self):
        counts = concurrency_counts([rec(0), rec(0, car="car-b")])
        assert counts[0] == 2

    def test_straddling_connection_counts_in_both_bins(self):
        counts = concurrency_counts([rec(BIN_SECONDS - 30, dur=60.0)])
        assert counts[0] == 1
        assert counts[1] == 1

    def test_empty(self):
        assert concurrency_counts([]) == {}


class TestCellTimeline:
    def test_window_filtering(self):
        batch = CDRBatch(
            [rec(0), rec(2 * DAY, car="car-b"), rec(DAY // 2, car="car-c")]
        )
        tl = cell_timeline(batch, cell_id=1, start_day=0, n_days=1)
        assert tl.n_cars == 2
        assert set(tl.car_intervals) == {"car-a", "car-c"}

    def test_concurrency_series_shape(self):
        batch = CDRBatch([rec(0)])
        tl = cell_timeline(batch, 1, 0)
        assert tl.concurrency.shape == (96,)

    def test_max_concurrency_and_busiest_bin(self):
        batch = CDRBatch(
            [rec(10 * BIN_SECONDS, car=f"car-{i}") for i in range(5)]
        )
        tl = cell_timeline(batch, 1, 0)
        assert tl.max_concurrency == 5
        assert tl.busiest_bin == 10

    def test_record_clipped_to_window(self):
        batch = CDRBatch([rec(DAY - 30, dur=120.0)])
        tl = cell_timeline(batch, 1, 0, n_days=1)
        iv = tl.car_intervals["car-a"][0]
        assert iv.end == DAY

    def test_unknown_cell_empty(self):
        tl = cell_timeline(CDRBatch([rec(0)]), cell_id=99, start_day=0)
        assert tl.n_cars == 0
        assert tl.max_concurrency == 0

    def test_rejects_bad_n_days(self):
        with pytest.raises(ValueError):
            cell_timeline(CDRBatch([]), 1, 0, n_days=0)

    def test_multi_day_window(self):
        batch = CDRBatch([rec(0), rec(DAY + 10, car="car-b")])
        tl = cell_timeline(batch, 1, 0, n_days=2)
        assert tl.n_cars == 2
        assert tl.concurrency.shape == (192,)


class TestWeeklyConcurrency:
    def test_shape(self):
        clock = StudyClock(start_weekday=0, n_days=14)
        weekly = weekly_concurrency([rec(0)], clock)
        assert weekly.shape == (BINS_PER_WEEK,)

    def test_averages_over_weeks(self):
        clock = StudyClock(start_weekday=0, n_days=14)
        # Same Monday-midnight bin in both study weeks.
        records = [rec(0), rec(7 * DAY, car="car-b")]
        weekly = weekly_concurrency(records, clock)
        assert weekly[0] == pytest.approx(1.0)  # (1 + 1) / 2 weeks

    def test_single_week_occurrence_halved(self):
        clock = StudyClock(start_weekday=0, n_days=14)
        weekly = weekly_concurrency([rec(0)], clock)
        assert weekly[0] == pytest.approx(0.5)

    def test_start_weekday_folding(self):
        # Study starts Wednesday; a record at study t=0 lands in the
        # Wednesday slot of the Monday-based weekly vector.
        clock = StudyClock(start_weekday=2, n_days=14)
        weekly = weekly_concurrency([rec(0)], clock)
        assert weekly[2 * 96] == pytest.approx(0.5)

    def test_partial_trailing_week_ignored(self):
        clock = StudyClock(start_weekday=0, n_days=10)
        weekly = weekly_concurrency([rec(9 * DAY)], clock)
        assert weekly.sum() == 0.0

    def test_too_short_study_raises(self):
        with pytest.raises(ValueError):
            weekly_concurrency([], StudyClock(n_days=5))


class TestFoldToDay:
    def test_shape_and_mean(self):
        weekly = np.tile(np.arange(96, dtype=float), 7)
        day = fold_to_day(weekly)
        assert day.shape == (96,)
        assert day == pytest.approx(np.arange(96, dtype=float))

    def test_rejects_wrong_size(self):
        with pytest.raises(ValueError):
            fold_to_day(np.zeros(100))


def assert_fused_matches(records, cell_ids, clock, col=None):
    """``weekly_concurrency_fused`` against the per-cell record loop, bit for
    bit; returns the fused vectors.  ``col`` overrides the columns handed to
    the fused twin (the same rows in another order)."""
    by_cell = CDRBatch(records).by_cell()
    ref = np.stack(
        [weekly_concurrency(by_cell.get(c, []), clock) for c in cell_ids]
    )
    if col is None:
        col = ColumnarCDRBatch.from_records(records)
    fused = weekly_concurrency_fused(col, cell_ids, clock)
    assert fused.shape == (len(cell_ids), BINS_PER_WEEK)
    assert fused.tobytes() == ref.tobytes()
    return fused


TWO_WEEKS = StudyClock(start_weekday=0, n_days=14)


class TestWeeklyConcurrencyFused:
    def test_zero_length_record_on_bin_start(self):
        weekly = assert_fused_matches([rec(2 * BIN_SECONDS, dur=0.0)], [1], TWO_WEEKS)
        assert np.flatnonzero(weekly[0]).tolist() == [2]

    def test_zero_length_record_at_previous_end_adds_no_bin(self):
        # [0, 900) then a zero-length record at 900: one session [0, 900),
        # which does not touch bin 1 even though the record alone would.
        records = [rec(0.0, dur=BIN_SECONDS), rec(BIN_SECONDS, dur=0.0)]
        weekly = assert_fused_matches(records, [1], TWO_WEEKS)
        assert np.flatnonzero(weekly[0]).tolist() == [0]

    def test_session_ending_on_bin_boundary(self):
        records = [rec(BIN_SECONDS - 100.0, dur=40.0), rec(BIN_SECONDS - 50.0, dur=50.0)]
        weekly = assert_fused_matches(records, [1], TWO_WEEKS)
        assert np.flatnonzero(weekly[0]).tolist() == [0]

    @pytest.mark.parametrize(
        "first_dur, bins", [(BIN_SECONDS - 30.0, [0]), (BIN_SECONDS - 30.5, [0, 1])]
    )
    def test_gap_of_exactly_30_s_joins(self, first_dur, bins):
        # The zero-length record on the bin-1 boundary joins the session
        # (and adds no bin) at a 30 s gap, and stands alone at 30.5 s.
        records = [rec(0.0, dur=first_dur), rec(BIN_SECONDS, dur=0.0)]
        weekly = assert_fused_matches(records, [1], TWO_WEEKS)
        assert np.flatnonzero(weekly[0]).tolist() == bins

    def test_overlapping_records_of_one_car(self):
        records = [
            rec(100.0, dur=600.0),
            rec(100.0, dur=50.0),
            rec(200.0, dur=2000.0),
            rec(300.0, dur=10.0),
            rec(2 * DAY, dur=0.0),
            rec(2 * DAY, dur=5.0),
        ]
        weekly = assert_fused_matches(records, [1], TWO_WEEKS)
        assert weekly[0].sum() == 4 / 2

    def test_cars_interleaved_on_one_cell(self):
        records = [
            rec(float(t), dur=25.0, car=f"car-{t % 3}", cell=1 + t % 2)
            for t in range(0, 4000, 20)
        ]
        assert_fused_matches(records, [1, 2], TWO_WEEKS)

    def test_rows_in_trailing_partial_week_ignored(self):
        clock = StudyClock(start_weekday=0, n_days=10)
        records = [
            rec(9 * DAY),
            # Straddles the end of the only whole week.
            rec(7 * DAY - 100.0, car="car-b", dur=600.0),
        ]
        weekly = assert_fused_matches(records, [1], clock)
        assert np.flatnonzero(weekly[0]).tolist() == [BINS_PER_WEEK - 1]

    @pytest.mark.parametrize("start_weekday", [3, 6])
    def test_start_weekday_folding(self, start_weekday):
        clock = StudyClock(start_weekday=start_weekday, n_days=15)
        records = [rec(0.0), rec(5 * DAY + 7.0, car="car-b", dur=3000.0)]
        assert_fused_matches(records, [1], clock)

    def test_listed_cells_without_rows_are_zero(self):
        records = [rec(0.0), rec(50.0, cell=2), rec(70.0, cell=3)]
        weekly = assert_fused_matches(records, [4, 2, 9], TWO_WEEKS)
        assert not weekly[0].any() and not weekly[2].any()

    def test_cell_order_and_repeats_follow_the_list(self):
        records = [rec(0.0), rec(5000.0, cell=2)]
        weekly = assert_fused_matches(records, [2, 1, 2], TWO_WEEKS)
        assert weekly[0].tobytes() == weekly[2].tobytes()

    def test_no_rows(self):
        assert not assert_fused_matches([], [1, 2], TWO_WEEKS).any()

    def test_six_day_study_raises(self):
        with pytest.raises(ValueError, match="shorter than one week"):
            weekly_concurrency_fused(
                ColumnarCDRBatch.from_records([rec(0.0)]), [1], StudyClock(n_days=6)
            )


#: Starts on and around bin boundaries (where the edge cases live) plus
#: arbitrary instants, a few before the study starts.
_start_st = st.one_of(
    st.integers(min_value=-2, max_value=16 * 96).map(lambda b: b * float(BIN_SECONDS)),
    st.tuples(
        st.integers(min_value=0, max_value=16 * 96),
        st.sampled_from([-30.5, -30.0, -1.0, 1.0, 30.0]),
    ).map(lambda p: p[0] * float(BIN_SECONDS) + p[1]),
    st.floats(min_value=-2000.0, max_value=16 * DAY, allow_nan=False),
)
_dur_st = st.one_of(
    st.sampled_from([0.0, 30.0, 600.0, 870.0, float(BIN_SECONDS)]),
    st.floats(min_value=0.0, max_value=3 * DAY, allow_nan=False),
)
_record_st = st.builds(
    rec,
    start=_start_st,
    dur=_dur_st,
    car=st.sampled_from(["car-a", "car-b", "car-c"]),
    cell=st.integers(min_value=1, max_value=4),
)


@given(
    records=st.lists(_record_st, max_size=40),
    cell_ids=st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=5),
    start_weekday=st.integers(min_value=0, max_value=6),
    n_days=st.integers(min_value=7, max_value=16),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_fused_matches_record_loop_on_random_rows(
    records, cell_ids, start_weekday, n_days, seed
):
    # Rows arrive in any order: the fused twin sorts them itself.
    col = ColumnarCDRBatch.from_records(records)
    shuffled = col.take(np.random.default_rng(seed).permutation(len(col)))
    assert_fused_matches(
        records, cell_ids, StudyClock(start_weekday=start_weekday, n_days=n_days),
        col=shuffled,
    )
