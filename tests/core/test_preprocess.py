"""Unit tests for Section 3 preprocessing."""

import numpy as np
import pytest

from repro.algorithms.intervals import Interval
from repro.cdr.columnar import ColumnarCDRBatch
from repro.cdr.records import CDRBatch, ConnectionRecord, count_record_constructions
from repro.core.preprocess import (
    PreprocessConfig,
    group_records_by_gap,
    is_ghost_record,
    preprocess,
    preprocess_lazy,
    sessions_for,
)


def rec(start, dur, car="car-a", cell=1, carrier="C3", tech="4G"):
    return ConnectionRecord(
        start=start, car_id=car, cell_id=cell, carrier=carrier, technology=tech, duration=dur
    )


class TestConfig:
    def test_defaults_match_paper(self):
        cfg = PreprocessConfig()
        assert cfg.truncate_s == 600.0
        assert cfg.session_gap_s == 30.0
        assert cfg.network_session_gap_s == 600.0

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            PreprocessConfig(truncate_s=0)
        with pytest.raises(ValueError):
            PreprocessConfig(session_gap_s=-1)


class TestGhostRemoval:
    def test_is_ghost(self):
        assert is_ghost_record(rec(0, 3600.0))
        assert is_ghost_record(rec(0, 3600.4))
        assert not is_ghost_record(rec(0, 3601.0))
        assert not is_ghost_record(rec(0, 600.0))

    def test_preprocess_drops_ghosts(self):
        batch = CDRBatch([rec(0, 60.0), rec(100, 3600.0), rec(200, 30.0)])
        pre = preprocess(batch)
        assert pre.n_dropped_ghosts == 1
        assert len(pre.full) == 2
        assert all(r.duration != 3600.0 for r in pre.full)


class TestTruncation:
    def test_truncated_view_caps_at_600(self):
        batch = CDRBatch([rec(0, 1000.0), rec(2000, 100.0)])
        pre = preprocess(batch)
        durations = sorted(r.duration for r in pre.truncated)
        assert durations == [100.0, 600.0]

    def test_full_view_untouched(self):
        batch = CDRBatch([rec(0, 1000.0)])
        pre = preprocess(batch)
        assert pre.full[0].duration == 1000.0

    def test_custom_cutoff(self):
        batch = CDRBatch([rec(0, 1000.0)])
        pre = preprocess(batch, PreprocessConfig(truncate_s=300.0))
        assert pre.truncated[0].duration == 300.0


class TestSessions:
    def test_sessions_for_concatenates(self):
        records = [rec(0, 60.0), rec(80, 50.0), rec(1000, 10.0)]
        sessions = sessions_for(records, max_gap_s=30.0)
        assert sessions == [Interval(0, 130), Interval(1000, 1010)]

    def test_aggregate_sessions_cached(self):
        batch = CDRBatch([rec(0, 60.0), rec(70, 30.0)])
        pre = preprocess(batch)
        s1 = pre.aggregate_sessions("car-a")
        s2 = pre.aggregate_sessions("car-a")
        assert s1 is s2
        assert s1 == [Interval(0, 100)]

    def test_aggregate_sessions_unknown_car_empty(self):
        pre = preprocess(CDRBatch([rec(0, 10.0)]))
        assert pre.aggregate_sessions("nope") == []


class TestNetworkSessions:
    def test_group_records_by_gap(self):
        records = [rec(0, 60.0), rec(100, 60.0), rec(5000, 10.0)]
        groups = group_records_by_gap(records, max_gap_s=600.0)
        assert [len(g) for g in groups] == [2, 1]

    def test_gap_measured_from_group_extent(self):
        # A long record extends the group's end; a record starting within
        # max_gap of that end joins even if far from the previous *record*.
        records = [rec(0, 1000.0), rec(500, 10.0), rec(1500, 10.0)]
        groups = group_records_by_gap(records, max_gap_s=600.0)
        assert len(groups) == 1

    def test_network_sessions_via_result(self):
        batch = CDRBatch(
            [rec(0, 60.0, cell=1), rec(200, 60.0, cell=2), rec(10_000, 60.0, cell=3)]
        )
        pre = preprocess(batch)
        sessions = pre.network_sessions("car-a")
        assert [len(s) for s in sessions] == [2, 1]
        assert sessions[0][0].cell_id == 1

    def test_empty_input(self):
        assert group_records_by_gap([], 600.0) == []


class TestSessionCachingAndSortFlag:
    def test_network_sessions_cached_identity(self):
        batch = CDRBatch([rec(0, 60.0), rec(200, 60.0), rec(10_000, 60.0)])
        pre = preprocess(batch)
        s1 = pre.network_sessions("car-a")
        s2 = pre.network_sessions("car-a")
        assert s1 is s2

    def test_network_sessions_unknown_car_empty_and_cached(self):
        pre = preprocess(CDRBatch([rec(0, 10.0)]))
        assert pre.network_sessions("nope") == []
        assert pre.network_sessions("nope") is pre.network_sessions("nope")

    def test_assume_sorted_skips_resort(self):
        # Out-of-order input: the default sorts, assume_sorted trusts the
        # caller and groups in the given order.
        records = [rec(5000, 10.0), rec(0, 60.0), rec(100, 60.0)]
        default = group_records_by_gap(records, max_gap_s=600.0)
        assert [len(g) for g in default] == [2, 1]
        # Trusted order: the backwards jump to t=0 is a negative gap, so
        # everything lands in one group — proof the defensive sort was
        # skipped rather than repeated.
        trusted = group_records_by_gap(records, max_gap_s=600.0, assume_sorted=True)
        assert [[r.start for r in g] for g in trusted] == [[5000, 0, 100]]

    def test_assume_sorted_equivalent_on_sorted_input(self):
        records = [rec(0, 60.0), rec(100, 60.0), rec(5000, 10.0)]
        assert group_records_by_gap(
            records, max_gap_s=600.0, assume_sorted=True
        ) == group_records_by_gap(records, max_gap_s=600.0)


class TestLazyColumnar:
    RECORDS = [
        rec(0, 60.0),
        rec(0, 60.0, car="car-b"),
        rec(100, 3600.0),
        rec(100, 900.0, cell=2),
        rec(50, 10.0, car="car-b", carrier="C1"),
    ]

    def test_columnar_input_matches_record_batch(self):
        eager = preprocess(CDRBatch(self.RECORDS))
        # Out of record order on purpose: the lazy path sorts the columns.
        col = ColumnarCDRBatch.from_records(self.RECORDS[::-1])
        with count_record_constructions() as counter:
            lazy = preprocess_lazy(col)
            assert lazy.n_kept == eager.n_kept == 4
            assert lazy.n_dropped_ghosts == eager.n_dropped_ghosts == 1
            assert lazy.columnar_full() == eager.columnar_full()
            assert lazy.columnar_truncated() == eager.columnar_truncated()
        assert counter.count == 0
        assert list(lazy.full) == list(eager.full)
        assert list(lazy.truncated) == list(eager.truncated)

    def test_record_sorted_columns_are_used_as_they_are(self):
        col = CDRBatch([r for r in self.RECORDS if r.duration != 3600.0]).columnar()
        lazy = preprocess_lazy(col)
        assert lazy.columnar_full() is col
        assert np.array_equal(lazy.columnar_truncated().duration, [60.0, 60.0, 10.0, 600.0])
