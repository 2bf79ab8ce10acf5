"""Unit tests for the columnar CDR container."""

import pickle

import numpy as np
import pytest

from repro.cdr.columnar import ColumnarCDRBatch
from repro.cdr.errors import CDRValidationError
from repro.cdr.records import CDRBatch, ConnectionRecord


def rec(start=0.0, car="car-a", cell=1, carrier="C3", tech="4G", dur=60.0):
    return ConnectionRecord(
        start=start, car_id=car, cell_id=cell, carrier=carrier, technology=tech, duration=dur
    )


def sample_records():
    return [
        rec(start=30.0, car="car-b", cell=2, carrier="C5", tech="5G"),
        rec(start=10.0, car="car-a", cell=1),
        rec(start=20.0, car="car-a", cell=2, carrier="C2", tech="3G", dur=700.0),
        rec(start=20.0, car="car-c", cell=1, dur=5.0),
    ]


class TestRoundTrip:
    def test_to_records_is_lossless_and_order_preserving(self):
        records = sample_records()
        col = ColumnarCDRBatch.from_records(records)
        assert col.to_records() == records

    def test_round_trip_preserves_native_types(self):
        back = ColumnarCDRBatch.from_records(sample_records()).to_records()[0]
        assert type(back.start) is float
        assert type(back.cell_id) is int
        assert type(back.car_id) is str

    def test_from_batch_matches_batch_order(self):
        batch = CDRBatch(sample_records())
        col = batch.columnar()
        assert col.to_records() == batch.records

    def test_to_batch_round_trips_through_sort(self):
        records = sample_records()
        col = ColumnarCDRBatch.from_records(records)
        batch = col.to_batch()
        assert batch.records == sorted(records)

    def test_to_batch_keeps_columnar_view_cached(self):
        col = ColumnarCDRBatch.from_records(sorted(sample_records()))
        batch = col.to_batch()
        # Already sorted input: the batch reuses the same columnar object.
        assert batch.columnar() is col

    def test_empty(self):
        col = ColumnarCDRBatch.from_records([])
        assert len(col) == 0
        assert col.to_records() == []
        assert col.car_ids == ()
        assert col.group_rows_by_car() == {}

    def test_pickle_round_trip(self):
        col = ColumnarCDRBatch.from_records(sample_records())
        assert pickle.loads(pickle.dumps(col)) == col


class TestVectorizedOps:
    def test_sort_order_matches_sorted_records(self):
        records = sample_records()
        # Duplicate starts + duplicate cars exercise every tie-break level.
        records += [rec(start=20.0, car="car-a", cell=2, dur=1.0)]
        col = ColumnarCDRBatch.from_records(records)
        assert col.sorted().to_records() == sorted(records)

    def test_truncated_caps_durations_only(self):
        col = ColumnarCDRBatch.from_records(sample_records())
        capped = col.truncated(600.0)
        assert capped.duration.max() == 600.0
        assert np.array_equal(capped.start, col.start)
        assert col.duration.max() == 700.0  # original untouched

    def test_take_permutes_rows(self):
        col = ColumnarCDRBatch.from_records(sample_records())
        rev = col.take(np.arange(len(col))[::-1])
        assert rev.to_records() == sample_records()[::-1]

    def test_group_rows_by_car_preserves_row_order(self):
        records = sorted(sample_records())
        col = ColumnarCDRBatch.from_records(records)
        groups = col.group_rows_by_car()
        assert set(groups) == {"car-a", "car-b", "car-c"}
        for car, rows in groups.items():
            assert [records[i] for i in rows.tolist()] == [
                r for r in records if r.car_id == car
            ]

    def test_nbytes_counts_all_columns(self):
        col = ColumnarCDRBatch.from_records(sample_records())
        n = len(col)
        assert col.nbytes == n * (8 + 8 + 8 + 4 + 2 + 2)

    def test_column_length_mismatch_rejected(self):
        with pytest.raises(CDRValidationError):
            ColumnarCDRBatch(
                np.zeros(2),
                np.zeros(3),
                np.zeros(2, dtype=np.int64),
                np.zeros(2, dtype=np.int32),
                np.zeros(2, dtype=np.int16),
                np.zeros(2, dtype=np.int16),
                ["car-a"],
                ["C3"],
                ["4G"],
            )


class TestConcatenate:
    def test_merges_disjoint_vocabularies(self):
        shard_a = ColumnarCDRBatch.from_records(
            [rec(start=1.0, car="car-a"), rec(start=2.0, car="car-b")]
        )
        shard_b = ColumnarCDRBatch.from_records(
            [rec(start=3.0, car="car-c", carrier="C5", tech="5G")]
        )
        merged = ColumnarCDRBatch.concatenate([shard_a, shard_b])
        assert merged.car_ids == ("car-a", "car-b", "car-c")
        assert merged.to_records() == shard_a.to_records() + shard_b.to_records()

    def test_remaps_codes_into_union_vocabulary(self):
        # car-z sorts after car-a, so shard_b's code 0 must become 1.
        shard_a = ColumnarCDRBatch.from_records([rec(car="car-a")])
        shard_b = ColumnarCDRBatch.from_records([rec(car="car-z")])
        merged = ColumnarCDRBatch.concatenate([shard_b, shard_a])
        assert [r.car_id for r in merged.to_records()] == ["car-z", "car-a"]

    def test_single_shard_passthrough(self):
        shard = ColumnarCDRBatch.from_records(sample_records())
        assert ColumnarCDRBatch.concatenate([shard]) is shard

    def test_empty_input(self):
        assert len(ColumnarCDRBatch.concatenate([])) == 0


class TestGroupingHelpers:
    def test_group_rows_by_cell_matches_by_cell(self):
        col = ColumnarCDRBatch.from_records(sample_records())
        groups = col.group_rows_by_cell()
        assert set(groups) == {1, 2}
        for cell, idx in groups.items():
            assert (col.cell_id[idx] == cell).all()
            # Stable grouping: row order inside a cell is batch order.
            assert list(idx) == sorted(idx)
        total = sum(len(idx) for idx in groups.values())
        assert total == len(col)

    def test_group_rows_by_cell_empty(self):
        assert ColumnarCDRBatch.from_records([]).group_rows_by_cell() == {}

    def test_present_car_codes_after_take(self):
        col = ColumnarCDRBatch.from_records(sorted(sample_records()))
        # Keep only car-b's row: the shared vocabulary still lists all
        # three cars, but only car-b's code is present.
        keep = np.flatnonzero(col.car_code == col.car_ids.index("car-b"))
        sub = col.take(keep)
        assert sub.car_ids == col.car_ids
        present = sub.present_car_codes()
        assert [sub.car_ids[int(c)] for c in present] == ["car-b"]
