"""Unit tests for connection records and batches."""

import pytest

from repro.cdr.errors import CDRValidationError
from repro.cdr.records import CDRBatch, ConnectionRecord
from repro.core.preprocess import preprocess


def rec(start=0.0, car="car-a", cell=1, carrier="C3", tech="4G", dur=60.0):
    return ConnectionRecord(
        start=start, car_id=car, cell_id=cell, carrier=carrier, technology=tech, duration=dur
    )


class TestConnectionRecord:
    def test_end_and_interval(self):
        r = rec(start=100.0, dur=50.0)
        assert r.end == 150.0
        assert r.interval.start == 100.0
        assert r.interval.end == 150.0

    def test_rejects_negative_duration(self):
        with pytest.raises(CDRValidationError):
            rec(dur=-1.0)

    def test_rejects_empty_car_id(self):
        with pytest.raises(CDRValidationError):
            rec(car="")

    def test_truncated_caps(self):
        r = rec(dur=1000.0).truncated(600.0)
        assert r.duration == 600.0

    def test_truncated_noop_below_cap(self):
        r = rec(dur=100.0)
        assert r.truncated(600.0) is r

    def test_ordering_chronological(self):
        early = rec(start=10.0)
        late = rec(start=20.0)
        assert sorted([late, early]) == [early, late]


class TestCDRBatch:
    def _batch(self):
        return CDRBatch(
            [
                rec(start=30.0, car="car-b", cell=2),
                rec(start=10.0, car="car-a", cell=1),
                rec(start=20.0, car="car-a", cell=2),
            ]
        )

    def test_sorted_on_construction(self):
        batch = self._batch()
        starts = [r.start for r in batch]
        assert starts == sorted(starts)

    def test_len_and_getitem(self):
        batch = self._batch()
        assert len(batch) == 3
        assert batch[0].start == 10.0

    def test_by_car_groups_chronological(self):
        groups = self._batch().by_car()
        assert set(groups) == {"car-a", "car-b"}
        assert [r.start for r in groups["car-a"]] == [10.0, 20.0]

    def test_by_cell(self):
        groups = self._batch().by_cell()
        assert {r.car_id for r in groups[2]} == {"car-a", "car-b"}

    def test_car_and_cell_ids_sorted(self):
        batch = self._batch()
        assert batch.car_ids() == ["car-a", "car-b"]
        assert batch.cell_ids() == [1, 2]

    def test_empty_batch(self):
        batch = CDRBatch([])
        assert len(batch) == 0
        assert batch.car_ids() == []
        assert batch.by_cell() == {}


class TestAssumeSorted:
    def _sorted_records(self):
        return sorted(
            [
                rec(start=30.0, car="car-b", cell=2),
                rec(start=10.0, car="car-a", cell=1),
                rec(start=20.0, car="car-a", cell=2),
            ]
        )

    def test_preserves_given_order(self):
        records = self._sorted_records()
        batch = CDRBatch(records, assume_sorted=True)
        assert batch.records == records

    def test_matches_sorting_constructor(self):
        records = self._sorted_records()
        fast = CDRBatch(records, assume_sorted=True)
        slow = CDRBatch(list(reversed(records)))
        assert fast.records == slow.records
        assert fast.by_car().keys() == slow.by_car().keys()

    def test_filtered_batches_stay_sorted(self):
        # Preprocessing drops the ghost rows of a sorted batch without a
        # re-sort: the kept batch keeps record order.
        records = [*self._sorted_records(), rec(start=15.0, dur=3600.0)]
        kept = preprocess(CDRBatch(records)).full
        assert kept.records == self._sorted_records()
        starts = [r.start for r in kept]
        assert starts == sorted(starts)

    def test_columnar_view_matches_row_order(self):
        batch = CDRBatch(self._sorted_records(), assume_sorted=True)
        assert batch.columnar().to_records() == batch.records
