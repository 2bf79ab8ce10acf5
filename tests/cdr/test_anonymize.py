"""Unit tests for keyed anonymization."""

from dataclasses import replace

import numpy as np
import pytest

from repro.cdr.anonymize import Anonymizer
from repro.cdr.columnar import ColumnarCDRBatch
from repro.cdr.records import ConnectionRecord


class TestAnonymizer:
    def test_stable_within_key(self):
        a = Anonymizer(key="secret")
        assert a.pseudonym("car-1") == a.pseudonym("car-1")

    def test_distinct_cars_distinct_pseudonyms(self):
        a = Anonymizer(key="secret")
        assert a.pseudonym("car-1") != a.pseudonym("car-2")

    def test_different_keys_unlinkable(self):
        a = Anonymizer(key="k1")
        b = Anonymizer(key="k2")
        assert a.pseudonym("car-1") != b.pseudonym("car-1")

    def test_same_key_different_instances_agree(self):
        assert Anonymizer(key="k").pseudonym("x") == Anonymizer(key="k").pseudonym("x")

    def test_pseudonym_format(self):
        p = Anonymizer(key="k", digest_chars=12).pseudonym("car-1")
        assert p.startswith("anon-")
        assert len(p) == 5 + 12

    def test_rejects_empty_key(self):
        with pytest.raises(ValueError):
            Anonymizer(key="")

    def test_rejects_bad_digest_chars(self):
        with pytest.raises(ValueError):
            Anonymizer(key="k", digest_chars=4)

    def test_anonymize_preserves_every_other_column(self):
        a = Anonymizer(key="k")
        batch = ColumnarCDRBatch.from_records(
            [ConnectionRecord(10.0, "car-1", 7, "C2", "4G", 33.0)]
        )
        out = a.anonymize(batch).to_records()[0]
        assert out.car_id == a.pseudonym("car-1")
        assert (out.start, out.cell_id, out.carrier, out.technology, out.duration) == (
            10.0,
            7,
            "C2",
            "4G",
            33.0,
        )

    def test_anonymize_preserves_order_and_identity(self):
        a = Anonymizer(key="k")
        recs = [
            ConnectionRecord(0.0, "car-1", 1, "C3", "4G", 1.0),
            ConnectionRecord(1.0, "car-2", 1, "C3", "4G", 1.0),
            ConnectionRecord(2.0, "car-1", 2, "C3", "4G", 1.0),
        ]
        out = a.anonymize(ColumnarCDRBatch.from_records(recs)).to_records()
        assert [r.start for r in out] == [0.0, 1.0, 2.0]
        assert out[0].car_id == out[2].car_id
        assert out[0].car_id != out[1].car_id

    def test_anonymize_empty_batch(self):
        empty = ColumnarCDRBatch.from_records([])
        assert Anonymizer(key="k").anonymize(empty) == empty

    def test_anonymize_matches_per_record_pseudonyms(self, dataset):
        """The columns equal pseudonymizing every row's car id on its own."""
        records = dataset.batch.records
        durations = np.asarray([r.duration for r in records])
        assert np.any(durations == 3600.0), "trace needs ghost records"
        assert np.any(durations > 3600.0), "trace needs stuck modems"
        a = Anonymizer(key="study-epoch-1")
        oracle = ColumnarCDRBatch.from_records(
            [replace(r, car_id=a.pseudonym(r.car_id)) for r in records]
        )
        assert a.anonymize(dataset.batch.columnar()) == oracle
