"""Tests for the columnar text fast path and trace format detection."""

import numpy as np
import pytest

from repro.cdr.columnar import ColumnarCDRBatch
from repro.cdr.errors import CDRValidationError
from repro.cdr.io import (
    load_trace,
    read_columnar_auto,
    read_columnar_csv,
    read_columnar_jsonl,
    trace_format,
    write_columnar_csv,
    write_columnar_jsonl,
)
from repro.cdr.records import ConnectionRecord, count_record_constructions
from repro.cdr.store import write_batch_cdrz, write_sharded_cdrz


def rec(start=0.0, car="car-1", cell=1, carrier="C1", tech="4G", duration=60.0):
    return ConnectionRecord(start, car, cell, carrier, tech, duration)


RECORDS = [
    rec(start=0.5, car="car-a", cell=3, carrier="C3", tech="4G", duration=12.25),
    rec(start=7.0, car="car-b", cell=1, carrier="C1", tech="3G", duration=0.0),
    rec(start=9.75, car="car-a", cell=2, carrier="C2", tech="2G", duration=1e6),
]


class TestFormatDetection:
    @pytest.mark.parametrize(
        ("name", "expected"),
        [
            ("trace.csv", "csv"),
            ("trace.csv.gz", "csv"),
            ("trace.jsonl", "jsonl"),
            ("trace.jsonl.gz", "jsonl"),
            ("trace.cdrz", "cdrz"),
            ("day-001", "csv"),
        ],
    )
    def test_suffix_rules(self, name, expected):
        assert trace_format(name) == expected

    def test_directory_names_cannot_leak_into_the_format(self, tmp_path):
        # Regression: `"csv" in str(path)` used to match a csvdata/ parent
        # directory and flip newline handling for the JSONL inside it.
        directory = tmp_path / "csvdata"
        directory.mkdir()
        path = directory / "trace.jsonl"
        assert trace_format(path) == "jsonl"
        write_columnar_jsonl(path, ColumnarCDRBatch.from_records(RECORDS))
        assert read_columnar_jsonl(path) == ColumnarCDRBatch.from_records(RECORDS)


class TestColumnarCsv:
    def test_matches_record_reader(self, tmp_path):
        path = tmp_path / "t.csv.gz"
        write_columnar_csv(path, ColumnarCDRBatch.from_records(RECORDS))
        # What a record-level read of the file holds: the records written.
        expected = ColumnarCDRBatch.from_records(RECORDS)
        with count_record_constructions() as counter:
            got = read_columnar_csv(path)
        assert counter.count == 0
        assert got == expected

    def test_quoted_fields_fall_back_to_csv_parser(self, tmp_path):
        tricky = [rec(car='we"ird'), rec(car="comma,car", duration=1.5)]
        path = tmp_path / "t.csv"
        write_columnar_csv(path, ColumnarCDRBatch.from_records(tricky))
        assert read_columnar_csv(path) == ColumnarCDRBatch.from_records(tricky)

    def test_reordered_columns_take_the_mapped_path(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(
            "duration,car_id,start,cell_id,carrier,technology\n"
            "60.0,car-a,0.0,1,C1,4G\n"
        )
        got = read_columnar_csv(path)
        assert got == ColumnarCDRBatch.from_records([rec(car="car-a")])

    def test_missing_columns_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("start,car_id\n0.0,car-a\n")
        with pytest.raises(CDRValidationError, match="missing required columns"):
            read_columnar_csv(path)

    def test_short_row_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(
            "start,car_id,cell_id,carrier,technology,duration\n0.0,car-a,1\n"
        )
        with pytest.raises(CDRValidationError, match="expected 6 fields"):
            read_columnar_csv(path)

    def test_malformed_number_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(
            "start,car_id,cell_id,carrier,technology,duration\n"
            "zero,car-a,1,C1,4G,60.0\n"
        )
        with pytest.raises(CDRValidationError, match="malformed numeric"):
            read_columnar_csv(path)

    def test_negative_duration_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(
            "start,car_id,cell_id,carrier,technology,duration\n"
            "0.0,car-a,1,C1,4G,-2.0\n"
        )
        with pytest.raises(CDRValidationError, match="non-negative"):
            read_columnar_csv(path)

    def test_empty_car_id_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(
            "start,car_id,cell_id,carrier,technology,duration\n"
            "0.0,,1,C1,4G,60.0\n"
        )
        with pytest.raises(CDRValidationError, match="non-empty"):
            read_columnar_csv(path)

    def test_empty_body_yields_empty_batch(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("start,car_id,cell_id,carrier,technology,duration\n")
        assert read_columnar_csv(path) == ColumnarCDRBatch.from_records([])

    def test_float_round_trip_is_bit_exact(self, tmp_path):
        # repr() emits the shortest digits that round-trip; the numpy
        # string parse is correctly rounded, so bytes survive exactly.
        values = [0.1, 1 / 3, 2**-40, 1e300, 4503599627370497.0]
        records = [rec(start=v, duration=v) for v in values]
        path = tmp_path / "t.csv.gz"
        write_columnar_csv(path, ColumnarCDRBatch.from_records(records))
        got = read_columnar_csv(path)
        np.testing.assert_array_equal(got.start, np.asarray(values))
        np.testing.assert_array_equal(got.duration, np.asarray(values))


class TestColumnarJsonl:
    def test_matches_record_reader(self, tmp_path):
        path = tmp_path / "t.jsonl.gz"
        write_columnar_jsonl(path, ColumnarCDRBatch.from_records(RECORDS))
        # What a record-level read of the file holds: the records written.
        expected = ColumnarCDRBatch.from_records(RECORDS)
        with count_record_constructions() as counter:
            got = read_columnar_jsonl(path)
        assert counter.count == 0
        assert got == expected

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_columnar_jsonl(path, ColumnarCDRBatch.from_records(RECORDS[:1]))
        path.write_text(path.read_text() + "\n\n")
        assert read_columnar_jsonl(path) == ColumnarCDRBatch.from_records(
            RECORDS[:1]
        )

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_columnar_jsonl(path, ColumnarCDRBatch.from_records(RECORDS[:1]))
        with open(path, "a") as f:
            f.write("{not json}\n")
        with pytest.raises(CDRValidationError, match=r":2: malformed record"):
            read_columnar_jsonl(path)

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"start": 0.0, "car_id": "a"}\n')
        with pytest.raises(CDRValidationError, match="malformed record"):
            read_columnar_jsonl(path)


class TestLoadTrace:
    @pytest.mark.parametrize("name", ["t.csv", "t.csv.gz", "t.jsonl", "t.jsonl.gz"])
    def test_text_formats(self, tmp_path, name):
        path = tmp_path / name
        if "jsonl" in name:
            write_columnar_jsonl(path, ColumnarCDRBatch.from_records(RECORDS))
        else:
            write_columnar_csv(path, ColumnarCDRBatch.from_records(RECORDS))
        batch = load_trace(path)
        assert batch.records == sorted(RECORDS)

    def test_cdrz_file_and_shard_directory(self, tmp_path):
        col = ColumnarCDRBatch.from_records(RECORDS)
        single = tmp_path / "t.cdrz"
        write_batch_cdrz(single, col)
        write_sharded_cdrz(tmp_path / "shards", col, shard_rows=2)
        assert load_trace(single).records == sorted(RECORDS)
        assert load_trace(tmp_path / "shards").records == sorted(RECORDS)

    def test_batches_arrive_with_columnar_view_attached(self, tmp_path):
        path = tmp_path / "t.csv"
        write_columnar_csv(path, ColumnarCDRBatch.from_records(RECORDS))
        batch = load_trace(path)
        assert batch._columnar is not None

    def test_read_columnar_auto_dispatches(self, tmp_path):
        col = ColumnarCDRBatch.from_records(RECORDS)
        csv_path, cdrz_path = tmp_path / "t.csv", tmp_path / "t.cdrz"
        write_columnar_csv(csv_path, col)
        write_batch_cdrz(cdrz_path, col)
        assert read_columnar_auto(csv_path) == col
        assert read_columnar_auto(cdrz_path) == col


class TestColumnarBatchHelpers:
    def test_from_arrays_matches_from_records(self):
        expected = ColumnarCDRBatch.from_records(RECORDS)
        got = ColumnarCDRBatch.from_arrays(
            [r.start for r in RECORDS],
            [r.duration for r in RECORDS],
            [r.cell_id for r in RECORDS],
            [r.car_id for r in RECORDS],
            [r.carrier for r in RECORDS],
            [r.technology for r in RECORDS],
        )
        assert got == expected

    def test_rows_is_a_zero_copy_slice(self):
        col = ColumnarCDRBatch.from_records(RECORDS)
        view = col.rows(1, 3)
        assert len(view) == 2
        assert view.start.base is not None
        assert view.to_records() == RECORDS[1:3]
        assert view.car_ids == col.car_ids
