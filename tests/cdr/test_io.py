"""Unit tests for CDR CSV/JSONL round-trip."""

import pytest

from repro.cdr.errors import CDRValidationError
from repro.cdr.io import (
    read_records_csv,
    read_records_daily,
    read_records_jsonl,
    write_records_csv,
    write_records_daily,
    write_records_jsonl,
)
from repro.cdr.records import ConnectionRecord


@pytest.fixture()
def records():
    return [
        ConnectionRecord(0.0, "car-a", 1, "C3", "4G", 60.0),
        ConnectionRecord(100.5, "car-b", 2, "C1", "3G", 12.25),
        ConnectionRecord(200.0, "car-a", 3, "C4", "4G", 0.0),
    ]


class TestCSV:
    def test_roundtrip(self, tmp_path, records):
        path = tmp_path / "trace.csv"
        n = write_records_csv(path, records)
        assert n == 3
        back = list(read_records_csv(path))
        assert back == records

    def test_missing_column_raises(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("start,car_id\n0,car-a\n")
        with pytest.raises(CDRValidationError):
            list(read_records_csv(path))

    def test_malformed_row_raises(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "start,car_id,cell_id,carrier,technology,duration\n"
            "notanumber,car-a,1,C3,4G,60\n"
        )
        with pytest.raises(CDRValidationError):
            list(read_records_csv(path))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_records_csv(path, [])
        assert list(read_records_csv(path)) == []


class TestJSONL:
    def test_roundtrip(self, tmp_path, records):
        path = tmp_path / "trace.jsonl"
        n = write_records_jsonl(path, records)
        assert n == 3
        back = list(read_records_jsonl(path))
        assert back == records

    def test_blank_lines_skipped(self, tmp_path, records):
        path = tmp_path / "trace.jsonl"
        write_records_jsonl(path, records)
        content = path.read_text()
        path.write_text(content.replace("\n", "\n\n"))
        assert list(read_records_jsonl(path)) == records

    def test_invalid_json_raises_with_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"start": 0}\nnot json\n')
        with pytest.raises(CDRValidationError):
            list(read_records_jsonl(path))

    def test_missing_field_raises(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"start": 0, "car_id": "a"}\n')
        with pytest.raises(CDRValidationError):
            list(read_records_jsonl(path))

    def test_streaming(self, tmp_path, records):
        path = tmp_path / "trace.jsonl"
        write_records_jsonl(path, records)
        it = read_records_jsonl(path)
        assert next(it) == records[0]  # consumable lazily


class TestGzip:
    def test_csv_gz_roundtrip(self, tmp_path, records):
        path = tmp_path / "trace.csv.gz"
        n = write_records_csv(path, records)
        assert n == 3
        # The file really is gzipped.
        assert path.read_bytes()[:2] == b"\x1f\x8b"
        assert list(read_records_csv(path)) == records

    def test_jsonl_gz_roundtrip(self, tmp_path, records):
        path = tmp_path / "trace.jsonl.gz"
        write_records_jsonl(path, records)
        assert path.read_bytes()[:2] == b"\x1f\x8b"
        assert list(read_records_jsonl(path)) == records

    def test_gz_smaller_than_plain(self, tmp_path):
        recs = [
            ConnectionRecord(float(i), f"car-{i % 5}", 1, "C3", "4G", 60.0)
            for i in range(2000)
        ]
        plain = tmp_path / "t.csv"
        gz = tmp_path / "t.csv.gz"
        write_records_csv(plain, recs)
        write_records_csv(gz, recs)
        assert gz.stat().st_size < plain.stat().st_size / 2


class TestDailyPartitions:
    def _trace(self):
        return [
            ConnectionRecord(100.0, "car-a", 1, "C3", "4G", 60.0),
            ConnectionRecord(90_000.0, "car-b", 2, "C1", "3G", 30.0),
            ConnectionRecord(90_500.0, "car-a", 2, "C3", "4G", 30.0),
            ConnectionRecord(200_000.0, "car-c", 3, "C4", "4G", 10.0),
        ]

    def test_partition_counts(self, tmp_path):
        counts = write_records_daily(tmp_path / "feed", self._trace())
        assert counts == {0: 1, 1: 2, 2: 1}

    def test_files_created_gzipped(self, tmp_path):
        write_records_daily(tmp_path / "feed", self._trace())
        names = sorted(p.name for p in (tmp_path / "feed").iterdir())
        assert names == ["day-000.csv.gz", "day-001.csv.gz", "day-002.csv.gz"]

    def test_roundtrip_order(self, tmp_path):
        trace = self._trace()
        write_records_daily(tmp_path / "feed", trace)
        back = list(read_records_daily(tmp_path / "feed"))
        assert back == trace

    def test_uncompressed_option(self, tmp_path):
        write_records_daily(tmp_path / "feed", self._trace(), compress=False)
        names = sorted(p.name for p in (tmp_path / "feed").iterdir())
        assert names[0] == "day-000.csv"

    def test_empty_directory_raises(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(CDRValidationError):
            list(read_records_daily(tmp_path / "empty"))

    def test_fused_engine_over_daily_feed(self, tmp_path, clock):
        # Daily archives -> one fused pass over the concatenated feed.
        from repro.cdr.columnar import ColumnarCDRBatch
        from repro.core.fused import FusedEngine

        trace = self._trace()
        write_records_daily(tmp_path / "feed", trace)
        engine = FusedEngine(clock)
        engine.consume(
            ColumnarCDRBatch.from_records(
                list(read_records_daily(tmp_path / "feed"))
            )
        )
        report = engine.finalize()
        assert report.durations.n == 4
        assert report.days == {"car-a": 2, "car-b": 1, "car-c": 1}
