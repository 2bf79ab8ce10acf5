"""Unit tests for CDR CSV/JSONL round-trip."""

import pytest

import repro.cdr.io as cdr_io
from repro.cdr.columnar import ColumnarCDRBatch
from repro.cdr.errors import CDRValidationError
from repro.cdr.io import (
    read_columnar_csv,
    read_columnar_jsonl,
    write_records_csv,
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
        back = read_columnar_csv(path).to_records()
        assert back == records

    def test_missing_column_raises(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("start,car_id\n0,car-a\n")
        with pytest.raises(CDRValidationError):
            read_columnar_csv(path)

    def test_malformed_row_raises(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "start,car_id,cell_id,carrier,technology,duration\n"
            "notanumber,car-a,1,C3,4G,60\n"
        )
        with pytest.raises(CDRValidationError):
            read_columnar_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_records_csv(path, [])
        assert read_columnar_csv(path).to_records() == []


class TestJSONL:
    def test_roundtrip(self, tmp_path, records):
        path = tmp_path / "trace.jsonl"
        n = write_records_jsonl(path, records)
        assert n == 3
        back = read_columnar_jsonl(path).to_records()
        assert back == records

    def test_blank_lines_skipped(self, tmp_path, records):
        path = tmp_path / "trace.jsonl"
        write_records_jsonl(path, records)
        content = path.read_text()
        path.write_text(content.replace("\n", "\n\n"))
        assert read_columnar_jsonl(path).to_records() == records

    def test_invalid_json_raises_with_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"start": 0}\nnot json\n')
        with pytest.raises(CDRValidationError, match=r"bad\.jsonl:1: "):
            read_columnar_jsonl(path)
        path.write_text(
            '{"start": 0, "car_id": "a", "cell_id": 1, "carrier": "C1", '
            '"technology": "4G", "duration": 1.0}\nnot json\n'
        )
        with pytest.raises(CDRValidationError, match=r"bad\.jsonl:2: "):
            read_columnar_jsonl(path)

    def test_missing_field_raises(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"start": 0, "car_id": "a"}\n')
        with pytest.raises(CDRValidationError):
            read_columnar_jsonl(path)

    def test_streaming(self, tmp_path, records, monkeypatch):
        # The reader parses in blocks of lines: blocks smaller than the
        # file concatenate back to the one-block batch.
        path = tmp_path / "trace.jsonl"
        write_records_jsonl(path, records)
        whole = read_columnar_jsonl(path)
        monkeypatch.setattr(cdr_io, "_BLOCK_LINES", 2)
        assert read_columnar_jsonl(path) == whole
        assert whole == ColumnarCDRBatch.from_records(records)


class TestGzip:
    def test_csv_gz_roundtrip(self, tmp_path, records):
        path = tmp_path / "trace.csv.gz"
        n = write_records_csv(path, records)
        assert n == 3
        # The file really is gzipped.
        assert path.read_bytes()[:2] == b"\x1f\x8b"
        assert read_columnar_csv(path).to_records() == records

    def test_jsonl_gz_roundtrip(self, tmp_path, records):
        path = tmp_path / "trace.jsonl.gz"
        write_records_jsonl(path, records)
        assert path.read_bytes()[:2] == b"\x1f\x8b"
        assert read_columnar_jsonl(path).to_records() == records

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
