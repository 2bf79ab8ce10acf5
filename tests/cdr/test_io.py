"""Unit tests for CDR CSV/JSONL round-trip."""

import pytest

import repro.cdr.io as cdr_io
from repro.cdr.columnar import ColumnarCDRBatch
from repro.cdr.errors import CDRValidationError
from repro.cdr.io import (
    read_columnar_csv,
    read_columnar_jsonl,
    write_columnar_csv,
    write_columnar_jsonl,
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
        n = write_columnar_csv(path, ColumnarCDRBatch.from_records(records))
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
        write_columnar_csv(path, ColumnarCDRBatch.from_records([]))
        assert read_columnar_csv(path).to_records() == []


class TestJSONL:
    def test_roundtrip(self, tmp_path, records):
        path = tmp_path / "trace.jsonl"
        n = write_columnar_jsonl(path, ColumnarCDRBatch.from_records(records))
        assert n == 3
        back = read_columnar_jsonl(path).to_records()
        assert back == records

    def test_blank_lines_skipped(self, tmp_path, records):
        path = tmp_path / "trace.jsonl"
        write_columnar_jsonl(path, ColumnarCDRBatch.from_records(records))
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
        write_columnar_jsonl(path, ColumnarCDRBatch.from_records(records))
        whole = read_columnar_jsonl(path)
        monkeypatch.setattr(cdr_io, "_BLOCK_LINES", 2)
        assert read_columnar_jsonl(path) == whole
        assert whole == ColumnarCDRBatch.from_records(records)


class TestGzip:
    def test_csv_gz_roundtrip(self, tmp_path, records):
        path = tmp_path / "trace.csv.gz"
        n = write_columnar_csv(path, ColumnarCDRBatch.from_records(records))
        assert n == 3
        # The file really is gzipped.
        assert path.read_bytes()[:2] == b"\x1f\x8b"
        assert read_columnar_csv(path).to_records() == records

    def test_jsonl_gz_roundtrip(self, tmp_path, records):
        path = tmp_path / "trace.jsonl.gz"
        write_columnar_jsonl(path, ColumnarCDRBatch.from_records(records))
        assert path.read_bytes()[:2] == b"\x1f\x8b"
        assert read_columnar_jsonl(path).to_records() == records

    def test_gz_smaller_than_plain(self, tmp_path):
        recs = [
            ConnectionRecord(float(i), f"car-{i % 5}", 1, "C3", "4G", 60.0)
            for i in range(2000)
        ]
        plain = tmp_path / "t.csv"
        gz = tmp_path / "t.csv.gz"
        write_columnar_csv(plain, ColumnarCDRBatch.from_records(recs))
        write_columnar_csv(gz, ColumnarCDRBatch.from_records(recs))
        assert gz.stat().st_size < plain.stat().st_size / 2


class TestWriterBytes:
    """The writers' exact output: header, field order, ``repr`` floats, row
    order, whatever the block size."""

    @pytest.fixture(autouse=True)
    def two_row_blocks(self, monkeypatch):
        monkeypatch.setattr(cdr_io, "_BLOCK_LINES", 2)

    def test_csv(self, tmp_path, records):
        path = tmp_path / "t.csv"
        write_columnar_csv(path, ColumnarCDRBatch.from_records(records))
        assert path.read_bytes() == (
            b"start,car_id,cell_id,carrier,technology,duration\r\n"
            b"0.0,car-a,1,C3,4G,60.0\r\n"
            b"100.5,car-b,2,C1,3G,12.25\r\n"
            b"200.0,car-a,3,C4,4G,0.0\r\n"
        )

    def test_jsonl(self, tmp_path, records):
        path = tmp_path / "t.jsonl"
        write_columnar_jsonl(path, ColumnarCDRBatch.from_records(records))
        assert path.read_text().splitlines() == [
            '{"start": 0.0, "car_id": "car-a", "cell_id": 1, "carrier": "C3", '
            '"technology": "4G", "duration": 60.0}',
            '{"start": 100.5, "car_id": "car-b", "cell_id": 2, "carrier": "C1", '
            '"technology": "3G", "duration": 12.25}',
            '{"start": 200.0, "car_id": "car-a", "cell_id": 3, "carrier": "C4", '
            '"technology": "4G", "duration": 0.0}',
        ]

    def test_rows_in_batch_order_not_record_order(self, tmp_path, records):
        path = tmp_path / "t.csv"
        write_columnar_csv(path, ColumnarCDRBatch.from_records(records[::-1]))
        assert read_columnar_csv(path).to_records() == records[::-1]
