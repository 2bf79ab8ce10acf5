"""Unit tests for the binary columnar ``.cdrz`` store."""

import re
import zipfile

import numpy as np
import pytest

from repro.cdr.columnar import ColumnarCDRBatch
from repro.cdr.errors import CDRValidationError
from repro.cdr.io import load_trace
from repro.cdr.records import ConnectionRecord, count_record_constructions
from repro.cdr.store import (
    SCHEMA_VERSION,
    CdrzHeader,
    inspect_cdrz,
    is_record_sorted,
    iter_cdrz_chunks,
    read_batch_cdrz,
    read_cdrz,
    read_cdrz_header,
    resolve_shards,
    shard_manifest,
    write_batch_cdrz,
    write_sharded_cdrz,
)


def rec(start=0.0, car="car-1", cell=1, carrier="C1", tech="4G", duration=60.0):
    return ConnectionRecord(start, car, cell, carrier, tech, duration)


RECORDS = [
    rec(start=0.0, car="car-a", cell=1, carrier="C3", tech="4G", duration=60.0),
    rec(start=100.5, car="car-b", cell=2, carrier="C1", tech="3G", duration=12.25),
    rec(start=200.0, car="car-a", cell=3, carrier="C4", tech="4G", duration=0.0),
    rec(start=0.1, car="zed", cell=7, carrier="C3", tech="2G", duration=3600.0),
]


@pytest.fixture()
def unsorted_col():
    return ColumnarCDRBatch.from_records(RECORDS)


@pytest.fixture()
def sorted_col():
    return ColumnarCDRBatch.from_records(sorted(RECORDS))


class TestRoundTrip:
    def test_mmap_round_trip_is_equal(self, tmp_path, unsorted_col):
        path = tmp_path / "t.cdrz"
        n = write_batch_cdrz(path, unsorted_col)
        assert n == len(unsorted_col)
        back, header = read_cdrz(path)
        assert back == unsorted_col
        assert header == CdrzHeader(
            schema_version=SCHEMA_VERSION,
            n_rows=len(unsorted_col),
            sorted=False,
            t_min=float(unsorted_col.start.min()),
            t_max=float((unsorted_col.start + unsorted_col.duration).max()),
        )

    def test_buffered_round_trip_is_equal(self, tmp_path, unsorted_col):
        path = tmp_path / "t.cdrz"
        write_batch_cdrz(path, unsorted_col)
        assert read_batch_cdrz(path, mmap=False) == unsorted_col

    def test_zero_record_objects_constructed(self, tmp_path, unsorted_col):
        path = tmp_path / "t.cdrz"
        write_batch_cdrz(path, unsorted_col)
        with count_record_constructions() as counter:
            read_cdrz(path)
        assert counter.count == 0

    def test_mmap_load_shares_file_buffer(self, tmp_path, unsorted_col):
        path = tmp_path / "t.cdrz"
        write_batch_cdrz(path, unsorted_col)
        back = read_batch_cdrz(path)
        # Zero-copy: the columns are views over the memory map, not copies.
        assert back.start.base is not None
        assert not back.start.flags.writeable

    def test_empty_batch_round_trips(self, tmp_path):
        empty = ColumnarCDRBatch.from_records([])
        path = tmp_path / "e.cdrz"
        write_batch_cdrz(path, empty)
        back, header = read_cdrz(path)
        assert back == empty
        assert header.n_rows == 0
        assert header.sorted

    def test_rewrite_is_byte_identical(self, tmp_path, unsorted_col):
        a, b = tmp_path / "a.cdrz", tmp_path / "b.cdrz"
        write_batch_cdrz(a, unsorted_col)
        write_batch_cdrz(b, unsorted_col)
        assert a.read_bytes() == b.read_bytes()

    def test_container_is_plain_npz(self, tmp_path, unsorted_col):
        path = tmp_path / "t.cdrz"
        write_batch_cdrz(path, unsorted_col)
        with np.load(path, allow_pickle=False) as npz:
            assert "start" in npz.files
            np.testing.assert_array_equal(npz["duration"], unsorted_col.duration)


class TestSortedness:
    def test_is_record_sorted_detects_order(self, sorted_col, unsorted_col):
        assert is_record_sorted(sorted_col)
        assert not is_record_sorted(unsorted_col)

    def test_tie_broken_by_later_key(self):
        # Equal starts: order decided by car id, then duration.
        ordered = ColumnarCDRBatch.from_records(
            [rec(car="a", duration=1.0), rec(car="a", duration=2.0), rec(car="b")]
        )
        reversed_ = ColumnarCDRBatch.from_records(
            [rec(car="b"), rec(car="a", duration=2.0), rec(car="a", duration=1.0)]
        )
        assert is_record_sorted(ordered)
        assert not is_record_sorted(reversed_)

    def test_flag_survives_round_trip(self, tmp_path, sorted_col):
        path = tmp_path / "s.cdrz"
        write_batch_cdrz(path, sorted_col)
        _, header = read_cdrz(path)
        assert header.sorted

    def test_load_trace_sorts_either_flag(self, tmp_path, sorted_col, unsorted_col):
        for name, col in (("s.cdrz", sorted_col), ("u.cdrz", unsorted_col)):
            path = tmp_path / name
            write_batch_cdrz(path, col)
            batch = load_trace(path)
            assert batch.records == sorted(RECORDS)

    def test_explicit_flag_overrides_detection(self, tmp_path, sorted_col):
        path = tmp_path / "s.cdrz"
        write_batch_cdrz(path, sorted_col, assume_sorted=False)
        _, header = read_cdrz(path)
        assert not header.sorted


class TestSharding:
    def test_shards_reassemble_in_order(self, tmp_path, sorted_col):
        paths = write_sharded_cdrz(tmp_path / "shards", sorted_col, shard_rows=3)
        assert [p.name for p in paths] == ["shard-00000.cdrz", "shard-00001.cdrz"]
        merged = ColumnarCDRBatch.concatenate(
            [read_batch_cdrz(p) for p in paths]
        )
        assert merged == sorted_col

    def test_empty_batch_writes_one_shard(self, tmp_path):
        paths = write_sharded_cdrz(
            tmp_path / "shards", ColumnarCDRBatch.from_records([]), shard_rows=10
        )
        assert len(paths) == 1
        assert read_batch_cdrz(paths[0]) == ColumnarCDRBatch.from_records([])

    def test_rejects_nonpositive_shard_rows(self, tmp_path, sorted_col):
        with pytest.raises(CDRValidationError, match="shard_rows"):
            write_sharded_cdrz(tmp_path / "s", sorted_col, shard_rows=0)

    def test_resolve_shards_on_empty_dir_raises(self, tmp_path):
        with pytest.raises(CDRValidationError, match="no .*shards"):
            resolve_shards(tmp_path)

    def test_shard_manifest_reports_fold_order(self, tmp_path, sorted_col):
        paths = write_sharded_cdrz(tmp_path / "shards", sorted_col, shard_rows=3)
        manifest = shard_manifest(tmp_path / "shards")
        assert [entry.path for entry in manifest] == [str(p) for p in paths]
        assert [entry.n_rows for entry in manifest] == [3, 1]
        assert all(entry.sorted for entry in manifest)

    def test_shard_manifest_without_column_data(self, tmp_path, sorted_col):
        write_sharded_cdrz(tmp_path / "shards", sorted_col, shard_rows=2)
        with count_record_constructions() as counter:
            manifest = shard_manifest(tmp_path / "shards")
        assert counter.count == 0
        assert sum(entry.n_rows for entry in manifest) == len(sorted_col)


class TestChunkedReader:
    def test_chunks_cover_stream_in_order(self, tmp_path, sorted_col):
        shard_dir = tmp_path / "shards"
        write_sharded_cdrz(shard_dir, sorted_col, shard_rows=3)
        for chunk_rows in (1, 2, 100):
            chunks = list(iter_cdrz_chunks(shard_dir, chunk_rows=chunk_rows))
            assert all(len(c) <= chunk_rows for c in chunks)
            assert ColumnarCDRBatch.concatenate(chunks) == sorted_col

    def test_single_file_and_path_list_sources(self, tmp_path, sorted_col):
        path = tmp_path / "t.cdrz"
        write_batch_cdrz(path, sorted_col)
        from_file = ColumnarCDRBatch.concatenate(list(iter_cdrz_chunks(path)))
        from_list = ColumnarCDRBatch.concatenate(
            list(iter_cdrz_chunks([path], chunk_rows=2))
        )
        assert from_file == sorted_col
        assert from_list == sorted_col

    def test_rejects_nonpositive_chunk_rows(self, tmp_path, sorted_col):
        path = tmp_path / "t.cdrz"
        write_batch_cdrz(path, sorted_col)
        with pytest.raises(CDRValidationError, match="chunk_rows"):
            next(iter_cdrz_chunks(path, chunk_rows=0))


class TestHeterogeneousShardLayouts:
    """Chunked streaming over shard directories with ragged shard sizes.

    At scale shards are not uniform: partial final shards, empty shards
    from quiet periods, single-row stragglers.  The reader contract is that
    the chunk stream equals the concatenated row stream whatever the shard
    layout, with chunks never crossing a shard boundary.
    """

    @pytest.fixture()
    def many_records(self):
        rng = np.random.default_rng(7)
        records = [
            rec(
                start=float(i * 10),
                car=f"car-{int(rng.integers(0, 9))}",
                cell=int(rng.integers(0, 25)),
                duration=float(rng.uniform(0, 900)),
            )
            for i in range(53)
        ]
        return sorted(records)

    def _write_ragged(self, directory, col, bounds):
        directory.mkdir(parents=True)
        for index, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
            write_batch_cdrz(directory / f"shard-{index:05d}.cdrz", col.rows(lo, hi))
        return directory

    @pytest.mark.parametrize("chunk_rows", [1, 3, 7, 1000])
    def test_ragged_shards_stream_the_full_row_order(
        self, tmp_path, many_records, chunk_rows
    ):
        col = ColumnarCDRBatch.from_records(many_records)
        # Zero-row, single-row, mid-size and jumbo shards in one directory.
        bounds = [0, 0, 1, 1, 9, 10, 45, len(many_records)]
        shard_dir = self._write_ragged(tmp_path / "ragged", col, bounds)
        chunks = list(iter_cdrz_chunks(shard_dir, chunk_rows=chunk_rows))
        assert all(len(c) <= chunk_rows for c in chunks)
        assert all(len(c) > 0 for c in chunks)  # empty shards yield nothing
        assert ColumnarCDRBatch.concatenate(chunks) == col

    def test_chunks_never_cross_shard_boundaries(self, tmp_path, many_records):
        col = ColumnarCDRBatch.from_records(many_records)
        bounds = [0, 5, 6, 6, 20, len(many_records)]
        shard_dir = self._write_ragged(tmp_path / "ragged", col, bounds)
        sizes = [len(c) for c in iter_cdrz_chunks(shard_dir, chunk_rows=4)]
        # Each shard is chunked independently: 5 -> 4+1, 1 -> 1, 0 -> (),
        # 14 -> 4+4+4+2, 33 -> 4*8+1.
        assert sizes == [4, 1, 1, 4, 4, 4, 2] + [4] * 8 + [1]

    def test_zero_row_shard_only_directory_streams_nothing(self, tmp_path):
        col = ColumnarCDRBatch.from_records([])
        shard_dir = self._write_ragged(tmp_path / "empty", col, [0, 0, 0])
        assert list(iter_cdrz_chunks(shard_dir)) == []

    def test_single_row_shards_round_trip_records(self, tmp_path, many_records):
        col = ColumnarCDRBatch.from_records(many_records[:4])
        shard_dir = self._write_ragged(tmp_path / "single", col, [0, 1, 2, 3, 4])
        assert len(resolve_shards(shard_dir)) == 4
        merged = ColumnarCDRBatch.concatenate(
            list(iter_cdrz_chunks(shard_dir, chunk_rows=1))
        )
        assert merged.to_records() == many_records[:4]

    def test_zero_record_objects_across_ragged_shards(
        self, tmp_path, many_records
    ):
        col = ColumnarCDRBatch.from_records(many_records)
        shard_dir = self._write_ragged(
            tmp_path / "ragged", col, [0, 0, 1, 30, len(many_records)]
        )
        with count_record_constructions() as counter:
            total = sum(len(c) for c in iter_cdrz_chunks(shard_dir, chunk_rows=8))
        assert counter.count == 0
        assert total == len(many_records)


def npz_members(col, header_json):
    """A batch's ``.cdrz`` members, for containers written by other tools."""
    return {
        "header": np.asarray(header_json),
        "start": col.start,
        "duration": col.duration,
        "cell_id": col.cell_id,
        "car_code": col.car_code,
        "carrier_code": col.carrier_code,
        "tech_code": col.tech_code,
        "car_ids": np.asarray(list(col.car_ids), dtype=np.str_),
        "carriers": np.asarray(list(col.carriers), dtype=np.str_),
        "technologies": np.asarray(list(col.technologies), dtype=np.str_),
    }


class TestForeignContainers:
    def test_compressed_container_falls_back_to_buffered_load(
        self, tmp_path, unsorted_col
    ):
        # A foreign writer using savez_compressed: still loads, not mmapped.
        header = CdrzHeader(
            schema_version=SCHEMA_VERSION, n_rows=len(unsorted_col), sorted=False
        )
        path = tmp_path / "foreign.cdrz"
        with open(path, "wb") as fh:
            np.savez_compressed(fh, **npz_members(unsorted_col, header.to_json()))
        back, got = read_cdrz(path)
        assert back == unsorted_col
        assert got == header

    def test_unknown_schema_version_rejected(self, tmp_path, unsorted_col):
        bad = (
            '{"format": "cdrz", "n_rows": 4, "schema_version": 99, "sorted": false}'
        )
        path = tmp_path / "v99.cdrz"
        with open(path, "wb") as fh:
            np.savez(fh, **npz_members(unsorted_col, bad))
        with pytest.raises(CDRValidationError, match="schema version"):
            read_cdrz(path)

    def test_non_cdrz_npz_rejected(self, tmp_path):
        path = tmp_path / "other.cdrz"
        with open(path, "wb") as fh:
            np.savez(fh, values=np.arange(3))
        with pytest.raises(CDRValidationError, match="missing header"):
            read_cdrz(path)

    def test_garbage_file_rejected(self, tmp_path):
        path = tmp_path / "junk.cdrz"
        path.write_bytes(b"definitely not a zip")
        with pytest.raises(CDRValidationError, match="unreadable"):
            read_cdrz(path)

    def test_row_count_mismatch_rejected(self, tmp_path, unsorted_col):
        lying = '{"format": "cdrz", "n_rows": 7, "schema_version": 1, "sorted": false}'
        path = tmp_path / "liar.cdrz"
        with open(path, "wb") as fh:
            np.savez(fh, **npz_members(unsorted_col, lying))
        with pytest.raises(CDRValidationError, match="header says 7"):
            read_cdrz(path)


def unreadable(path):
    """The start of the one error every reader raises for a damaged file."""
    return re.escape(f"{path}: unreadable cdrz container: ")


class TestDamagedContainers:
    """Every reader turns a torn or corrupt container into one
    CDRValidationError naming the path."""

    @pytest.mark.parametrize("fraction", [0.0, 0.1, 0.5, 0.9])
    @pytest.mark.parametrize("reader", [read_cdrz, read_cdrz_header, inspect_cdrz])
    def test_truncated(self, tmp_path, unsorted_col, reader, fraction):
        path = tmp_path / "t.cdrz"
        write_batch_cdrz(path, unsorted_col)
        data = path.read_bytes()
        path.write_bytes(data[: int(len(data) * fraction)])
        with pytest.raises(CDRValidationError, match=unreadable(path)):
            reader(path)

    @pytest.mark.parametrize("fraction", [0.2, 0.4, 0.6, 0.8])
    def test_corrupt_deflated_member(self, tmp_path, fraction):
        col = ColumnarCDRBatch.from_records(
            [rec(start=float(i), car=f"car-{i % 3}", cell=i) for i in range(2000)]
        )
        header = CdrzHeader(schema_version=SCHEMA_VERSION, n_rows=2000, sorted=True)
        path = tmp_path / "foreign.cdrz"
        with open(path, "wb") as fh:
            np.savez_compressed(fh, **npz_members(col, header.to_json()))
        data = bytearray(path.read_bytes())
        at = int(len(data) * fraction)
        data[at : at + 40] = bytes(b ^ 0xFF for b in data[at : at + 40])
        path.write_bytes(bytes(data))
        with pytest.raises(CDRValidationError, match=unreadable(path)):
            read_cdrz(path)


class TestRowChecks:
    """``read_cdrz`` checks the rows as the text readers do; ``inspect``
    still describes a container whose rows break an invariant."""

    @pytest.mark.parametrize(
        "column, values, message",
        [
            ("duration", [60.0, -1.0, 0.0, 1.0], "duration must be non-negative"),
            ("car_code", [0, 1, 0, 3], "car_code 3 at row 3 is outside"),
            ("carrier_code", [0, -1, 0, 0], "carrier_code -1 at row 1 is outside"),
            ("tech_code", [0, 0, 9, 0], "tech_code 9 at row 2 is outside"),
        ],
    )
    def test_invalid_rows(self, tmp_path, unsorted_col, column, values, message):
        dtype = getattr(unsorted_col, column).dtype
        setattr(unsorted_col, column, np.asarray(values, dtype=dtype))
        path = tmp_path / "t.cdrz"
        write_batch_cdrz(path, unsorted_col)
        with pytest.raises(CDRValidationError, match=message):
            read_cdrz(path)
        assert inspect_cdrz(path).header.n_rows == len(values)

    def test_empty_car_id(self, tmp_path):
        col = ColumnarCDRBatch([0.0], [1.0], [1], [0], [0], [0], [""], ["C1"], ["4G"])
        path = tmp_path / "t.cdrz"
        write_batch_cdrz(path, col)
        with pytest.raises(CDRValidationError, match="car_id must be non-empty"):
            read_batch_cdrz(path)


class TestInspect:
    def test_reports_header_members_and_vocab_sizes(self, tmp_path, unsorted_col):
        path = tmp_path / "t.cdrz"
        write_batch_cdrz(path, unsorted_col)
        info = inspect_cdrz(path)
        assert info.header.n_rows == len(unsorted_col)
        assert info.n_cars == len(unsorted_col.car_ids)
        assert info.n_carriers == len(unsorted_col.carriers)
        assert info.n_technologies == len(unsorted_col.technologies)
        names = {m.name for m in info.members}
        assert {"header", "start", "duration", "car_ids"} <= names
        assert all(not m.compressed for m in info.members)
        assert info.file_bytes == path.stat().st_size

    def test_every_member_is_stored_not_deflated(self, tmp_path, unsorted_col):
        path = tmp_path / "t.cdrz"
        write_batch_cdrz(path, unsorted_col)
        with zipfile.ZipFile(path) as zf:
            assert all(
                i.compress_type == zipfile.ZIP_STORED for i in zf.infolist()
            )
