"""Property tests: random batches survive every ``.cdrz`` round trip.

Three invariants, each checked on arbitrary (including empty, single-car
and unsorted) batches:

* write -> mmap-read returns an equal columnar batch, bit for bit;
* cdrz -> records -> cdrz reproduces the identical container bytes for
  sorted input (the record detour loses nothing);
* the gzipped-CSV text path and the binary path converge on identical
  container bytes (``repr(float)`` round-trips exactly and the block
  parser parses correctly rounded), so cross-format equality is exact.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cdr.columnar import ColumnarCDRBatch
from repro.cdr.io import load_trace, read_columnar_csv, write_columnar_csv
from repro.cdr.records import ConnectionRecord, count_record_constructions
from repro.cdr.store import read_batch_cdrz, read_cdrz, write_batch_cdrz

_ids = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789-_", min_size=1, max_size=8
)
_floats = st.floats(
    min_value=0.0, max_value=1e12, allow_nan=False, allow_infinity=False
)

_records = st.builds(
    ConnectionRecord,
    start=_floats,
    car_id=_ids,
    cell_id=st.integers(min_value=-(2**40), max_value=2**40),
    carrier=_ids,
    technology=_ids,
    duration=_floats,
)

#: Unsorted by construction; includes the empty and single-car cases.
_batches = st.lists(_records, max_size=60).map(ColumnarCDRBatch.from_records)


@given(col=_batches)
@settings(max_examples=60, deadline=None)
def test_write_then_mmap_read_is_identity(col, tmp_path_factory):
    path = tmp_path_factory.mktemp("cdrz") / "t.cdrz"
    write_batch_cdrz(path, col)
    with count_record_constructions() as counter:
        back, header = read_cdrz(path)
    assert counter.count == 0
    assert back == col
    assert header.n_rows == len(col)


@given(col=_batches)
@settings(max_examples=60, deadline=None)
def test_buffered_read_matches_mmap_read(col, tmp_path_factory):
    path = tmp_path_factory.mktemp("cdrz") / "t.cdrz"
    write_batch_cdrz(path, col)
    assert read_batch_cdrz(path, mmap=False) == read_batch_cdrz(path, mmap=True)


@given(col=_batches)
@settings(max_examples=60, deadline=None)
def test_cdrz_records_cdrz_reproduces_bytes(col, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cdrz")
    first, second = tmp / "a.cdrz", tmp / "b.cdrz"
    # Row order must be canonical for the detour to be lossless; records
    # come back sorted, so start from the sorted batch.
    write_batch_cdrz(first, col.sorted())
    batch = load_trace(first)
    write_batch_cdrz(second, ColumnarCDRBatch.from_records(batch.records))
    assert first.read_bytes() == second.read_bytes()


@given(col=_batches)
@settings(max_examples=60, deadline=None)
def test_csv_and_cdrz_paths_yield_identical_containers(col, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cdrz")
    direct, via_csv = tmp / "direct.cdrz", tmp / "via_csv.cdrz"
    write_batch_cdrz(direct, col)
    csv_path = tmp / "t.csv.gz"
    write_columnar_csv(csv_path, col)
    write_batch_cdrz(via_csv, read_columnar_csv(csv_path))
    assert direct.read_bytes() == via_csv.read_bytes()
