"""Binary columnar CDR store: the ``.cdrz`` on-disk format.

A ``.cdrz`` file is one NPZ container (an uncompressed ZIP of ``.npy``
members, loadable with plain ``np.load``) holding the six
:class:`~repro.cdr.columnar.ColumnarCDRBatch` arrays, the three dictionary
tables for car/carrier/technology codes, and a JSON header with a schema
version, the row count and a sortedness flag so ``assume_sorted`` survives
the round trip.  Because every member is stored (never deflated) and the
members' byte ranges are recoverable from the ZIP directory, the numeric
columns memory-map straight out of the container: a full-batch load is a
handful of header reads plus six ``np.memmap`` views — no parsing, no
row-by-row Python, and no :class:`~repro.cdr.records.ConnectionRecord`
objects ever constructed (``repro.cdr.records.count_record_constructions``
asserts exactly that in the tests).

The writer emits members itself (fixed timestamps, fixed order, explicit
``ZIP_STORED``) so two writes of the same batch produce byte-identical
files, which the determinism tooling (repro-lint, the parallel generator's
parity checksums) can diff directly.

Multi-shard traces are a directory of ``shard-NNNNN.cdrz`` files;
:func:`iter_cdrz_chunks` streams any file, directory or explicit path list
as bounded-size :class:`ColumnarCDRBatch` chunks whose arrays are *slices*
of the memory map — the out-of-core input of
:meth:`repro.core.fused.FusedEngine.consume`.
"""

from __future__ import annotations

import json
import struct
import zipfile
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import Any, BinaryIO

import numpy as np
import numpy.typing as npt

from repro.cdr.columnar import ColumnarCDRBatch
from repro.cdr.errors import CDRValidationError

#: Current ``.cdrz`` schema version; bump on any layout change.
SCHEMA_VERSION = 1

#: Canonical file suffix; readers accept any NPZ-shaped container.
CDRZ_SUFFIX = ".cdrz"

#: Member holding the JSON header (a 0-d unicode array).
_HEADER_KEY = "header"

#: Numeric columns, written in this order, with their required dtypes.
_COLUMN_DTYPES: tuple[tuple[str, np.dtype[Any]], ...] = (
    ("start", np.dtype(np.float64)),
    ("duration", np.dtype(np.float64)),
    ("cell_id", np.dtype(np.int64)),
    ("car_code", np.dtype(np.int32)),
    ("carrier_code", np.dtype(np.int16)),
    ("tech_code", np.dtype(np.int16)),
)

#: Dictionary tables, written after the columns, as unicode arrays.
_VOCAB_KEYS = ("car_ids", "carriers", "technologies")

#: Fixed DOS timestamp for every member: byte-identical rewrites.
_MEMBER_DATE_TIME = (1980, 1, 1, 0, 0, 0)

#: Default chunk size of the streaming reader (rows per chunk).
DEFAULT_CHUNK_ROWS = 262_144

#: Filename pattern of sharded traces written by :func:`write_sharded_cdrz`.
_SHARD_NAME = "shard-{index:05d}.cdrz"


@dataclass(frozen=True)
class CdrzHeader:
    """Parsed ``.cdrz`` header fields.

    Attributes
    ----------
    schema_version:
        Layout version of the container; readers reject versions they do
        not know (forward compatibility is explicit, never silent).
    n_rows:
        Row count of every column array.
    sorted:
        True when the rows are in exact record order (start, car, cell,
        carrier, technology, duration) — the order ``CDRBatch`` maintains —
        so a load can pass ``assume_sorted=True`` and skip the O(n log n)
        construction sort.
    t_min / t_max:
        Earliest record start and latest record end in the shard, in study
        seconds, or ``None`` for an empty shard (and for containers written
        before these fields existed).  They let manifest-level planning —
        ``repro-cars inspect`` day spans, the service's ingest detection —
        reason about a shard's calendar coverage from the header alone,
        without paging in any column data.
    """

    schema_version: int
    n_rows: int
    sorted: bool
    t_min: float | None = None
    t_max: float | None = None

    def to_json(self) -> str:
        """Serialize with sorted keys, for byte-stable containers."""
        return json.dumps(
            {
                "format": "cdrz",
                "n_rows": self.n_rows,
                "schema_version": self.schema_version,
                "sorted": self.sorted,
                "t_max": self.t_max,
                "t_min": self.t_min,
            },
            sort_keys=True,
        )


@dataclass(frozen=True)
class CdrzMemberInfo:
    """Shape/dtype/storage facts of one container member, for ``inspect``."""

    name: str
    dtype: str
    shape: tuple[int, ...]
    nbytes: int
    compressed: bool


@dataclass(frozen=True)
class CdrzInfo:
    """Everything ``repro inspect`` reports about a ``.cdrz`` file."""

    path: str
    file_bytes: int
    header: CdrzHeader
    members: tuple[CdrzMemberInfo, ...]
    n_cars: int
    n_carriers: int
    n_technologies: int


def is_record_sorted(batch: ColumnarCDRBatch) -> bool:
    """Whether rows are already in exact record order, checked vectorized.

    One adjacent-row lexicographic comparison over the six sort keys —
    O(n) with no Python loop over rows, so writers can auto-detect the
    sortedness flag instead of trusting the caller.  Codes compare like
    their strings because the vocabularies are sorted.
    """
    return keys_in_record_order(
        (
            batch.start,
            batch.car_code,
            batch.cell_id,
            batch.carrier_code,
            batch.tech_code,
            batch.duration,
        )
    )


def keys_in_record_order(keys: Sequence[npt.NDArray[Any]]) -> bool:
    """:func:`is_record_sorted` over bare columns.

    ``keys`` are the record sort keys, most significant first: start, car
    code, cell id, carrier code, technology code, duration.
    """
    n = len(keys[0])
    if n <= 1:
        return True
    still_tied = np.ones(n - 1, dtype=bool)
    for key in keys:
        head, tail = key[:-1], key[1:]
        if bool(np.any(still_tied & (head > tail))):
            return False
        still_tied &= head == tail
        if not still_tied.any():
            return True
    return True


def _write_member(zf: zipfile.ZipFile, name: str, array: npt.NDArray[Any]) -> None:
    """Append one ``.npy`` member, stored, with a fixed timestamp."""
    info = zipfile.ZipInfo(name + ".npy", date_time=_MEMBER_DATE_TIME)
    info.compress_type = zipfile.ZIP_STORED
    info.external_attr = 0o644 << 16
    with zf.open(info, "w") as member:
        # write_array serializes any layout as C-order bytes itself; wrapping
        # in ascontiguousarray would promote the 0-d header to 1-d.
        np.lib.format.write_array(member, array, allow_pickle=False)


def _vocab_array(vocab: Sequence[str]) -> npt.NDArray[Any]:
    """Dictionary table as a fixed-width unicode array (pickle-free)."""
    return np.asarray(list(vocab), dtype=np.str_)


def write_batch_cdrz(
    path: str | Path,
    batch: ColumnarCDRBatch,
    *,
    assume_sorted: bool | None = None,
) -> int:
    """Write a columnar batch as one ``.cdrz`` container; returns the rows.

    ``assume_sorted`` records whether the rows are in exact record order.
    ``None`` (the default) auto-detects with a vectorized adjacent-row
    check; pass ``True``/``False`` only when the caller can prove it —
    a wrong ``True`` would make loads skip a sort they needed.
    """
    if assume_sorted is None:
        assume_sorted = is_record_sorted(batch)
    t_min: float | None = None
    t_max: float | None = None
    if len(batch):
        t_min = float(batch.start.min())
        t_max = float((batch.start + batch.duration).max())
    header = CdrzHeader(
        schema_version=SCHEMA_VERSION,
        n_rows=len(batch),
        sorted=assume_sorted,
        t_min=t_min,
        t_max=t_max,
    )
    with open(path, "wb") as fh:
        with zipfile.ZipFile(fh, "w", zipfile.ZIP_STORED) as zf:
            _write_member(zf, _HEADER_KEY, np.asarray(header.to_json()))
            for name, dtype in _COLUMN_DTYPES:
                column: npt.NDArray[Any] = getattr(batch, name)
                _write_member(zf, name, column.astype(dtype, copy=False))
            _write_member(zf, "car_ids", _vocab_array(batch.car_ids))
            _write_member(zf, "carriers", _vocab_array(batch.carriers))
            _write_member(zf, "technologies", _vocab_array(batch.technologies))
    return header.n_rows


def write_sharded_cdrz(
    directory: str | Path,
    batch: ColumnarCDRBatch,
    *,
    shard_rows: int,
) -> list[Path]:
    """Split a batch row-wise into ``shard-NNNNN.cdrz`` files under a directory.

    A batch out of record order is sorted into it first, so the shards
    form one globally start-sorted stream — the order a shard fold
    requires.  Shards are contiguous row ranges (zero-copy slices of a
    sorted batch), so reading them back in filename order reproduces the
    sorted row stream; every shard carries the full dictionary tables.
    Returns the written paths in order.  An empty batch still writes one
    empty shard so the directory round-trips.
    """
    if shard_rows < 1:
        raise CDRValidationError(f"shard_rows must be >= 1, got {shard_rows}")
    if not is_record_sorted(batch):
        batch = batch.sorted()
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths: list[Path] = []
    n = len(batch)
    for index, lo in enumerate(range(0, max(n, 1), shard_rows)):
        shard = batch.rows(lo, min(lo + shard_rows, n))
        shard_path = directory / _SHARD_NAME.format(index=index)
        write_batch_cdrz(shard_path, shard, assume_sorted=True)
        paths.append(shard_path)
    return paths


def _parse_header(raw: object, path: str | Path) -> CdrzHeader:
    """Decode and validate the JSON header member."""
    try:
        fields = json.loads(str(raw))
    except json.JSONDecodeError as exc:
        raise CDRValidationError(f"{path}: malformed cdrz header: {exc}") from exc
    if not isinstance(fields, dict) or fields.get("format") != "cdrz":
        raise CDRValidationError(f"{path}: not a cdrz container header: {fields!r}")
    version = fields.get("schema_version")
    if version != SCHEMA_VERSION:
        raise CDRValidationError(
            f"{path}: unsupported cdrz schema version {version!r} "
            f"(this reader supports {SCHEMA_VERSION})"
        )
    n_rows = fields.get("n_rows")
    if not isinstance(n_rows, int) or n_rows < 0:
        raise CDRValidationError(f"{path}: invalid cdrz row count {n_rows!r}")
    spans: dict[str, float | None] = {}
    for key in ("t_min", "t_max"):
        value = fields.get(key)
        if value is not None and not isinstance(value, (int, float)):
            raise CDRValidationError(f"{path}: invalid cdrz {key} {value!r}")
        spans[key] = None if value is None else float(value)
    return CdrzHeader(
        schema_version=version,
        n_rows=n_rows,
        sorted=bool(fields.get("sorted")),
        t_min=spans["t_min"],
        t_max=spans["t_max"],
    )


def _member_payload_span(
    zf: zipfile.ZipFile, fh: BinaryIO, name: str
) -> tuple[tuple[int, ...], np.dtype[Any], int] | None:
    """Locate a stored member's array payload inside the container.

    Returns ``(shape, dtype, absolute offset)`` of the raw array bytes, or
    ``None`` when the member cannot be memory-mapped (deflated member, or
    an ``.npy`` version this code does not parse) and the caller must fall
    back to a buffered ``np.load``.
    """
    try:
        info = zf.getinfo(name + ".npy")
    except KeyError:
        return None
    if info.compress_type != zipfile.ZIP_STORED:
        return None
    fh.seek(info.header_offset)
    local = fh.read(30)
    if len(local) != 30 or local[:4] != b"PK\x03\x04":
        return None
    name_len, extra_len = struct.unpack("<HH", local[26:30])
    fh.seek(info.header_offset + 30 + name_len + extra_len)
    version = np.lib.format.read_magic(fh)
    if version == (1, 0):
        shape, fortran, dtype = np.lib.format.read_array_header_1_0(fh)
    elif version == (2, 0):
        shape, fortran, dtype = np.lib.format.read_array_header_2_0(fh)
    else:
        return None
    if fortran or dtype.hasobject:
        return None
    return shape, dtype, fh.tell()


def _mmap_column(
    path: Path, zf: zipfile.ZipFile, fh: BinaryIO, name: str, dtype: np.dtype[Any]
) -> npt.NDArray[Any] | None:
    """Memory-map one numeric column, or ``None`` to request the fallback."""
    span = _member_payload_span(zf, fh, name)
    if span is None:
        return None
    shape, stored_dtype, offset = span
    if stored_dtype != dtype or len(shape) != 1:
        return None
    if shape[0] == 0:
        return np.empty(0, dtype=dtype)
    view: npt.NDArray[Any] = np.asarray(
        np.memmap(path, dtype=dtype, mode="r", offset=offset, shape=shape)
    )
    return view


def read_cdrz(
    path: str | Path, *, mmap: bool = True
) -> tuple[ColumnarCDRBatch, CdrzHeader]:
    """Load a ``.cdrz`` container as ``(batch, header)``.

    With ``mmap=True`` (the default) the six numeric columns are
    ``np.memmap`` views into the file — the load reads only the ZIP
    directory, the header and the dictionary tables, and row data is paged
    in lazily on first touch.  Containers whose members turn out to be
    compressed (written by a foreign tool with ``np.savez_compressed``)
    fall back to a buffered load transparently.

    No :class:`~repro.cdr.records.ConnectionRecord` objects are built on
    this path.
    """
    path = Path(path)
    try:
        npz = np.load(path, allow_pickle=False)
    except (OSError, ValueError) as exc:
        raise CDRValidationError(f"{path}: unreadable cdrz container: {exc}") from exc
    with npz:
        if _HEADER_KEY not in npz.files:
            raise CDRValidationError(f"{path}: cdrz container missing header member")
        header = _parse_header(npz[_HEADER_KEY][()], path)
        vocabs: dict[str, tuple[str, ...]] = {}
        for key in _VOCAB_KEYS:
            if key not in npz.files:
                raise CDRValidationError(f"{path}: cdrz container missing {key!r}")
            vocabs[key] = tuple(str(v) for v in npz[key].tolist())
        columns: dict[str, npt.NDArray[Any]] = {}
        if mmap:
            with zipfile.ZipFile(path) as zf, open(path, "rb") as fh:
                for name, dtype in _COLUMN_DTYPES:
                    view = _mmap_column(path, zf, fh, name, dtype)
                    if view is None:
                        columns.clear()
                        break
                    columns[name] = view
        if not columns:
            for name, dtype in _COLUMN_DTYPES:
                if name not in npz.files:
                    raise CDRValidationError(f"{path}: cdrz container missing {name!r}")
                columns[name] = npz[name].astype(dtype, copy=False)
    for name, column in columns.items():
        if len(column) != header.n_rows:
            raise CDRValidationError(
                f"{path}: column {name!r} has {len(column)} rows, "
                f"header says {header.n_rows}"
            )
    batch = ColumnarCDRBatch(
        columns["start"],
        columns["duration"],
        columns["cell_id"],
        columns["car_code"],
        columns["carrier_code"],
        columns["tech_code"],
        vocabs["car_ids"],
        vocabs["carriers"],
        vocabs["technologies"],
    )
    return batch, header


def read_batch_cdrz(path: str | Path, *, mmap: bool = True) -> ColumnarCDRBatch:
    """Load just the columnar batch from a ``.cdrz`` container."""
    batch, _ = read_cdrz(path, mmap=mmap)
    return batch


@dataclass(frozen=True)
class ShardManifestEntry:
    """Header-level facts about one shard, in fold order.

    ``t_min``/``t_max`` mirror the header's time-span fields and are
    ``None`` for empty shards or pre-span containers.
    """

    path: str
    n_rows: int
    sorted: bool
    t_min: float | None = None
    t_max: float | None = None


def read_cdrz_header(path: str | Path) -> CdrzHeader:
    """Read just the header member of a container (no column data paged in)."""
    try:
        npz = np.load(Path(path), allow_pickle=False)
    except (OSError, ValueError) as exc:
        raise CDRValidationError(f"{path}: unreadable cdrz container: {exc}") from exc
    with npz:
        if _HEADER_KEY not in npz.files:
            raise CDRValidationError(f"{path}: cdrz container missing header member")
        return _parse_header(npz[_HEADER_KEY][()], path)


def shard_manifest(
    source: str | Path | Sequence[str | Path],
) -> list[ShardManifestEntry]:
    """Describe every shard of a trace, in the order a reduce must fold them.

    The manifest is the planning surface of the map-reduce layer: row
    counts per shard (for balancing expectations), the sortedness flags
    (every shard of a start-ordered trace should carry ``sorted=True``),
    and — critically — the fold order itself, which is
    :func:`resolve_shards` order (filename order for a directory).  Only
    headers are read; no column data is paged in.
    """
    entries = []
    for path in resolve_shards(source):
        header = read_cdrz_header(path)
        entries.append(
            ShardManifestEntry(
                path=str(path),
                n_rows=header.n_rows,
                sorted=header.sorted,
                t_min=header.t_min,
                t_max=header.t_max,
            )
        )
    return entries


def resolve_shards(source: str | Path | Sequence[str | Path]) -> list[Path]:
    """Normalize a file, directory or path list into an ordered shard list.

    Directories contribute their ``*.cdrz`` files sorted by name, which is
    the order :func:`write_sharded_cdrz` numbers them in; explicit lists
    are kept as given.
    """
    if isinstance(source, (str, Path)):
        path = Path(source)
        if path.is_dir():
            shards = sorted(path.glob("*" + CDRZ_SUFFIX))
            if not shards:
                raise CDRValidationError(f"no *{CDRZ_SUFFIX} shards under {path}")
            return shards
        return [path]
    return [Path(p) for p in source]


def iter_cdrz_chunks(
    source: str | Path | Sequence[str | Path],
    *,
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
    mmap: bool = True,
) -> Iterator[ColumnarCDRBatch]:
    """Stream one or many ``.cdrz`` shards as bounded columnar chunks.

    Chunks are contiguous row slices of each shard's (memory-mapped)
    columns, at most ``chunk_rows`` long, yielded in shard order then row
    order — the same global row stream the shards were written from.
    Empty shards yield nothing.  Peak memory is one chunk's worth of
    touched pages, independent of trace size, which is what lets the
    fused engine (:meth:`repro.core.fused.FusedEngine.consume`) process
    month-scale traces on a laptop.  The engine needs rows in record
    order, so a shard out of it is sorted first, holding that one shard
    in memory.
    """
    if chunk_rows < 1:
        raise CDRValidationError(f"chunk_rows must be >= 1, got {chunk_rows}")
    for path in resolve_shards(source):
        batch = read_batch_cdrz(path, mmap=mmap)
        if not is_record_sorted(batch):
            batch = batch.sorted()
        for lo in range(0, len(batch), chunk_rows):
            yield batch.rows(lo, min(lo + chunk_rows, len(batch)))


def inspect_cdrz(path: str | Path) -> CdrzInfo:
    """Gather the facts ``repro inspect`` prints about a container."""
    path = Path(path)
    batch, header = read_cdrz(path, mmap=True)
    members: list[CdrzMemberInfo] = []
    with zipfile.ZipFile(path) as zf:
        infos = {info.filename: info for info in zf.infolist()}
    with np.load(path, allow_pickle=False) as npz:
        for name in npz.files:
            array = npz[name]
            zip_info = infos.get(name + ".npy")
            members.append(
                CdrzMemberInfo(
                    name=name,
                    dtype=str(array.dtype),
                    shape=tuple(array.shape),
                    nbytes=int(array.nbytes),
                    compressed=(
                        zip_info is not None
                        and zip_info.compress_type != zipfile.ZIP_STORED
                    ),
                )
            )
    return CdrzInfo(
        path=str(path),
        file_bytes=path.stat().st_size,
        header=header,
        members=tuple(members),
        n_cars=len(batch.car_ids),
        n_carriers=len(batch.carriers),
        n_technologies=len(batch.technologies),
    )
