"""Columnar CDR storage: the cheap-at-volume record container.

A :class:`ColumnarCDRBatch` holds the same six fields as a list of
:class:`~repro.cdr.records.ConnectionRecord` objects, but as NumPy arrays
plus small string vocabularies — tens of bytes per record become ~26, and
cleaning rules (ghost drop, truncation) and per-car grouping become single
vectorized operations instead of per-record Python.  It round-trips
losslessly to and from :class:`~repro.cdr.records.CDRBatch` and is the wire
format parallel trace-generation workers use to ship their shards back to
the parent process (arrays pickle far faster than dataclass instances).

Row order is whatever the source had; nothing here sorts implicitly.
``sorted()`` applies the exact record ordering (start, car, cell, carrier,
technology, duration) via one stable lexsort.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from typing import Any

import numpy as np
import numpy.typing as npt

from repro.cdr.errors import CDRValidationError
from repro.cdr.records import CDRBatch, ConnectionRecord


class ColumnarCDRBatch:
    """Connection records stored column-wise.

    ``car_code``, ``carrier_code`` and ``tech_code`` index into the sorted
    vocabularies ``car_ids``, ``carriers`` and ``technologies``; because the
    vocabularies are lexicographically sorted, comparing codes is the same
    as comparing the strings, which is what lets :meth:`sort_order` use a
    pure-integer lexsort.
    """

    __slots__ = (
        "start",
        "duration",
        "cell_id",
        "car_code",
        "carrier_code",
        "tech_code",
        "car_ids",
        "carriers",
        "technologies",
    )

    start: npt.NDArray[np.float64]
    duration: npt.NDArray[np.float64]
    cell_id: npt.NDArray[np.int64]
    car_code: npt.NDArray[np.int32]
    carrier_code: npt.NDArray[np.int16]
    tech_code: npt.NDArray[np.int16]
    car_ids: tuple[str, ...]
    carriers: tuple[str, ...]
    technologies: tuple[str, ...]

    def __init__(
        self,
        start: npt.ArrayLike,
        duration: npt.ArrayLike,
        cell_id: npt.ArrayLike,
        car_code: npt.ArrayLike,
        carrier_code: npt.ArrayLike,
        tech_code: npt.ArrayLike,
        car_ids: Sequence[str],
        carriers: Sequence[str],
        technologies: Sequence[str],
    ) -> None:
        self.start = np.asarray(start, dtype=np.float64)
        self.duration = np.asarray(duration, dtype=np.float64)
        self.cell_id = np.asarray(cell_id, dtype=np.int64)
        self.car_code = np.asarray(car_code, dtype=np.int32)
        self.carrier_code = np.asarray(carrier_code, dtype=np.int16)
        self.tech_code = np.asarray(tech_code, dtype=np.int16)
        self.car_ids = tuple(car_ids)
        self.carriers = tuple(carriers)
        self.technologies = tuple(technologies)
        n = len(self.start)
        for name in ("duration", "cell_id", "car_code", "carrier_code", "tech_code"):
            if len(getattr(self, name)) != n:
                raise CDRValidationError(
                    f"columnar batch column {name!r} has "
                    f"{len(getattr(self, name))} rows, expected {n}"
                )

    # -- construction --------------------------------------------------

    @classmethod
    def from_records(
        cls, records: Iterable[ConnectionRecord]
    ) -> "ColumnarCDRBatch":
        """Encode records column-wise, preserving their order."""
        records = records if isinstance(records, list) else list(records)
        n = len(records)
        start = np.fromiter((r.start for r in records), np.float64, count=n)
        duration = np.fromiter((r.duration for r in records), np.float64, count=n)
        cell_id = np.fromiter((r.cell_id for r in records), np.int64, count=n)
        car_ids, car_code = _encode([r.car_id for r in records])
        carriers, carrier_code = _encode([r.carrier for r in records])
        technologies, tech_code = _encode([r.technology for r in records])
        return cls(
            start,
            duration,
            cell_id,
            car_code,
            carrier_code,
            tech_code,
            car_ids,
            carriers,
            technologies,
        )

    @classmethod
    def from_arrays(
        cls,
        start: npt.ArrayLike,
        duration: npt.ArrayLike,
        cell_id: npt.ArrayLike,
        car_id: Sequence[str],
        carrier: Sequence[str],
        technology: Sequence[str],
    ) -> "ColumnarCDRBatch":
        """Encode raw per-row columns, preserving their order.

        The string columns are dictionary-encoded into sorted vocabularies
        exactly as :meth:`from_records` would; the numeric columns pass
        straight through.  This is the entry point for block parsers that
        never materialize :class:`~repro.cdr.records.ConnectionRecord`
        objects (``repro.cdr.io.read_columnar_csv`` and friends).
        """
        car_ids, car_code = _encode(list(car_id))
        carriers, carrier_code = _encode(list(carrier))
        technologies, tech_code = _encode(list(technology))
        return cls(
            start,
            duration,
            cell_id,
            car_code,
            carrier_code,
            tech_code,
            car_ids,
            carriers,
            technologies,
        )

    @classmethod
    def concatenate(
        cls, shards: Sequence["ColumnarCDRBatch"]
    ) -> "ColumnarCDRBatch":
        """Stack shards row-wise, merging their vocabularies.

        Shard vocabularies generally differ (each worker only saw its own
        cars), so codes are remapped into the union vocabulary.
        """
        if not shards:
            return cls.from_records([])
        if len(shards) == 1:
            return shards[0]
        car_ids = sorted(set().union(*(s.car_ids for s in shards)))
        carriers = sorted(set().union(*(s.carriers for s in shards)))
        technologies = sorted(set().union(*(s.technologies for s in shards)))
        return cls(
            np.concatenate([s.start for s in shards]),
            np.concatenate([s.duration for s in shards]),
            np.concatenate([s.cell_id for s in shards]),
            np.concatenate(
                [_remap(s.car_code, s.car_ids, car_ids) for s in shards]
            ),
            np.concatenate(
                [_remap(s.carrier_code, s.carriers, carriers) for s in shards]
            ),
            np.concatenate(
                [
                    _remap(s.tech_code, s.technologies, technologies)
                    for s in shards
                ]
            ),
            car_ids,
            carriers,
            technologies,
        )

    # -- conversion ----------------------------------------------------

    def to_records(self) -> list[ConnectionRecord]:
        """Materialize the rows as record objects, in row order."""
        cars = self.car_ids
        carriers = self.carriers
        technologies = self.technologies
        return [
            ConnectionRecord(
                start=s,
                car_id=cars[car],
                cell_id=cell,
                carrier=carriers[carrier],
                technology=technologies[tech],
                duration=d,
            )
            for s, d, cell, car, carrier, tech in zip(
                self.start.tolist(),
                self.duration.tolist(),
                self.cell_id.tolist(),
                self.car_code.tolist(),
                self.carrier_code.tolist(),
                self.tech_code.tolist(),
            )
        ]

    def to_batch(self) -> CDRBatch:
        """Convert to a :class:`CDRBatch`, sorting only when necessary.

        The resulting batch carries this columnar view (re-ordered the same
        way) so grouping helpers stay vectorized.
        """
        order = self.sort_order()
        if np.array_equal(order, np.arange(len(order))):
            col = self
        else:
            col = self.take(order)
        batch = CDRBatch(col.to_records(), assume_sorted=True)
        batch._columnar = col
        return batch

    # -- vectorized operations -----------------------------------------

    def validate(self, source: str) -> None:
        """Raise :class:`CDRValidationError` unless every row could be a record.

        The :class:`ConnectionRecord` invariants, checked as array ops, plus
        every code inside its vocabulary; what each trace reader checks
        before handing columns on, since no record is built to check them.
        """
        negative = self.duration < 0
        if bool(np.any(negative)):
            row = int(np.flatnonzero(negative)[0])
            raise CDRValidationError(
                f"{source}: record duration must be non-negative, "
                f"got {self.duration[row]} at row {row}"
            )
        if "" in self.car_ids:
            raise CDRValidationError(f"{source}: record car_id must be non-empty")
        for name, vocab in (
            ("car_code", self.car_ids),
            ("carrier_code", self.carriers),
            ("tech_code", self.technologies),
        ):
            codes: npt.NDArray[Any] = getattr(self, name)
            outside = (codes < 0) | (codes >= len(vocab))
            if bool(np.any(outside)):
                row = int(np.flatnonzero(outside)[0])
                raise CDRValidationError(
                    f"{source}: {name} {codes[row]} at row {row} is outside "
                    f"its {len(vocab)}-entry vocabulary"
                )

    def __len__(self) -> int:
        return len(self.start)

    def take(self, indices: npt.NDArray[np.intp]) -> "ColumnarCDRBatch":
        """Row subset/permutation by index array; vocabularies are shared."""
        return ColumnarCDRBatch(
            self.start[indices],
            self.duration[indices],
            self.cell_id[indices],
            self.car_code[indices],
            self.carrier_code[indices],
            self.tech_code[indices],
            self.car_ids,
            self.carriers,
            self.technologies,
        )

    def rows(self, lo: int, hi: int) -> "ColumnarCDRBatch":
        """Contiguous row slice ``[lo, hi)`` as array *views* — zero copy.

        Unlike :meth:`take` (fancy indexing, which copies), a contiguous
        slice shares the parent's buffers, so chunking a memory-mapped
        batch into pieces never reads the file.  Vocabularies are shared.
        """
        return ColumnarCDRBatch(
            self.start[lo:hi],
            self.duration[lo:hi],
            self.cell_id[lo:hi],
            self.car_code[lo:hi],
            self.carrier_code[lo:hi],
            self.tech_code[lo:hi],
            self.car_ids,
            self.carriers,
            self.technologies,
        )

    def truncated(self, max_duration: float) -> "ColumnarCDRBatch":
        """Copy with durations capped at ``max_duration`` (Section 3's 600 s)."""
        return ColumnarCDRBatch(
            self.start,
            np.minimum(self.duration, max_duration),
            self.cell_id,
            self.car_code,
            self.carrier_code,
            self.tech_code,
            self.car_ids,
            self.carriers,
            self.technologies,
        )

    def sort_order(self) -> npt.NDArray[np.intp]:
        """Stable permutation applying the record ordering.

        Matches ``sorted(records)`` exactly: codes compare like their
        strings because the vocabularies are sorted.
        """
        order: npt.NDArray[np.intp] = np.lexsort(
            (
                self.duration,
                self.tech_code,
                self.carrier_code,
                self.cell_id,
                self.car_code,
                self.start,
            )
        )
        return order

    def sorted(self) -> "ColumnarCDRBatch":
        """Copy in record order (start, car, cell, carrier, tech, duration)."""
        return self.take(self.sort_order())

    def group_rows_by_car(self) -> dict[str, npt.NDArray[np.intp]]:
        """Row indices per car id, preserving row order inside each group.

        One stable argsort over the car codes replaces per-record dict
        appends; when rows are time-sorted, each group is chronological.
        """
        if len(self) == 0:
            return {}
        order = np.argsort(self.car_code, kind="stable")
        codes = self.car_code[order]
        boundaries = np.flatnonzero(np.diff(codes)) + 1
        groups = np.split(order, boundaries)
        return {self.car_ids[int(self.car_code[g[0]])]: g for g in groups}

    def group_rows_by_cell(self) -> dict[int, npt.NDArray[np.intp]]:
        """Row indices per cell id, preserving row order inside each group.

        The cell-side analogue of :meth:`group_rows_by_car`: one stable
        argsort over the cell ids, so each group stays chronological when
        the rows are time-sorted.
        """
        if len(self) == 0:
            return {}
        order = np.argsort(self.cell_id, kind="stable")
        ids = self.cell_id[order]
        boundaries = np.flatnonzero(np.diff(ids)) + 1
        groups = np.split(order, boundaries)
        return {int(self.cell_id[g[0]]): g for g in groups}

    def present_car_codes(self) -> npt.NDArray[np.int32]:
        """Sorted car codes that actually occur in the rows.

        After :meth:`take` subsets, the shared vocabulary may list cars
        with no remaining rows; analyses that report per-car results index
        only the present ones.
        """
        out: npt.NDArray[np.int32] = np.unique(self.car_code)
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ColumnarCDRBatch):
            return NotImplemented
        return (
            self.car_ids == other.car_ids
            and self.carriers == other.carriers
            and self.technologies == other.technologies
            and np.array_equal(self.start, other.start)
            and np.array_equal(self.duration, other.duration)
            and np.array_equal(self.cell_id, other.cell_id)
            and np.array_equal(self.car_code, other.car_code)
            and np.array_equal(self.carrier_code, other.carrier_code)
            and np.array_equal(self.tech_code, other.tech_code)
        )

    __hash__ = None  # type: ignore[assignment]  # mutable arrays; not hashable

    @property
    def nbytes(self) -> int:
        """Total array storage in bytes (excluding vocabularies)."""
        total: int = sum(
            getattr(self, name).nbytes
            for name in (
                "start",
                "duration",
                "cell_id",
                "car_code",
                "carrier_code",
                "tech_code",
            )
        )
        return total


def _encode(values: list[str]) -> tuple[list[str], npt.NDArray[Any]]:
    """Sorted vocabulary plus per-row codes for a string column."""
    if not values:
        return [], np.empty(0, dtype=np.int64)
    vocab, codes = np.unique(np.asarray(values, dtype=object), return_inverse=True)
    return [str(v) for v in vocab], codes


def _remap(
    codes: npt.NDArray[Any], vocab: Sequence[str], union: Sequence[str]
) -> npt.NDArray[Any]:
    """Re-express ``codes`` over ``vocab`` as codes over ``union``."""
    if not len(vocab) or tuple(vocab) == tuple(union):
        return codes
    mapping: npt.NDArray[np.intp] = np.searchsorted(
        np.asarray(union, dtype=object), np.asarray(vocab, dtype=object)
    )
    return mapping[codes]
