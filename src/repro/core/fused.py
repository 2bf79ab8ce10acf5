"""Fused single-pass analysis engine over shared columnar intermediates.

Every Section 4 analysis needs the same expensive intermediates from the
same arrays: sort permutations, vocabularies, packed day/car keys, bin
fragments, and segmented session scans.  This module derives them once:
one pass per chunk computes a shared :class:`ChunkIntermediates` bundle,
and every registered analysis kernel consumes that bundle — adding an
analysis costs one kernel, not one more pass over the data.  It is the
production engine; the record-based references in the per-analysis
modules are its oracle.

Two ways to run it, strongest guarantee first:

* **Whole batch / any chunk size, one process** — :class:`FusedEngine`
  consumed over chunks of a batch (or one shard's cdrz chunks) is
  *bit-identical* to the record-based references at any chunk size.  The
  carry discipline that makes this true: float chains are carried per car
  and per carrier (``np.cumsum`` over ``[carry] + chunk values`` reproduces
  the reference's sequential adds exactly), union segments and network
  sessions carry their open tail across chunk boundaries so each closed
  segment still contributes the reference's single subtraction, and the
  set-valued statistics (distinct day/car/cell pairs) are exact integers.
* **Map-reduce across shards** — workers export a picklable
  :class:`FusedPartial` per shard and the parent folds them in shard-index
  order (:func:`repro.core.mapreduce.fold_shards_fused`).  The fold is
  deterministic and *worker-count invariant*: any ``--workers`` value
  yields the same bits.  Counts, pair sets, histograms and
  session/handover statistics merge exactly (bit-identical to the
  references); per-car, per-carrier and duration float sums merge to
  reassociation precision against a serial pass, because a sequential
  float chain cannot be reconstructed from shard subtotals.

Either way one step closes the partial: :func:`finalize_fused` returns the
paper's :class:`AnalysisReport`, and the twin statistics
(:mod:`repro.core.twinstats`) are read-outs of the same partial.

Kernels implement the small :class:`FusedAnalysis` protocol —
``consume(intermediates)`` plus the ``export_partial`` / ``absorb_partial``
pair — so the repo's merge-safety rules (RL010–RL013) apply to them
unchanged.  To register a new analysis: derive its per-chunk arithmetic
from :class:`ChunkIntermediates` (never from the raw chunk), keep every
cross-chunk float in a carried chain, give its partial an
``absorb_partial`` that folds a *later* shard into ``self``, and wire it
into :class:`FusedEngine`.  The record-based references remain the
bit-identity oracle (``tests/core/test_fused_parity.py``).
"""

from __future__ import annotations

import copy
import math
from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Protocol

import numpy as np
import numpy.typing as npt

from repro.algorithms.segments import ragged_ranges, segment_ids, segmented_cummax
from repro.algorithms.stats import binned_order_statistic
from repro.algorithms.timebins import BIN_SECONDS, DAY, StudyClock, straddled_bin_span
from repro.cdr.columnar import ColumnarCDRBatch
from repro.cdr.store import keys_in_record_order
from repro.core.busy import BusyExposure, BusySchedule, _shares
from repro.core.carriers import CARRIER_ORDER, CarrierUsage
from repro.core.clustering import (
    BusyCellClusters,
    cluster_vectors,
    require_clusterable,
)
from repro.core.concurrency import weekly_concurrency_rows
from repro.core.connect_time import ConnectTimeResult, DurationStats
from repro.core.handover import HandoverStats, HandoverType
from repro.core.preprocess import (
    GHOST_DURATION_S,
    GHOST_TOLERANCE_S,
    PreprocessConfig,
    PreprocessResult,
)
from repro.core.presence import DailyPresence, WeekdayRow, weekday_table
from repro.core.segmentation import CarSegmentation, segment_cars
from repro.network.cells import Cell

#: Collapse accumulated pair-set fragments into one union once the backlog
#: reaches this many chunk arrays, bounding finalize-time concatenation.
_PAIR_COLLAPSE = 32

#: Handover kind codes, in the classification precedence order of
#: ``classify_handover``: technology change wins, then base station,
#: sector, carrier.
_KIND_ORDER = (
    HandoverType.INTER_RAT,
    HandoverType.INTER_BASE_STATION,
    HandoverType.INTER_SECTOR,
    HandoverType.INTER_CARRIER,
)


class ChunkIntermediates:
    """Shared per-chunk derivations, computed lazily and cached.

    Built once per raw columnar chunk; the ghost drop (Section 3 rule 1)
    happens here so every kernel sees the same cleaned arrays.  Each cached
    property is computed at most once per chunk no matter how many kernels
    ask for it — that sharing *is* the fusion:

    * ``car_order`` / ``car_starts`` — one stable argsort serves the
      connect-time union scan and the handover session scan.
    * ``trunc_cummax`` — one segmented high-water-mark scan serves both the
      truncated connect-time union and the handover gap test.
    * ``day_car_packed`` / ``day_cell_pairs`` — one packed ``np.unique``
      serves daily presence *and* days-on-network.
    * ``cell_groups`` — one ``np.unique(..., return_inverse=True)`` over
      the cell column serves the busy-mask gather.

    Invariants: all rows are ghost-free; ``start``/``duration`` are the
    chunk's original row order (time-sorted for every writer in
    :mod:`repro.cdr.io`); car-major views preserve chronology within each
    car because the underlying argsort is stable.
    """

    def __init__(
        self,
        chunk: ColumnarCDRBatch,
        clock: StudyClock,
        truncate_s: float,
    ) -> None:
        self.clock = clock
        self.truncate_s = truncate_s
        duration = chunk.duration
        ghost = np.abs(duration - GHOST_DURATION_S) <= GHOST_TOLERANCE_S
        self.n_ghosts = int(np.count_nonzero(ghost))
        if self.n_ghosts:
            keep = np.flatnonzero(~ghost)
            self.start = chunk.start[keep]
            self.duration = duration[keep]
            self.cell_id = chunk.cell_id[keep]
            self.car_code = chunk.car_code[keep]
            self.carrier_code = chunk.carrier_code[keep]
            self.tech_code = chunk.tech_code[keep]
        else:
            self.start = chunk.start
            self.duration = duration
            self.cell_id = chunk.cell_id
            self.car_code = chunk.car_code
            self.carrier_code = chunk.carrier_code
            self.tech_code = chunk.tech_code
        self.car_ids = chunk.car_ids
        self.carriers = chunk.carriers
        self.n = len(self.start)

    # -- plain columns ---------------------------------------------------

    @cached_property
    def trunc_duration(self) -> npt.NDArray[np.float64]:
        """Durations capped at ``truncate_s`` (Section 3 rule 2)."""
        out: npt.NDArray[np.float64] = np.minimum(self.duration, self.truncate_s)
        return out

    @cached_property
    def present_codes(self) -> npt.NDArray[np.int64]:
        """Sorted car codes occurring in this chunk, widened to int64.

        Computed with a vocabulary-sized flag array instead of a sort: the
        vocabulary is tiny next to the chunk, so membership costs O(n)
        instead of O(n log n).
        """
        flags = np.zeros(len(self.car_ids), dtype=np.bool_)
        flags[self.car_code] = True
        out: npt.NDArray[np.int64] = np.flatnonzero(flags).astype(np.int64)
        return out

    # -- calendar --------------------------------------------------------

    @cached_property
    def _study_rows(
        self,
    ) -> tuple[npt.NDArray[np.int64], npt.NDArray[np.bool_]]:
        """In-study day index per kept row plus the in-study mask.

        Float day indices dodge int64 overflow on absurd timestamps while
        comparing exactly like the references' arbitrary-precision ints.
        """
        day_f = np.floor_divide(self.start, DAY)
        in_study = (day_f >= 0.0) & (day_f < self.clock.n_days)
        return day_f[in_study].astype(np.int64), in_study

    @property
    def study_day(self) -> npt.NDArray[np.int64]:
        """Study day index of each in-study row (see :attr:`in_study`)."""
        return self._study_rows[0]

    @property
    def in_study(self) -> npt.NDArray[np.bool_]:
        """Mask over kept rows whose start falls inside the study period."""
        return self._study_rows[1]

    @cached_property
    def day_car_packed(self) -> npt.NDArray[np.int64]:
        """Distinct ``car * n_days + day`` keys over in-study rows.

        One packed ``np.unique`` answers both Figure 2 (per-day distinct
        cars: key ``% n_days``) and Figure 6 (per-car distinct days: key
        ``// n_days``) — integer-exact equivalents of the references'
        per-record set adds.
        """
        study_day, in_study = self._study_rows
        n_days = np.int64(self.clock.n_days)
        cars = self.car_code[in_study].astype(np.int64)
        # The key space (vocabulary x study days) is tiny next to the chunk,
        # so a presence bitmap beats sorting: O(n) and already ordered.
        flags = np.zeros(len(self.car_ids) * self.clock.n_days, dtype=np.bool_)
        flags[cars * n_days + study_day] = True
        out: npt.NDArray[np.int64] = np.flatnonzero(flags).astype(np.int64)
        return out

    @cached_property
    def day_cell_pairs(
        self,
    ) -> tuple[npt.NDArray[np.int64], npt.NDArray[np.int64]]:
        """Distinct ``(day, cell_id)`` pairs over in-study rows.

        Cell ids are arbitrary (possibly huge) int64 values, so the pairs
        are packed against the chunk's dense cell codes (shared with the
        busy kernel via :attr:`cell_groups`) and returned unpacked —
        cross-chunk unions re-pack against the global cell vocabulary.
        The day-by-vocabulary key space is tiny, so a presence bitmap
        replaces the sort.
        """
        study_day, in_study = self._study_rows
        cells_v, row_codes = self.cell_groups
        codes = row_codes[in_study]
        n_vocab = np.int64(max(int(cells_v.size), 1))
        flags = np.zeros(
            self.clock.n_days * int(n_vocab), dtype=np.bool_
        )
        flags[study_day * n_vocab + codes] = True
        packed = np.flatnonzero(flags).astype(np.int64)
        return packed // n_vocab, cells_v[packed % n_vocab]

    # -- car-major views -------------------------------------------------

    @cached_property
    def _car_major(
        self,
    ) -> tuple[npt.NDArray[np.intp], npt.NDArray[np.intp]]:
        """Stable car-major permutation and per-car run starts."""
        if self.n == 0:
            empty = np.empty(0, dtype=np.intp)
            return empty, empty
        order = np.argsort(self.car_code, kind="stable").astype(np.intp)
        # Run starts fall on the cumulative counts of the present cars —
        # the sorted codes never need materializing.
        counts = np.bincount(self.car_code, minlength=len(self.car_ids))
        run_lens = counts[counts > 0]
        starts: npt.NDArray[np.intp] = np.concatenate(
            (
                np.zeros(1, dtype=np.intp),
                np.cumsum(run_lens[:-1]).astype(np.intp),
            )
        )
        return order, starts

    @property
    def car_order(self) -> npt.NDArray[np.intp]:
        """Car-major row permutation (chronological within each car)."""
        return self._car_major[0]

    @property
    def car_starts(self) -> npt.NDArray[np.intp]:
        """Offsets in :attr:`car_order` where each car's run begins."""
        return self._car_major[1]

    @cached_property
    def is_car_start(self) -> npt.NDArray[np.bool_]:
        """Boolean mask over car-major rows marking each car's first row."""
        flags = np.zeros(self.n, dtype=np.bool_)
        flags[self.car_starts] = True
        return flags

    @cached_property
    def s_sorted(self) -> npt.NDArray[np.float64]:
        """Start times in car-major order."""
        out: npt.NDArray[np.float64] = self.start[self.car_order]
        return out

    @cached_property
    def car_sorted(self) -> npt.NDArray[np.int64]:
        """Car codes in car-major order, widened to int64."""
        out = self.car_code[self.car_order].astype(np.int64)
        return out

    @cached_property
    def cell_sorted(self) -> npt.NDArray[np.int64]:
        """Cell ids in car-major order."""
        out: npt.NDArray[np.int64] = self.cell_id[self.car_order]
        return out

    @cached_property
    def full_cummax(self) -> npt.NDArray[np.float64]:
        """Segmented running max of *full* record ends, car-major."""
        ends = self.s_sorted + self.duration[self.car_order]
        return segmented_cummax(ends, self.is_car_start)

    @cached_property
    def trunc_cummax(self) -> npt.NDArray[np.float64]:
        """Segmented running max of *truncated* record ends, car-major.

        Shared by the truncated connect-time union and the handover
        session-gap test — the single most expensive scan in the chunk.
        """
        ends = self.s_sorted + self.trunc_duration[self.car_order]
        return segmented_cummax(ends, self.is_car_start)

    # -- cells and bins --------------------------------------------------

    @cached_property
    def cell_groups(
        self,
    ) -> tuple[npt.NDArray[np.int64], npt.NDArray[np.int64]]:
        """``(distinct cell ids, per-row inverse codes)`` in row order.

        When the ids are small non-negative integers (every synthetic
        topology and any sane operator export) a presence bitmap plus a
        rank table replaces the ``np.unique`` sort: O(n + max_id) instead
        of O(n log n).  Arbitrary ids fall back to ``np.unique``.
        """
        cell_id = self.cell_id
        if self.n:
            lo = int(cell_id.min())
            hi = int(cell_id.max())
            if 0 <= lo and hi < (1 << 22):
                flags = np.zeros(hi + 1, dtype=np.bool_)
                flags[cell_id] = True
                cells = np.flatnonzero(flags).astype(np.int64)
                rank = np.zeros(hi + 1, dtype=np.int64)
                rank[cells] = np.arange(cells.size, dtype=np.int64)
                return cells, rank[cell_id]
        cells, row = np.unique(cell_id, return_inverse=True)
        return cells, row.astype(np.int64)

    @cached_property
    def bin_span(
        self,
    ) -> tuple[npt.NDArray[np.int64], npt.NDArray[np.int64]]:
        """First and last 15-minute bin each *truncated* record straddles.

        Same rule as ``Interval.bins_straddled``; see
        :func:`~repro.algorithms.timebins.straddled_bin_span`.
        """
        return straddled_bin_span(self.start, self.start + self.trunc_duration)


class FusedAnalysis(Protocol):
    """What the engine requires of a registered analysis kernel.

    Beyond ``consume``, every shipped kernel also implements
    ``export_partial() -> <ItsPartial>`` with a concrete return annotation,
    and its partial class implements ``absorb_partial(partial) -> None``
    folding a *later* shard into ``self`` — the pair RL010 checks
    structurally, which is why the protocol does not redeclare them with a
    type-erased signature.
    """

    def consume(self, inter: ChunkIntermediates) -> None:
        """Fold one chunk's shared intermediates into the kernel state."""
        ...


def _car_index(union: tuple[str, ...]) -> dict[str, int]:
    """Map car id -> position in a sorted union vocabulary."""
    return {name: i for i, name in enumerate(union)}


def _union_vocab(a: tuple[str, ...], b: tuple[str, ...]) -> tuple[str, ...]:
    """Sorted union of two sorted vocabularies."""
    if a == b:
        return a
    return tuple(sorted(set(a) | set(b)))


def _remap_codes(
    old: tuple[str, ...], union: tuple[str, ...]
) -> npt.NDArray[np.int64]:
    """Old-code -> union-code translation table."""
    index = _car_index(union)
    return np.asarray([index[name] for name in old], dtype=np.int64)


def _in_vocab(
    codes: npt.NDArray[np.int64], old: tuple[str, ...], union: tuple[str, ...]
) -> npt.NDArray[np.int64]:
    """Car codes against ``old`` translated to the ``union`` vocabulary."""
    return codes if old == union else _remap_codes(old, union)[codes]


def _weld_runs(
    acc_car: npt.NDArray[np.int64], inc_car: npt.NDArray[np.int64]
) -> Iterator[tuple[int, int, int]]:
    """``(row, first, end)`` for each car both car-grouped tables hold.

    ``row`` is the car's last accumulated row, ``first:end`` its incoming
    run: the rows a chain or session weld walks, in car order.
    """
    if not (acc_car.size and inc_car.size):
        return
    last = np.flatnonzero(_last_of_each_car(acc_car))
    acc_last = dict(zip(acc_car[last].tolist(), last.tolist()))
    cars, first = np.unique(inc_car, return_index=True)
    ends = np.append(first[1:], inc_car.size)
    for car, j0, j1 in zip(cars.tolist(), first.tolist(), ends.tolist()):
        row = acc_last.get(car)
        if row is not None:
            yield row, j0, j1


def _last_of_each_car(car: npt.NDArray[np.int64]) -> npt.NDArray[np.bool_]:
    """Mask of each car's last row in a table grouped by car."""
    last = np.ones(car.size, dtype=np.bool_)
    last[:-1] = car[1:] != car[:-1]
    return last


def _dedupe_cell_days(
    days: npt.NDArray[np.int64], cells: npt.NDArray[np.int64]
) -> tuple[npt.NDArray[np.int64], npt.NDArray[np.int64]]:
    """Distinct ``(day, cell_id)`` pairs from parallel (possibly dirty) arrays."""
    vocab, codes = np.unique(cells, return_inverse=True)
    n_vocab = np.int64(max(int(vocab.size), 1))
    packed = np.unique(days * n_vocab + codes.astype(np.int64))
    return packed // n_vocab, vocab[packed % n_vocab]


#: Hours in a day: the length of :attr:`PresencePartial.hours`.
N_HOURS = 24


def _hour_counts(inter: ChunkIntermediates) -> npt.NDArray[np.int64]:
    """In-study connection starts per hour of day of one chunk."""
    hours = inter.start[inter.in_study]
    np.floor_divide(np.mod(hours, DAY, out=hours), 3600.0, out=hours)
    out: npt.NDArray[np.int64] = np.bincount(
        hours.astype(np.int64), minlength=N_HOURS
    ).astype(np.int64)
    return out


@dataclass
class PresencePartial:
    """Distinct day/car and day/cell pair sets of one shard (exact)."""

    car_ids: tuple[str, ...]
    n_days: int
    #: Distinct ``car * n_days + day`` keys, sorted.
    car_pairs: npt.NDArray[np.int64]
    #: Parallel arrays of distinct ``(day, cell_id)`` pairs.
    cell_days: npt.NDArray[np.int64]
    cell_ids: npt.NDArray[np.int64]
    #: In-study connection starts per hour of day (the diurnal shape).
    hours: npt.NDArray[np.int64]

    def absorb_partial(self, partial: "PresencePartial") -> None:
        """Union another shard's pair sets into this one (integer-exact)."""
        if partial.n_days != self.n_days:
            raise ValueError(
                f"study length mismatch: {self.n_days} vs {partial.n_days} days"
            )
        self.hours = self.hours + partial.hours
        n_days = np.int64(self.n_days)
        union = _union_vocab(self.car_ids, partial.car_ids)
        if union != self.car_ids:
            remap = _remap_codes(self.car_ids, union)
            self.car_pairs = (
                remap[self.car_pairs // n_days] * n_days + self.car_pairs % n_days
            )
        theirs = partial.car_pairs
        if union != partial.car_ids:
            remap = _remap_codes(partial.car_ids, union)
            theirs = remap[theirs // n_days] * n_days + theirs % n_days
        self.car_ids = union
        self.car_pairs = np.union1d(self.car_pairs, theirs)
        self.cell_days, self.cell_ids = _dedupe_cell_days(
            np.concatenate((self.cell_days, partial.cell_days)),
            np.concatenate((self.cell_ids, partial.cell_ids)),
        )


class PresenceKernel:
    """Figure 2: distinct cars and cells per study day; Figure 6 too.

    Accumulates the chunks' distinct packed pair sets and unions them at
    finalize — per-day counts are exact integers, so the closing divisions
    are the same single correctly-rounded IEEE operations the reference
    performs.  The day/car pair set also carries days-on-network, which
    :func:`finalize_days` reads from the same partial, and the kernel
    counts in-study starts per hour of day for the twin's diurnal shape.
    """

    def __init__(self, clock: StudyClock, car_ids: tuple[str, ...]) -> None:
        self._clock = clock
        self._car_ids = car_ids
        self._car_pairs: list[npt.NDArray[np.int64]] = []
        self._cell_days: list[npt.NDArray[np.int64]] = []
        self._cell_ids: list[npt.NDArray[np.int64]] = []
        self._hours = np.zeros(N_HOURS, dtype=np.int64)

    def consume(self, inter: ChunkIntermediates) -> None:
        self._hours += _hour_counts(inter)
        self._car_pairs.append(inter.day_car_packed)
        days, cells = inter.day_cell_pairs
        self._cell_days.append(days)
        self._cell_ids.append(cells)
        if len(self._car_pairs) >= _PAIR_COLLAPSE:
            self._collapse()

    def _collapse(self) -> None:
        # Each consumed block is already a distinct sorted pair set, so a
        # single block needs no re-dedupe — only cross-chunk unions do.
        if len(self._car_pairs) == 1:
            return
        if not self._car_pairs:
            empty = np.empty(0, dtype=np.int64)
            self._car_pairs = [empty]
            self._cell_days = [empty]
            self._cell_ids = [empty]
            return
        self._car_pairs = [np.unique(np.concatenate(self._car_pairs))]
        days, cells = _dedupe_cell_days(
            np.concatenate(self._cell_days), np.concatenate(self._cell_ids)
        )
        self._cell_days = [days]
        self._cell_ids = [cells]

    def export_partial(self) -> PresencePartial:
        self._collapse()
        return PresencePartial(
            car_ids=self._car_ids,
            n_days=self._clock.n_days,
            car_pairs=self._car_pairs[0],
            cell_days=self._cell_days[0],
            cell_ids=self._cell_ids[0],
            hours=self._hours.copy(),
        )

    def finalize(self) -> DailyPresence:
        partial = self.export_partial()
        return finalize_presence(partial, self._clock)


def finalize_presence(
    partial: PresencePartial, clock: StudyClock
) -> DailyPresence:
    """Close a presence partial into the Figure 2 series.

    Relies on the partial invariant that both pair sets hold *distinct*
    pairs (chunks emit deduplicated sets and every union re-dedupes), so
    per-day counts are plain ``bincount`` tallies: each pair counts once.
    """
    n_days = np.int64(clock.n_days)
    pairs = partial.car_pairs
    car_counts = np.bincount(pairs % n_days, minlength=clock.n_days)
    # ``car_pairs`` is sorted, so distinct cars are its run boundaries.
    codes = pairs // n_days
    n_cars_total = (
        int(np.count_nonzero(np.diff(codes))) + 1 if codes.size else 0
    )
    n_cells_total = int(np.unique(partial.cell_ids).size)
    cell_counts = np.bincount(partial.cell_days, minlength=clock.n_days)
    return DailyPresence(
        clock=clock,
        car_fraction=car_counts / max(n_cars_total, 1),
        cell_fraction=cell_counts / max(n_cells_total, 1),
        n_cars_total=n_cars_total,
        n_cells_total=n_cells_total,
    )


def finalize_days(partial: PresencePartial) -> dict[str, int]:
    """Figure 6: the per-car distinct-day counts of a presence partial."""
    codes, counts = np.unique(
        partial.car_pairs // np.int64(partial.n_days), return_counts=True
    )
    return {
        partial.car_ids[int(c)]: int(n)
        for c, n in zip(codes.tolist(), counts.tolist())
    }


@dataclass
class CarriersPartial:
    """Per-carrier time chains and distinct carrier/car pairs of one shard."""

    car_ids: tuple[str, ...]
    carrier_names: tuple[str, ...]
    #: Per carrier-vocab-entry sequential duration sums.
    time: npt.NDArray[np.float64]
    total_time: float
    #: Distinct ``carrier * n_car_vocab + car`` keys, sorted.
    pairs: npt.NDArray[np.int64]
    #: Per car-vocab-entry "appeared in the shard" flags.
    seen: npt.NDArray[np.bool_]

    def absorb_partial(self, partial: "CarriersPartial") -> None:
        """Fold a later shard: exact pair/flag unions, float sums added."""
        car_union = _union_vocab(self.car_ids, partial.car_ids)
        carrier_union = _union_vocab(self.carrier_names, partial.carrier_names)
        n_cars = np.int64(max(len(car_union), 1))
        time = np.zeros(len(carrier_union))
        seen = np.zeros(len(car_union), dtype=np.bool_)
        remapped: list[npt.NDArray[np.int64]] = []
        for part in (self, partial):
            car_map = _remap_codes(part.car_ids, car_union)
            carrier_map = _remap_codes(part.carrier_names, carrier_union)
            time[carrier_map] += part.time
            seen[car_map] |= part.seen
            old_cars = np.int64(max(len(part.car_ids), 1))
            remapped.append(
                carrier_map[part.pairs // old_cars] * n_cars
                + car_map[part.pairs % old_cars]
            )
        merged = np.union1d(remapped[0], remapped[1])
        self.car_ids = car_union
        self.carrier_names = carrier_union
        self.time = time
        self.total_time = self.total_time + partial.total_time
        self.pairs = merged
        self.seen = seen


class CarriersKernel:
    """Table 3: per-carrier car reach and time share.

    Per-carrier and total duration sums run as carry-chained ``np.cumsum``
    over the rows in record order — exactly the sequence of adds the
    reference's ``+=`` loop performs, so a single-engine pass is
    bit-identical at any chunk size.  Rows that share a start may arrive
    out of record order (the stream is only time-sorted), and the next
    chunk may add to the latest start's group, so that group waits in
    ``_tail`` until a later start or :meth:`export_partial` closes it.
    Distinct (carrier, car) pairs replace the reference's per-carrier sets
    with one packed ``np.unique``.
    """

    def __init__(
        self,
        car_ids: tuple[str, ...],
        carrier_names: tuple[str, ...],
        carriers: tuple[str, ...],
    ) -> None:
        self._car_ids = car_ids
        self._carrier_names = carrier_names
        self._carriers = carriers
        vocab = {name: i for i, name in enumerate(carrier_names)}
        self._tracked = [
            code for name in carriers if (code := vocab.get(name)) is not None
        ]
        self._time = np.zeros(len(carrier_names))
        self._total_time = 0.0
        #: Record sort keys (start, car, cell, carrier, technology,
        #: duration) of the rows sharing the latest start, not yet summed.
        self._tail: tuple[npt.NDArray[Any], ...] = ()
        self._pairs: list[npt.NDArray[np.int64]] = []
        self._seen = np.zeros(len(car_ids), dtype=np.bool_)

    def _add_durations(self, keys: tuple[npt.NDArray[Any], ...]) -> None:
        """Chain the rows' durations onto the sums, in record order."""
        if not len(keys[0]):
            return
        carrier_code, duration = keys[3], keys[5]
        if not keys_in_record_order(keys):
            order = np.lexsort(keys[::-1])
            carrier_code, duration = carrier_code[order], duration[order]
        self._total_time = float(
            np.cumsum(np.concatenate(([self._total_time], duration)))[-1]
        )
        for code in self._tracked:
            rows = carrier_code == code
            if rows.any():
                self._time[code] = np.cumsum(
                    np.concatenate(([self._time[code]], duration[rows]))
                )[-1]

    def consume(self, inter: ChunkIntermediates) -> None:
        if inter.n == 0:
            return
        keys: tuple[npt.NDArray[Any], ...] = (
            inter.start,
            inter.car_code,
            inter.cell_id,
            inter.carrier_code,
            inter.tech_code,
            inter.duration,
        )
        if self._tail:
            keys = tuple(np.concatenate(pair) for pair in zip(self._tail, keys))
        closed = int(np.searchsorted(keys[0], keys[0][-1]))
        self._add_durations(tuple(key[:closed] for key in keys))
        self._tail = tuple(key[closed:] for key in keys)
        n_cars = np.int64(max(len(self._car_ids), 1))
        flags = np.zeros(
            len(self._carrier_names) * int(n_cars), dtype=np.bool_
        )
        flags[
            inter.carrier_code.astype(np.int64) * n_cars
            + inter.car_code.astype(np.int64)
        ] = True
        self._pairs.append(np.flatnonzero(flags).astype(np.int64))
        self._seen[inter.present_codes] = True
        if len(self._pairs) >= _PAIR_COLLAPSE:
            self._pairs = [np.unique(np.concatenate(self._pairs))]

    def export_partial(self) -> CarriersPartial:
        if self._tail:
            self._add_durations(self._tail)
            self._tail = ()
        if len(self._pairs) != 1:
            self._pairs = [
                np.unique(np.concatenate(self._pairs))
                if self._pairs
                else np.empty(0, dtype=np.int64)
            ]
        return CarriersPartial(
            car_ids=self._car_ids,
            carrier_names=self._carrier_names,
            time=self._time,
            total_time=self._total_time,
            pairs=self._pairs[0],
            seen=self._seen,
        )

    def finalize(self) -> CarrierUsage:
        return finalize_carriers(self.export_partial(), self._carriers)


def finalize_carriers(
    partial: CarriersPartial, carriers: tuple[str, ...] = CARRIER_ORDER
) -> CarrierUsage:
    """Close a carriers partial into Table 3."""
    total_time = partial.total_time
    n_cars_total = int(np.count_nonzero(partial.seen))
    n_cars = max(n_cars_total, 1)
    n_car_vocab = np.int64(max(len(partial.car_ids), 1))
    per_carrier_cars = np.bincount(
        partial.pairs // n_car_vocab, minlength=len(partial.carrier_names)
    )
    vocab = {name: i for i, name in enumerate(partial.carrier_names)}
    cars_fraction: dict[str, float] = {}
    time_fraction: dict[str, float] = {}
    for name in carriers:
        code = vocab.get(name)
        if code is None or int(per_carrier_cars[code]) == 0:
            cars_fraction[name] = 0.0
            time_fraction[name] = 0.0
            continue
        cars_fraction[name] = int(per_carrier_cars[code]) / n_cars
        time_fraction[name] = (
            float(partial.time[code]) / total_time if total_time > 0 else 0.0
        )
    return CarrierUsage(
        cars_fraction=cars_fraction,
        time_fraction=time_fraction,
        n_cars=n_cars_total,
        total_time_s=total_time,
    )


@dataclass
class BusyPartial:
    """Per-car busy/total second tallies of one shard."""

    car_ids: tuple[str, ...]
    busy: npt.NDArray[np.float64]
    total: npt.NDArray[np.float64]
    seen: npt.NDArray[np.bool_]

    def absorb_partial(self, partial: "BusyPartial") -> None:
        """Fold a later shard: flags union exactly, float tallies added."""
        union = _union_vocab(self.car_ids, partial.car_ids)
        busy = np.zeros(len(union))
        total = np.zeros(len(union))
        seen = np.zeros(len(union), dtype=np.bool_)
        for part in (self, partial):
            remap = _remap_codes(part.car_ids, union)
            busy[remap] += part.busy
            total[remap] += part.total
            seen[remap] |= part.seen
        self.car_ids = union
        self.busy = busy
        self.total = total
        self.seen = seen


class BusyKernel:
    """Figure 7: per-car seconds in busy vs all cells.

    Fragment arithmetic indexed straight by car code into
    vocabulary-sized tallies: each truncated record splits into one fragment
    per 15-minute bin it straddles (records on cells without a busy mask
    stay whole), fragment seconds accumulate with the unbuffered
    ``np.add.at`` in record-major bin-minor order — the reference's add
    order — so a single-engine pass is bit-identical at any chunk size.
    Busy bits gather from the schedule's cached whole-directory mask grid
    (:meth:`BusySchedule.mask_table`) instead of re-assembling a per-chunk
    table.
    """

    def __init__(self, schedule: BusySchedule, car_ids: tuple[str, ...]) -> None:
        self._schedule = schedule
        self._car_ids = car_ids
        self._busy = np.zeros(len(car_ids))
        self._total = np.zeros(len(car_ids))
        self._seen = np.zeros(len(car_ids), dtype=np.bool_)

    def consume(self, inter: ChunkIntermediates) -> None:
        if inter.n == 0:
            return
        self._seen[inter.present_codes] = True
        cells, cell_row = inter.cell_groups
        dir_cells, dir_lens, grid = self._schedule.mask_table()
        if dir_cells.size:
            pos = np.searchsorted(dir_cells, cells)
            pos_c = np.minimum(pos, dir_cells.size - 1)
            known_cell = dir_cells[pos_c] == cells
            lens = np.where(known_cell, dir_lens[pos_c], 0)
        else:
            # No cell has a busy mask: every record stays whole, non-busy.
            known_cell = np.zeros(len(cells), dtype=np.bool_)
            pos_c = np.zeros(len(cells), dtype=np.intp)
            lens = np.zeros(len(cells), dtype=np.int64)

        start = inter.start
        duration = inter.trunc_duration
        end = start + duration
        first, last = inter.bin_span
        known_row = known_cell[cell_row]
        counts = np.where(known_row, last - first + 1, 1)

        owner, offset = ragged_ranges(counts)
        f_bin = first[owner] + offset
        f_known = known_row[owner]
        lo = np.maximum(start[owner], f_bin * BIN_SECONDS)
        hi = np.minimum(end[owner], (f_bin + 1) * BIN_SECONDS)
        seconds = np.where(f_known, np.maximum(0.0, hi - lo), duration[owner])

        f_row = cell_row[owner]
        f_busy = np.zeros(len(owner), dtype=np.bool_)
        in_range = f_known & (f_bin >= 0) & (f_bin < lens[f_row])
        sel = np.flatnonzero(in_range)
        f_busy[sel] = grid[pos_c[f_row[sel]], f_bin[sel]]

        car = inter.car_code
        np.add.at(self._total, car[owner], seconds)
        np.add.at(self._busy, car[owner[f_busy]], seconds[f_busy])

    def export_partial(self) -> BusyPartial:
        return BusyPartial(
            car_ids=self._car_ids,
            busy=self._busy,
            total=self._total,
            seen=self._seen,
        )

    def finalize(self) -> BusyExposure:
        return finalize_busy(self.export_partial())


def finalize_busy(partial: BusyPartial) -> BusyExposure:
    """Close a busy partial into the per-car exposure shares."""
    present = np.flatnonzero(partial.seen)
    car_ids = [partial.car_ids[int(c)] for c in present]
    return _shares(car_ids, partial.busy[present], partial.total[present])


# -- busy-cell concurrency (Figure 11) ---------------------------------------


@dataclass
class BusyCellPartial:
    """The truncated rows one shard holds on the busy cells (exact).

    A car's 30-s session on a cell may span shards, so the partial ships
    the rows — cell, car code, start, truncated end; about a tenth of a
    trace — and :func:`finalize_fused` runs the weekly-concurrency
    arithmetic once over all of them.
    """

    #: The busy cells, in the caller's order (Figure 11's row order).
    cells: tuple[int, ...]
    car_ids: tuple[str, ...]
    cell_id: npt.NDArray[np.int64]
    car: npt.NDArray[np.int64]
    start: npt.NDArray[np.float64]
    end: npt.NDArray[np.float64]

    def absorb_partial(self, partial: "BusyCellPartial") -> None:
        """Append a later shard's rows, car codes remapped to one vocabulary."""
        if partial.cells != self.cells:
            raise ValueError("busy-cell partials list different cells")
        union = _union_vocab(self.car_ids, partial.car_ids)
        mine = _in_vocab(self.car, self.car_ids, union)
        theirs = _in_vocab(partial.car, partial.car_ids, union)
        self.car_ids = union
        self.cell_id = np.concatenate((self.cell_id, partial.cell_id))
        self.car = np.concatenate((mine, theirs))
        self.start = np.concatenate((self.start, partial.start))
        self.end = np.concatenate((self.end, partial.end))


class BusyCellKernel:
    """Figure 11: the busy cells' truncated rows.

    Membership is tested per distinct cell of the chunk, then gathered.
    """

    def __init__(self, cells: Sequence[int], car_ids: tuple[str, ...]) -> None:
        self._cells = tuple(int(c) for c in cells)
        self._car_ids = car_ids
        no_int, no_float = np.empty(0, dtype=np.int64), np.empty(0)
        #: Per-chunk (cell, car, start, end) rows, after one empty block.
        self._blocks: list[tuple[npt.NDArray[Any], ...]] = [
            (no_int, no_int, no_float, no_float)
        ]

    def consume(self, inter: ChunkIntermediates) -> None:
        if inter.n == 0:
            return
        cells_v, row_codes = inter.cell_groups
        rows = np.flatnonzero(np.isin(cells_v, self._cells)[row_codes])
        start = inter.start[rows]
        self._blocks.append(
            (
                inter.cell_id[rows],
                inter.car_code[rows].astype(np.int64),
                start,
                start + inter.trunc_duration[rows],
            )
        )

    def export_partial(self) -> BusyCellPartial:
        cell_id, car, start, end = (np.concatenate(c) for c in zip(*self._blocks))
        return BusyCellPartial(self._cells, self._car_ids, cell_id, car, start, end)


@dataclass
class ConnectPartial:
    """Per-car union-chain endpoint table of one shard (exact).

    A car's connected time is a sum of ``cm - start`` over its union chains
    (maximal runs of overlapping intervals).  The partial ships every
    chain's raw endpoints, grouped by car and chronological within car —
    no float arithmetic happens until finalize, so welding shards and then
    closing reproduces the reference's exact operation sequence: merging is
    comparisons and ``max`` only, and an earlier shard's last chain can
    swallow any prefix of a later shard's chains (one arbitrarily long
    record may span several of them), which the weld loop walks until the
    reference's ``start <= cm`` merge test first fails.
    """

    car_ids: tuple[str, ...]
    #: Chain car codes, grouped by car, chronological within car.
    car: npt.NDArray[np.int64]
    start: npt.NDArray[np.float64]
    cm: npt.NDArray[np.float64]

    def absorb_partial(self, partial: "ConnectPartial") -> None:
        """Weld a later shard's chain table onto this one (exact)."""
        union = _union_vocab(self.car_ids, partial.car_ids)
        acc_car = _in_vocab(self.car, self.car_ids, union)
        inc_car = _in_vocab(partial.car, partial.car_ids, union)
        acc_cm = self.cm.copy()
        inc_start = partial.start
        inc_cm = partial.cm

        # Both tables are grouped by (monotone-remapped) car code, so each
        # car's last accumulated chain meets its incoming run in one walk.
        drop = np.zeros(len(inc_car), dtype=np.bool_)
        starts_l = inc_start.tolist()
        cms_l = inc_cm.tolist()
        for row, j, j1 in _weld_runs(acc_car, inc_car):
            cm_acc = float(acc_cm[row])
            while j < j1 and starts_l[j] <= cm_acc:
                if cms_l[j] > cm_acc:
                    cm_acc = cms_l[j]
                drop[j] = True
                j += 1
            acc_cm[row] = cm_acc

        keep = ~drop
        car = np.concatenate((acc_car, inc_car[keep]))
        order = np.argsort(car, kind="stable")
        self.car_ids = union
        self.car = car[order]
        self.start = np.concatenate((self.start, inc_start[keep]))[order]
        self.cm = np.concatenate((acc_cm, inc_cm[keep]))[order]

    def rows(self, mask: npt.NDArray[np.bool_]) -> "ConnectPartial":
        """The chains ``mask`` selects, in table order."""
        return ConnectPartial(
            self.car_ids, self.car[mask], self.start[mask], self.cm[mask]
        )


class ConnectKernel:
    """Figure 3: per-car union-of-intervals connected seconds.

    Within a chunk, union chains come from the shared segmented running
    maximum; across chunks each car's last chain stays open, and the next
    chunk's chains weld onto it with :meth:`ConnectPartial.absorb_partial`
    — the shard fold's own weld — so a chain closing later still
    contributes the reference's single ``cm - start`` subtraction.

    The kernel collects chain *endpoints*, never sums: every float add is
    deferred to :func:`finalize_connect_partial`, which is what makes one
    engine bit-identical to the reference at any chunk size *and* the
    exported :class:`ConnectPartial` exact across shards.
    """

    def __init__(self, car_ids: tuple[str, ...], *, truncated: bool) -> None:
        self._truncated = truncated
        #: Each car's last chain, open to welding with the next chunk.
        self._open = ConnectPartial(
            car_ids, np.empty(0, dtype=np.int64), np.empty(0), np.empty(0)
        )
        #: Closed chains, per chunk, per-car chronological.
        self._closed: list[ConnectPartial] = []

    def consume(self, inter: ChunkIntermediates) -> None:
        n = inter.n
        if n == 0:
            return
        s = inter.s_sorted
        cm = inter.trunc_cummax if self._truncated else inter.full_cummax
        is_start = inter.is_car_start
        new_seg = is_start.copy()
        new_seg[1:] |= ~is_start[1:] & (s[1:] > cm[:-1])
        seg_first = np.flatnonzero(new_seg)
        seg_last = np.append(seg_first[1:] - 1, n - 1)
        table = ConnectPartial(
            self._open.car_ids, inter.car_sorted[seg_first], s[seg_first], cm[seg_last]
        )
        if self._closed:  # the first chunk has no open chain to weld onto
            self._open.absorb_partial(table)
            table = self._open
        last = _last_of_each_car(table.car)
        self._closed.append(table.rows(~last))
        self._open = table.rows(last)

    def export_partial(self) -> ConnectPartial:
        # Stable car sort: the tables are chronological and each is per-car
        # chronological, so grouping by car keeps each car's chain order.
        tables = [*self._closed, self._open]
        car = np.concatenate([t.car for t in tables])
        order = np.argsort(car, kind="stable")
        return ConnectPartial(
            car_ids=self._open.car_ids,
            car=car[order],
            start=np.concatenate([t.start for t in tables])[order],
            cm=np.concatenate([t.cm for t in tables])[order],
        )


def finalize_connect_partial(
    partial: ConnectPartial,
) -> tuple[npt.NDArray[np.intp], npt.NDArray[np.float64]]:
    """Present car codes and totals from a (possibly merged) chain table.

    One subtraction per chain and per-car in-order adds — the reference's
    exact operation sequence, so the result is bit-identical at any worker
    count.  The table is sorted by car code, so each car's chains form one
    run.
    """
    car = partial.car
    first = np.ones(len(car), dtype=np.bool_)
    first[1:] = car[1:] != car[:-1]
    present = car[first].astype(np.intp)
    totals = np.zeros(len(present))
    np.add.at(totals, np.cumsum(first) - 1, partial.cm - partial.start)
    return present, totals


# -- connection durations (Figure 9) ---------------------------------------

#: Bin width of the Figure 9 duration histogram, seconds: quantiles read
#: from it are exact to half of this.
DURATION_BIN_S = 1.0

#: A sparse histogram: sorted distinct bin indices and their counts.
_Bins = tuple[npt.NDArray[np.int64], npt.NDArray[np.int64]]


def _duration_bins(duration: npt.NDArray[np.float64]) -> _Bins:
    """Sparse histogram of one chunk's durations."""
    keys = np.floor(duration / DURATION_BIN_S).astype(np.int64)
    uniq, counts = np.unique(keys, return_counts=True)
    return uniq.astype(np.int64), counts.astype(np.int64)


def _merge_bins(tables: list[_Bins]) -> _Bins:
    """Exact union of sparse histograms: counts of equal bins add."""
    if len(tables) == 1:
        return tables[0]
    keys = np.concatenate([t[0] for t in tables])
    counts = np.concatenate([t[1] for t in tables])
    if keys.size == 0:
        return keys, counts
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    first = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    return keys[first], np.add.reduceat(counts[order], first)


@dataclass
class DurationPartial:
    """Figure 9 tallies of one shard.

    The reported-duration histogram is a *sparse* table of occupied
    :data:`DURATION_BIN_S` bins and their counts — bounded by the distinct
    bins the shard touches, never a dense array up to its longest
    duration — and merges exactly by integer adds.  The two duration sums
    are carried chains: bit-identical at any chunk size and, folded in
    shard-index order, at any worker count; against one serial pass they
    agree to reassociation precision, like the carrier time sums.
    """

    truncate_s: float
    #: Occupied bin indices, sorted, and their record counts.
    bins: npt.NDArray[np.int64]
    counts: npt.NDArray[np.int64]
    #: Records whose reported duration exceeds ``truncate_s``.
    n_over: int
    sum_full: float
    sum_trunc: float

    def absorb_partial(self, partial: "DurationPartial") -> None:
        """Fold a later shard: exact histogram and count adds, float sums."""
        if partial.truncate_s != self.truncate_s:
            raise ValueError(
                "cannot merge duration partials with different cutoffs: "
                f"{self.truncate_s} vs {partial.truncate_s}"
            )
        self.bins, self.counts = _merge_bins(
            [(self.bins, self.counts), (partial.bins, partial.counts)]
        )
        self.n_over = self.n_over + partial.n_over
        self.sum_full = self.sum_full + partial.sum_full
        self.sum_trunc = self.sum_trunc + partial.sum_trunc


class DurationKernel:
    """Figure 9: the duration distribution of individual cell connections.

    The unit is the kept record, as in
    :func:`repro.core.connect_time.cell_connection_durations`.  Duration
    sums run as carry-chained ``np.cumsum`` in row order, the histogram
    and the over-cutoff count are integer tallies.
    """

    def __init__(self, truncate_s: float) -> None:
        self._truncate_s = truncate_s
        #: Per-chunk histograms, merged at export (or every
        #: :data:`_PAIR_COLLAPSE` chunks, bounding the backlog).
        self._tables: list[_Bins] = []
        self._n_over = 0
        self._sum_full = 0.0
        self._sum_trunc = 0.0

    def consume(self, inter: ChunkIntermediates) -> None:
        if inter.n == 0:
            return
        duration = inter.duration
        trunc = inter.trunc_duration
        self._tables.append(_duration_bins(duration))
        if len(self._tables) >= _PAIR_COLLAPSE:
            self._tables = [_merge_bins(self._tables)]
        self._n_over += int(np.count_nonzero(duration > self._truncate_s))
        self._sum_full = float(
            np.cumsum(np.concatenate(([self._sum_full], duration)))[-1]
        )
        self._sum_trunc = float(
            np.cumsum(np.concatenate(([self._sum_trunc], trunc)))[-1]
        )

    def export_partial(self) -> DurationPartial:
        empty = np.empty(0, dtype=np.int64)
        bins, counts = _merge_bins(self._tables or [(empty, empty)])
        return DurationPartial(
            truncate_s=self._truncate_s,
            bins=bins,
            counts=counts,
            n_over=self._n_over,
            sum_full=self._sum_full,
            sum_trunc=self._sum_trunc,
        )


def finalize_durations(partial: DurationPartial) -> DurationStats:
    """Close a duration partial into Figure 9's statistics.

    Quantiles take the inverted-CDF rank ``ceil(q * n)`` — numpy's
    ``method="inverted_cdf"`` — and read its bin midpoint, so each is
    within half a bin of the exact order statistic.
    """
    n = int(partial.counts.sum())
    if n == 0:
        return DurationStats(
            n=0,
            median=0.0,
            p73=0.0,
            mean_full=0.0,
            mean_truncated=0.0,
            fraction_over_cutoff=0.0,
        )

    def quantile(q: float) -> float:
        rank = max(math.ceil(q * n), 1)
        return binned_order_statistic(
            partial.bins, partial.counts, rank, DURATION_BIN_S
        )

    return DurationStats(
        n=n,
        median=quantile(0.5),
        p73=quantile(0.73),
        mean_full=partial.sum_full / n,
        mean_truncated=partial.sum_trunc / n,
        fraction_over_cutoff=partial.n_over / n,
    )


# -- handovers (Section 4.5) ----------------------------------------------

#: Column layout of the packed int64 session table: car code, record count,
#: known-cell record count, handovers, then the first/last known-cell
#: attribute blocks (cell id, technology index, base station, sector; -1
#: where the session has no known-cell record yet).
(
    _H_CAR,
    _H_SIZE,
    _H_KNOWN,
    _H_HO,
    _H_FCELL,
    _H_FTECH,
    _H_FBS,
    _H_FSEC,
    _H_LCELL,
    _H_LTECH,
    _H_LBS,
    _H_LSEC,
) = range(12)


def _boundary_kind(
    l_tech: int, l_bs: int, l_sec: int, f_tech: int, f_bs: int, f_sec: int
) -> int:
    """Kind code of one handover between two known, different cells.

    Same precedence as ``classify_handover`` and the kernel's nested
    ``np.where``: technology change wins, then base station, sector,
    carrier — indices into :data:`_KIND_ORDER`.
    """
    if l_tech != f_tech:
        return 0
    if l_bs != f_bs:
        return 1
    if l_sec != f_sec:
        return 2
    return 3


@dataclass
class HandoverPartial:
    """Per-session handover table of one shard (exact).

    One row per network session, grouped by car code and chronological
    within car.  The whole table ships — not just counts — because a later
    shard's gap test can join its leading sessions onto this shard's last
    session per car, which changes the joined session's size/known tallies
    and can add a boundary handover; the ``min_records`` keep filter must
    therefore wait until :func:`finalize_handover`.  Every column is an
    integer count or attribute except the float ``start``/``cm`` endpoints,
    whose only merge operations are comparisons and ``max`` — so folding
    partials in shard order is bit-identical to the serial pass.
    """

    car_ids: tuple[str, ...]
    gap: float
    min_records: int
    #: Session first-record start and running-max end.
    start: npt.NDArray[np.float64]
    cm: npt.NDArray[np.float64]
    #: Per-session handover counts by kind, ``(n, 4)`` in ``_KIND_ORDER``.
    kinds: npt.NDArray[np.int64]
    #: Packed integer columns, ``(n, 12)`` — see ``_H_*``.
    ints: npt.NDArray[np.int64]

    def absorb_partial(self, partial: "HandoverPartial") -> None:
        """Weld a later shard's session table onto this one (exact).

        Per car, the incoming shard's leading sessions join this shard's
        last session while the reference's gap test holds (``start`` minus
        the joined session's running-max end ``<= gap``); a join may add one
        boundary handover between the two sessions' adjacent known cells.
        All arithmetic is integer adds plus float comparisons/``max``.
        """
        if partial.gap != self.gap or partial.min_records != self.min_records:
            raise ValueError("handover partials disagree on gap/min_records")
        union = _union_vocab(self.car_ids, partial.car_ids)
        acc_ints = self.ints
        if union != self.car_ids:
            acc_ints = acc_ints.copy()
            acc_ints[:, _H_CAR] = _in_vocab(acc_ints[:, _H_CAR], self.car_ids, union)
        inc_ints = partial.ints.copy()
        inc_ints[:, _H_CAR] = _in_vocab(inc_ints[:, _H_CAR], partial.car_ids, union)
        acc_kinds = self.kinds
        acc_cm = self.cm.copy()
        inc_kinds = partial.kinds
        inc_start = partial.start
        inc_cm = partial.cm

        drop = np.zeros(len(inc_ints), dtype=np.bool_)
        starts_l = inc_start.tolist()
        for r, j, j1 in _weld_runs(acc_ints[:, _H_CAR], inc_ints[:, _H_CAR]):
            row = acc_ints[r]
            cm_acc = float(acc_cm[r])
            while j < j1 and starts_l[j] - cm_acc <= self.gap:
                inc_row = inc_ints[j]
                if (
                    row[_H_LCELL] >= 0
                    and inc_row[_H_FCELL] >= 0
                    and row[_H_LCELL] != inc_row[_H_FCELL]
                ):
                    kind = _boundary_kind(
                        int(row[_H_LTECH]),
                        int(row[_H_LBS]),
                        int(row[_H_LSEC]),
                        int(inc_row[_H_FTECH]),
                        int(inc_row[_H_FBS]),
                        int(inc_row[_H_FSEC]),
                    )
                    row[_H_HO] += 1
                    acc_kinds[r, kind] += 1
                row[_H_HO] += inc_row[_H_HO]
                acc_kinds[r] += inc_kinds[j]
                row[_H_SIZE] += inc_row[_H_SIZE]
                row[_H_KNOWN] += inc_row[_H_KNOWN]
                if inc_row[_H_FCELL] >= 0:
                    if row[_H_FCELL] < 0:
                        row[_H_FCELL : _H_FSEC + 1] = inc_row[
                            _H_FCELL : _H_FSEC + 1
                        ]
                    row[_H_LCELL:] = inc_row[_H_LCELL:]
                if inc_cm[j] > cm_acc:
                    cm_acc = float(inc_cm[j])
                drop[j] = True
                j += 1
            acc_cm[r] = cm_acc

        keep = ~drop
        ints = np.concatenate((acc_ints, inc_ints[keep]))
        order = np.argsort(ints[:, _H_CAR], kind="stable")
        self.car_ids = union
        self.ints = ints[order]
        self.kinds = np.concatenate((acc_kinds, inc_kinds[keep]))[order]
        self.start = np.concatenate((self.start, inc_start[keep]))[order]
        self.cm = np.concatenate((acc_cm, inc_cm[keep]))[order]

    def rows(self, mask: npt.NDArray[np.bool_]) -> "HandoverPartial":
        """The sessions ``mask`` selects, in table order."""
        return HandoverPartial(
            self.car_ids,
            self.gap,
            self.min_records,
            start=self.start[mask],
            cm=self.cm[mask],
            kinds=self.kinds[mask],
            ints=self.ints[mask],
        )


class HandoverKernel:
    """Section 4.5: handovers per network session, classified by kind.

    Per chunk, network-session boundaries come from the shared truncated
    running-max scan (a session breaks exactly where the reference's gap
    grouping breaks), handovers are counted vectorized between consecutive
    known-cell rows of each session, and per-session first/last known-cell
    attributes are gathered for the boundary checks.  Each car's last
    session stays open across chunks and can swallow a *prefix* of the next
    chunk's sessions (one long record keeps the gap test alive across
    several of them), welded by :meth:`HandoverPartial.absorb_partial` —
    the shard fold's own weld, integer adds only — so a single-engine pass
    is bit-identical to the reference at any chunk size, and the exported
    table merges across shards exactly.

    All shards of one trace must classify against the same ``cells``
    directory: attribute codes ride in the partials.
    """

    def __init__(
        self,
        car_ids: tuple[str, ...],
        cells: dict[int, Cell],
        *,
        gap: float,
        min_records: int,
    ) -> None:
        self._gap = gap
        self._min_records = min_records
        directory = np.fromiter(sorted(cells), dtype=np.int64, count=len(cells))
        tech_index = {
            t: i
            for i, t in enumerate(
                sorted(
                    {c.technology for c in cells.values()}, key=lambda t: t.value
                )
            )
        }
        self._directory = directory
        self._dir_tech = np.asarray(
            [tech_index[cells[int(c)].technology] for c in directory],
            dtype=np.int64,
        )
        self._dir_bs = np.asarray(
            [cells[int(c)].base_station_id for c in directory], dtype=np.int64
        )
        self._dir_sector = np.asarray(
            [cells[int(c)].sector_index for c in directory], dtype=np.int64
        )
        #: Each car's last session, open to welding with the next chunk.
        self._open = HandoverPartial(
            car_ids,
            gap,
            min_records,
            start=np.empty(0),
            cm=np.empty(0),
            kinds=np.empty((0, 4), dtype=np.int64),
            ints=np.empty((0, 12), dtype=np.int64),
        )
        #: Closed sessions, per chunk, per-car chronological.
        self._closed: list[HandoverPartial] = []

    def consume(self, inter: ChunkIntermediates) -> None:
        n = inter.n
        if n == 0:
            return
        s = inter.s_sorted
        cm = inter.trunc_cummax
        cell = inter.cell_sorted
        is_start = inter.is_car_start
        new_sess = is_start.copy()
        new_sess[1:] |= ~is_start[1:] & (s[1:] - cm[:-1] > self._gap)
        sid = segment_ids(new_sess)
        n_sess = int(sid[-1]) + 1
        sess_first = np.flatnonzero(new_sess)
        sess_last = np.append(sess_first[1:] - 1, n - 1)
        sess_car = inter.car_sorted[sess_first]
        sess_start = s[sess_first]
        sess_cm = cm[sess_last]

        # Directory membership at vocabulary level (shared with the busy
        # kernel's cell grouping), then gathered per car-major row — the
        # vocabulary is tiny next to the chunk.
        directory = self._directory
        cells_v, row_codes = inter.cell_groups
        if directory.size:
            pos_v = np.searchsorted(directory, cells_v)
            pos_vc = np.minimum(pos_v, directory.size - 1)
            known_v = directory[pos_vc] == cells_v
        else:
            known_v = np.zeros(cells_v.size, dtype=np.bool_)
            pos_vc = np.zeros(cells_v.size, dtype=np.intp)
        codes_sorted = row_codes[inter.car_order]
        known = known_v[codes_sorted]
        kr = np.flatnonzero(known)
        k_dir = pos_vc[codes_sorted[kr]]

        ints = np.full((n_sess, 12), -1, dtype=np.int64)
        ints[:, _H_CAR] = sess_car
        ints[:, _H_SIZE] = np.bincount(sid, minlength=n_sess)
        ints[:, _H_KNOWN] = np.bincount(sid[kr], minlength=n_sess)

        # Handovers between consecutive known rows of one session, plus the
        # kind breakdown — no keep filter here: sessions may still grow by
        # merging, so filtering waits for finalize.
        src = kr[:-1]
        dst = kr[1:]
        pair = (sid[src] == sid[dst]) & (cell[src] != cell[dst])
        pair_sid = sid[src[pair]]
        ints[:, _H_HO] = np.bincount(pair_sid, minlength=n_sess)
        src_a = k_dir[:-1][pair]
        dst_a = k_dir[1:][pair]
        kind = np.where(
            self._dir_tech[src_a] != self._dir_tech[dst_a],
            0,
            np.where(
                self._dir_bs[src_a] != self._dir_bs[dst_a],
                1,
                np.where(
                    self._dir_sector[src_a] != self._dir_sector[dst_a], 2, 3
                ),
            ),
        )
        kinds_per = np.bincount(
            pair_sid * 4 + kind, minlength=n_sess * 4
        ).reshape(n_sess, 4)

        # First/last known-cell attributes per session.  ``sid`` is
        # non-decreasing in car-major order, so the first/last known row of
        # each session falls on run boundaries — no sort needed.
        sid_k = sid[kr]
        if len(sid_k):
            new_run = np.concatenate(([True], sid_k[1:] != sid_k[:-1]))
            first_idx = np.flatnonzero(new_run)
            last_idx = np.append(first_idx[1:] - 1, len(sid_k) - 1)
            uniq = sid_k[first_idx]
        else:
            first_idx = np.empty(0, dtype=np.intp)
            last_idx = first_idx
            uniq = np.empty(0, dtype=np.int64)
        for col_cell, col_tech, idx in (
            (_H_FCELL, _H_FTECH, first_idx),
            (_H_LCELL, _H_LTECH, last_idx),
        ):
            at = k_dir[idx]
            ints[uniq, col_cell] = cell[kr[idx]]
            ints[uniq, col_tech] = self._dir_tech[at]
            ints[uniq, col_tech + 1] = self._dir_bs[at]
            ints[uniq, col_tech + 2] = self._dir_sector[at]

        # A car's open session swallows the prefix of this chunk's sessions
        # while the gap test holds — the shard fold's weld.
        table = HandoverPartial(
            self._open.car_ids,
            self._gap,
            self._min_records,
            start=sess_start,
            cm=sess_cm,
            kinds=kinds_per,
            ints=ints,
        )
        if self._closed:  # the first chunk has no open session to weld onto
            self._open.absorb_partial(table)
            table = self._open
        last = _last_of_each_car(table.ints[:, _H_CAR])
        self._closed.append(table.rows(~last))
        self._open = table.rows(last)

    def export_partial(self) -> HandoverPartial:
        # Stable car sort: the tables are chronological and per-car ordered
        # within themselves, and the open sessions come last, so each car's
        # sessions come out chronological with its open session last — the
        # reference's emission order.
        tables = [*self._closed, self._open]
        ints = np.concatenate([t.ints for t in tables])
        order = np.argsort(ints[:, _H_CAR], kind="stable")
        return HandoverPartial(
            car_ids=self._open.car_ids,
            gap=self._gap,
            min_records=self._min_records,
            start=np.concatenate([t.start for t in tables])[order],
            cm=np.concatenate([t.cm for t in tables])[order],
            kinds=np.concatenate([t.kinds for t in tables])[order],
            ints=ints[order],
        )

    def finalize(self) -> HandoverStats:
        return finalize_handover(self.export_partial())


def finalize_handover(partial: HandoverPartial) -> HandoverStats:
    """Close a handover partial into the Section 4.5 statistics.

    Applies the reference's keep rule — drop sessions whose *known* records
    fall below ``min_records`` while their total size does not — and its
    emission order (cars sorted by id, sessions chronological), both of
    which the table already encodes.
    """
    size = partial.ints[:, _H_SIZE]
    known = partial.ints[:, _H_KNOWN]
    keep = ~(
        (known < partial.min_records) & (size >= partial.min_records)
    )
    per_session = partial.ints[keep, _H_HO].astype(float)
    kind_counts = partial.kinds[keep].sum(axis=0)
    types: Counter[HandoverType] = Counter()
    for i, ho_type in enumerate(_KIND_ORDER):
        if int(kind_counts[i]) > 0:
            types[ho_type] = int(kind_counts[i])
    return HandoverStats(per_session=per_session, type_counts=types)


# -- the engine -----------------------------------------------------------


@dataclass
class FusedPartial:
    """Everything one shard contributes, in one picklable bundle.

    Folding shards in index order with :meth:`absorb_partial` and then
    finalizing reproduces the serial engine: every sub-partial's merge is
    exact (integer counts, pair-set unions, endpoint welds, histogram
    adds, row appends), except the per-car busy tallies and the
    per-carrier and duration sums, which merge to reassociation precision.
    ``first_start``/``last_start`` bound the kept rows' starts (``inf`` and
    ``-inf`` when there are none) so a fold can tell shards that are out
    of start order, which every chain weld above assumes they are not.
    """

    n_records: int
    n_ghosts: int
    first_start: float
    last_start: float
    presence: PresencePartial
    carriers: CarriersPartial
    connect_full: ConnectPartial
    connect_trunc: ConnectPartial
    durations: DurationPartial
    busy: BusyPartial | None
    handover: HandoverPartial | None
    busy_cells: BusyCellPartial | None

    def absorb_partial(self, partial: "FusedPartial") -> None:
        """Fold a later shard's bundle into this one, kernel by kernel."""
        if (
            (self.busy is None) != (partial.busy is None)
            or (self.handover is None) != (partial.handover is None)
            or (self.busy_cells is None) != (partial.busy_cells is None)
        ):
            raise ValueError("fused partials ran different kernel sets")
        self.n_records = self.n_records + partial.n_records
        self.n_ghosts = self.n_ghosts + partial.n_ghosts
        self.first_start = min(self.first_start, partial.first_start)
        self.last_start = max(self.last_start, partial.last_start)
        self.presence.absorb_partial(partial.presence)
        self.carriers.absorb_partial(partial.carriers)
        self.connect_full.absorb_partial(partial.connect_full)
        self.connect_trunc.absorb_partial(partial.connect_trunc)
        self.durations.absorb_partial(partial.durations)
        if self.busy is not None and partial.busy is not None:
            self.busy.absorb_partial(partial.busy)
        if self.handover is not None and partial.handover is not None:
            self.handover.absorb_partial(partial.handover)
        if self.busy_cells is not None and partial.busy_cells is not None:
            self.busy_cells.absorb_partial(partial.busy_cells)


@dataclass
class AnalysisReport:
    """All paper analyses computed over one data set.

    Field-to-paper mapping: ``presence`` -> Figure 2, ``weekday_rows`` ->
    Table 1, ``connect_time`` -> Figure 3, ``days`` -> Figure 6,
    ``segmentation`` -> Table 2, ``exposure`` -> Figure 7, ``durations`` ->
    Figure 9, ``clusters`` -> Figure 11, ``handovers`` -> Section 4.5,
    ``carriers`` -> Table 3.  An optional field is ``None`` when its input
    was missing (a :class:`BusySchedule`, a cell directory, busy cells),
    ``durations`` only from the reference engine; ``pre`` is set only by
    the in-memory :meth:`repro.core.pipeline.AnalysisPipeline.run`.
    """

    presence: DailyPresence
    weekday_rows: list[WeekdayRow]
    connect_time: ConnectTimeResult
    days: dict[str, int]
    carriers: CarrierUsage
    n_kept: int
    n_ghosts: int
    durations: DurationStats | None = None
    exposure: BusyExposure | None = None
    segmentation: CarSegmentation | None = None
    handovers: HandoverStats | None = None
    clusters: BusyCellClusters | None = None
    notes: list[str] = field(default_factory=list)
    pre: PreprocessResult | None = None


class FusedEngine:
    """One pass per chunk, every Section 4 analysis at once.

    Feed raw columnar chunks (one shard's `.cdrz` chunks, or an in-memory
    batch in one go) to :meth:`consume`; ghost cleaning happens inside the
    shared :class:`ChunkIntermediates`, so no separate preprocessing pass
    is needed.  All chunks must share one car/carrier vocabulary — exactly
    the guarantee `.cdrz` shards give — and cross-shard work goes through
    :meth:`export_partial` / :meth:`FusedPartial.absorb_partial` instead of
    feeding one engine from two shards.  :meth:`finalize` closes the same
    partial :meth:`export_partial` ships, so a single engine and a folded
    map-reduce run share one code path.
    """

    def __init__(
        self,
        clock: StudyClock,
        config: PreprocessConfig | None = None,
        *,
        schedule: BusySchedule | None = None,
        cells: dict[int, Cell] | None = None,
        min_records: int = 2,
        busy_cells: Sequence[int] | None = None,
    ) -> None:
        self.clock = clock
        self.config = config or PreprocessConfig()
        self._schedule = schedule
        self._cells = cells
        self._min_records = min_records
        self._busy_cell_ids = busy_cells
        self._n_records = 0
        self._n_ghosts = 0
        self._first_start = math.inf
        self._last_start = -math.inf
        self._vocab: tuple[tuple[str, ...], tuple[str, ...]] | None = None
        self._kernels: list[FusedAnalysis] = []
        self._presence: PresenceKernel | None = None
        self._carriers: CarriersKernel | None = None
        self._connect_full: ConnectKernel | None = None
        self._connect_trunc: ConnectKernel | None = None
        self._durations: DurationKernel | None = None
        self._busy: BusyKernel | None = None
        self._handover: HandoverKernel | None = None
        self._busy_cells: BusyCellKernel | None = None

    def _bind(
        self, car_ids: tuple[str, ...], carrier_names: tuple[str, ...]
    ) -> None:
        self._vocab = (car_ids, carrier_names)
        self._presence = PresenceKernel(self.clock, car_ids)
        self._carriers = CarriersKernel(car_ids, carrier_names, CARRIER_ORDER)
        self._connect_full = ConnectKernel(car_ids, truncated=False)
        self._connect_trunc = ConnectKernel(car_ids, truncated=True)
        self._durations = DurationKernel(self.config.truncate_s)
        kernels: list[FusedAnalysis] = [
            self._presence,
            self._carriers,
            self._connect_full,
            self._connect_trunc,
            self._durations,
        ]
        if self._schedule is not None:
            self._busy = BusyKernel(self._schedule, car_ids)
            kernels.append(self._busy)
        if self._cells is not None:
            self._handover = HandoverKernel(
                car_ids,
                self._cells,
                gap=self.config.network_session_gap_s,
                min_records=self._min_records,
            )
            kernels.append(self._handover)
        if self._busy_cell_ids is not None:
            self._busy_cells = BusyCellKernel(self._busy_cell_ids, car_ids)
            kernels.append(self._busy_cells)
        self._kernels = kernels

    def consume(self, chunk: ColumnarCDRBatch) -> None:
        """Run every kernel over one raw chunk's shared intermediates."""
        if self._vocab is None:
            self._bind(chunk.car_ids, chunk.carriers)
        elif self._vocab != (chunk.car_ids, chunk.carriers):
            raise ValueError(
                "chunk vocabulary changed mid-stream; use one FusedEngine "
                "per shard and merge FusedPartials instead"
            )
        inter = ChunkIntermediates(chunk, self.clock, self.config.truncate_s)
        self._n_records += inter.n
        self._n_ghosts += inter.n_ghosts
        if inter.n:
            self._first_start = min(self._first_start, float(inter.start.min()))
            self._last_start = max(self._last_start, float(inter.start.max()))
        for kernel in self._kernels:
            kernel.consume(inter)

    def finalize(self) -> AnalysisReport:
        """Close every kernel into its paper statistic."""
        return finalize_fused(self.export_partial(), self.clock)

    def export_partial(self) -> FusedPartial:
        """Ship this shard's state for an index-ordered cross-shard fold."""
        presence_k = self._presence
        carriers_k = self._carriers
        full_k = self._connect_full
        trunc_k = self._connect_trunc
        durations_k = self._durations
        if (
            presence_k is None
            or carriers_k is None
            or full_k is None
            or trunc_k is None
            or durations_k is None
        ):
            raise ValueError("FusedEngine has consumed no chunks")
        return FusedPartial(
            n_records=self._n_records,
            n_ghosts=self._n_ghosts,
            first_start=self._first_start,
            last_start=self._last_start,
            presence=presence_k.export_partial(),
            carriers=carriers_k.export_partial(),
            connect_full=full_k.export_partial(),
            connect_trunc=trunc_k.export_partial(),
            durations=durations_k.export_partial(),
            busy=self._busy.export_partial() if self._busy is not None else None,
            handover=(
                self._handover.export_partial()
                if self._handover is not None
                else None
            ),
            busy_cells=(
                self._busy_cells.export_partial()
                if self._busy_cells is not None
                else None
            ),
        )


def fold_fused_partials(partials: Iterable[FusedPartial]) -> FusedPartial:
    """Fold shard partials *in the given order* into a fresh accumulator.

    :meth:`FusedPartial.absorb_partial` mutates its receiver, so callers
    that hold partials — the analysis service keeps one per shard plus the
    fold of its current scan, and folds a tail append as
    ``[held fold, *new partials]`` — must not fold into a held object.
    This helper deep-copies the first partial and absorbs the rest into
    the copy, leaving every input untouched; the caller supplies
    shard-index order, which is what makes the fold bit-identical to a
    cold full run regardless of how the held state was built.
    """
    merged: FusedPartial | None = None
    for partial in partials:
        if merged is None:
            merged = copy.deepcopy(partial)
        else:
            merged.absorb_partial(partial)
    if merged is None:
        raise ValueError("fold_fused_partials needs at least one partial")
    return merged


def _connect_result(
    full: ConnectPartial, trunc: ConnectPartial, clock: StudyClock
) -> ConnectTimeResult:
    """Close the full and truncated chain tables into Figure 3's shares."""
    present, full_totals = finalize_connect_partial(full)
    _, trunc_totals = finalize_connect_partial(trunc)
    duration = float(clock.duration)
    return ConnectTimeResult(
        car_ids=[full.car_ids[int(c)] for c in present],
        full_share=full_totals / duration,
        truncated_share=trunc_totals / duration,
    )


def _busy_cell_clusters(
    partial: BusyCellPartial, clock: StudyClock, k: int
) -> BusyCellClusters:
    """Figure 11 from a busy-cell partial; ``ValueError`` when it cannot run."""
    require_clusterable(len(partial.cells), k)
    vectors = weekly_concurrency_rows(
        partial.cells, partial.cell_id, partial.car, partial.start, partial.end, clock
    )
    return cluster_vectors(list(partial.cells), vectors, k)


def finalize_fused(
    partial: FusedPartial, clock: StudyClock, *, cluster_k: int = 2
) -> AnalysisReport:
    """Close a (possibly merged) :class:`FusedPartial` into the report.

    With busy cells, Figure 11 clusters them into ``cluster_k`` groups, or
    notes why clustering was skipped.
    """
    presence = finalize_presence(partial.presence, clock)
    days = finalize_days(partial.presence)
    exposure = (
        finalize_busy(partial.busy) if partial.busy is not None else None
    )
    notes = [f"dropped {partial.n_ghosts} exactly-1-hour ghost records"]
    clusters: BusyCellClusters | None = None
    if partial.busy_cells is not None:
        try:
            clusters = _busy_cell_clusters(partial.busy_cells, clock, cluster_k)
        except ValueError as exc:
            notes.append(f"clustering skipped: {exc}")
    return AnalysisReport(
        presence=presence,
        weekday_rows=weekday_table(presence),
        connect_time=_connect_result(
            partial.connect_full, partial.connect_trunc, clock
        ),
        days=days,
        carriers=finalize_carriers(partial.carriers),
        n_kept=partial.n_records,
        n_ghosts=partial.n_ghosts,
        durations=finalize_durations(partial.durations),
        exposure=exposure,
        segmentation=(
            segment_cars(days, exposure) if exposure is not None else None
        ),
        handovers=(
            finalize_handover(partial.handover)
            if partial.handover is not None
            else None
        ),
        clusters=clusters,
        notes=notes,
    )


# -- standalone fused twins ----------------------------------------------
#
# One public entry point per analysis, running just that kernel over a
# whole columnar batch in one chunk.  They exist for the parity suite (the
# RL017 contract pairs each with its record-based reference) and for
# callers who want one statistic without a pipeline.

#: Calendar placeholder for kernels that never look at the clock.
_NO_CLOCK = StudyClock()

#: Truncation placeholder for kernels that never read truncated durations.
_TRUNCATE_DEFAULT = PreprocessConfig().truncate_s


def daily_presence_fused(
    col: ColumnarCDRBatch, clock: StudyClock
) -> DailyPresence:
    """Fused-kernel twin of :func:`repro.core.presence.daily_presence`."""
    kernel = PresenceKernel(clock, col.car_ids)
    kernel.consume(ChunkIntermediates(col, clock, _TRUNCATE_DEFAULT))
    return kernel.finalize()


def days_on_network_fused(
    col: ColumnarCDRBatch, clock: StudyClock
) -> dict[str, int]:
    """Fused-kernel twin of :func:`repro.core.segmentation.days_on_network`."""
    kernel = PresenceKernel(clock, col.car_ids)
    kernel.consume(ChunkIntermediates(col, clock, _TRUNCATE_DEFAULT))
    return finalize_days(kernel.export_partial())


def carrier_usage_fused(
    col: ColumnarCDRBatch, carriers: tuple[str, ...] = CARRIER_ORDER
) -> CarrierUsage:
    """Fused-kernel twin of :func:`repro.core.carriers.carrier_usage`."""
    kernel = CarriersKernel(col.car_ids, col.carriers, carriers)
    kernel.consume(ChunkIntermediates(col, _NO_CLOCK, _TRUNCATE_DEFAULT))
    return kernel.finalize()


def busy_exposure_fused(
    col: ColumnarCDRBatch,
    schedule: BusySchedule,
    truncate_s: float = 600.0,
) -> BusyExposure:
    """Fused-kernel twin of :func:`repro.core.busy.busy_exposure`.

    Accepts either the full or the already-truncated columnar view: the
    kernel caps durations at ``truncate_s`` itself, and capping is
    idempotent.
    """
    kernel = BusyKernel(schedule, col.car_ids)
    kernel.consume(ChunkIntermediates(col, _NO_CLOCK, truncate_s))
    return kernel.finalize()


def connect_time_analysis_fused(
    pre: PreprocessResult, clock: StudyClock
) -> ConnectTimeResult:
    """Fused twin of :func:`repro.core.connect_time.connect_time_analysis`.

    Both the full and the truncated union run off one shared intermediates
    bundle built from the full view — the truncated scan derives its capped
    durations internally.
    """
    col = pre.columnar_full()
    inter = ChunkIntermediates(col, clock, pre.config.truncate_s)
    full_k = ConnectKernel(col.car_ids, truncated=False)
    trunc_k = ConnectKernel(col.car_ids, truncated=True)
    full_k.consume(inter)
    trunc_k.consume(inter)
    return _connect_result(
        full_k.export_partial(), trunc_k.export_partial(), clock
    )


def handover_analysis_fused(
    pre: PreprocessResult,
    cells: dict[int, Cell],
    min_records: int = 2,
) -> HandoverStats:
    """Fused twin of :func:`repro.core.handover.handover_analysis`."""
    col = pre.columnar_full()
    kernel = HandoverKernel(
        col.car_ids,
        cells,
        gap=pre.config.network_session_gap_s,
        min_records=min_records,
    )
    kernel.consume(ChunkIntermediates(col, _NO_CLOCK, pre.config.truncate_s))
    return kernel.finalize()
