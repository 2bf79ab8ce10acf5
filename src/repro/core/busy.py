"""Busy cells and each car's exposure to them (Section 4.3, Figure 7).

The paper calls a cell *busy* in a 15-minute bin when its average PRB
utilization exceeds 80% in that bin.  For every car it then measures the
share of its connected time spent in busy cells: most cars spend little time
there, but ~2.4% spend over half their connected time and ~1% spend all of it
on busy radios — the cars whose FOTA downloads would pour oil onto the fire.

Synthetic masks come from the load model one (cell, study day) pair at a
time and only when read: a cold ``analyze`` pays for the cell-days its
trace touches, not for every topology cell on every study day.  A pair
costs one hash and one compare per bin (:meth:`CellLoadModel.busy_block`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np
import numpy.typing as npt

from repro.algorithms.stats import decile_shares
from repro.algorithms.timebins import BIN_SECONDS, BINS_PER_DAY
from repro.cdr.records import CDRBatch
from repro.network.load import CellLoadModel

#: The paper's busy threshold on U_PRB per 15-minute bin.
BUSY_THRESHOLD = 0.80

#: (cell, day) pairs built per :meth:`CellLoadModel.busy_block` call:
#: enough to amortize a call's fixed cost, few enough that the block's
#: words and cutoffs (384 KiB each) stay bounded at any study length and
#: off an ``analyze``'s peak memory.
MASK_BLOCK_PAIRS = 512

_MaskTable = tuple[
    npt.NDArray[np.int64], npt.NDArray[np.int64], npt.NDArray[np.bool_]
]


def _pad(masks: dict[int, npt.NDArray[np.bool_]]) -> _MaskTable:
    """Explicit masks of any lengths as one ``False``-padded grid."""
    cell_ids = np.fromiter(sorted(masks), dtype=np.int64, count=len(masks))
    rows = [masks[int(c)] for c in cell_ids]
    lens = np.asarray([m.size for m in rows], dtype=np.int64)
    grid = np.zeros((len(rows), int(lens.max(initial=0))), dtype=np.bool_)
    for row, mask in enumerate(rows):
        grid[row, : mask.size] = mask
    return cell_ids, lens, grid


class BusySchedule:
    """Per-cell boolean busy masks over the study's 15-minute bins.

    Wraps either explicit per-cell masks (:meth:`from_series`) or a
    :class:`CellLoadModel` (the synthetic network's counters), and answers
    "was this cell busy during this bin".  Cells with no known series are
    treated as never busy, matching how an operator handles cells missing
    counters.

    A model-backed schedule keeps its masks in one place, the
    :meth:`mask_table` grid, and builds them one (cell, study day) pair at
    a time, only when asked: a trace that touches a quarter of the
    calendar pays for a quarter of it.  Building mutates the schedule, so
    a schedule shared between threads must be complete (``mask_table()``)
    before they read it; the analysis service builds its whole calendar
    before it serves or forks, and its request threads only read.
    """

    def __init__(
        self,
        masks: dict[int, npt.NDArray[np.bool_]],
        threshold: float = BUSY_THRESHOLD,
        model: CellLoadModel | None = None,
    ) -> None:
        if not 0 < threshold < 1:
            raise ValueError(f"threshold must be in (0, 1), got {threshold}")
        if masks and model is not None:
            raise ValueError("give explicit masks or a load model, not both")
        self._masks = masks
        self.threshold = threshold
        self._model = model
        self._table: _MaskTable | None = None
        #: Model-backed: ``(n_cells, n_days)`` flags of the built pairs.
        self._built: npt.NDArray[np.bool_] | None = None
        #: Model-backed: each topology cell's row in the grid.
        self._rows: dict[int, int] = {}

    @classmethod
    def from_load_model(
        cls, model: CellLoadModel, threshold: float = BUSY_THRESHOLD
    ) -> "BusySchedule":
        """Schedule backed by a load model, synthesized on demand."""
        return cls({}, threshold, model=model)

    @classmethod
    def from_series(
        cls,
        series: dict[int, npt.NDArray[np.float64]],
        threshold: float = BUSY_THRESHOLD,
    ) -> "BusySchedule":
        """Schedule from explicit per-cell utilization series."""
        return cls(
            {cid: np.asarray(s) > threshold for cid, s in series.items()}, threshold
        )

    def busy_mask(self, cell_id: int) -> npt.NDArray[np.bool_] | None:
        """Boolean per-bin busy mask for a cell, or ``None`` when unknown.

        For a model-backed schedule the first call for a cell builds its
        missing days; every call returns the cell's row of the
        :meth:`mask_table` grid, a view that must not be written to.
        """
        mask = self._masks.get(cell_id)
        if mask is None and self._model is not None:
            _, _, grid = self._layout()
            row = self._rows.get(cell_id)
            if row is None:
                return None
            days = np.arange(grid.shape[1] // BINS_PER_DAY)
            self.mask_table(np.full(days.size, row), days)
            mask = self._masks[cell_id] = grid[row]
        return mask

    def directory(self) -> tuple[npt.NDArray[np.int64], npt.NDArray[np.int64]]:
        """``(cell_ids, lens)`` of :meth:`mask_table`, without building a mask."""
        cell_ids, lens, _ = self._layout()
        return cell_ids, lens

    def mask_table(
        self,
        positions: npt.NDArray[np.integer[Any]] | None = None,
        days: npt.NDArray[np.integer[Any]] | None = None,
    ) -> _MaskTable:
        """Every known cell's mask as one padded grid.

        Returns ``(cell_ids, lens, grid)``: sorted cell ids, each mask's
        bin count, and a ``(n_cells, max_bins)`` boolean grid padded with
        ``False``, which the fused busy kernel gathers from directly.

        A model-backed grid starts all ``False`` and builds (cell, study
        day) pairs on request, :data:`MASK_BLOCK_PAIRS` at a time through
        :meth:`CellLoadModel.busy_block`: with no arguments every missing
        pair, given equal-length arrays of directory positions (rows of
        ``grid``) and study days only the missing pairs among them.  A pair
        not yet built reads ``False``.  The grid is the only store of the
        masks (:meth:`busy_mask` returns views of its rows) and lives as
        long as the schedule — in the analysis service, as long as the
        process, shared by every query for the same (scenario, days) key.
        """
        if (positions is None) != (days is None):
            raise ValueError("give positions and days together, or neither")
        table = self._layout()
        model, built = self._model, self._built
        if model is None or built is None or built.all():
            return table
        n_days = built.shape[1]
        if positions is None or days is None:
            missing = np.flatnonzero(~built)
        else:
            if days.size and not (days.min() >= 0 and days.max() < n_days):
                raise ValueError(f"study days must lie in [0, {n_days})")
            # Flat flags dedupe the request in O(request + calendar).
            wanted = np.zeros(built.size, dtype=np.bool_)
            wanted[positions * n_days + days] = True
            wanted &= ~built.reshape(-1)
            missing = np.flatnonzero(wanted)
        rows, cols = np.divmod(missing, n_days)
        cell_ids, _, grid = table
        by_day = grid.reshape(len(cell_ids), -1, BINS_PER_DAY)
        for lo in range(0, rows.size, MASK_BLOCK_PAIRS):
            r, d = rows[lo : lo + MASK_BLOCK_PAIRS], cols[lo : lo + MASK_BLOCK_PAIRS]
            by_day[r, d] = model.busy_block(cell_ids[r], d, self.threshold)
        built[rows, cols] = True
        return table

    def _layout(self) -> _MaskTable:
        """The table, allocated once; a model-backed grid starts unbuilt."""
        table = self._table
        if table is None:
            if self._model is None:
                table = _pad(self._masks)
            else:
                cells = sorted(self._model.topology.cells)
                n_days = self._model.clock.n_days
                width = n_days * BINS_PER_DAY
                table = (
                    np.asarray(cells, dtype=np.int64),
                    np.full(len(cells), width, dtype=np.int64),
                    np.zeros((len(cells), width), dtype=np.bool_),
                )
                self._built = np.zeros((len(cells), n_days), dtype=np.bool_)
                self._rows = {cell_id: row for row, cell_id in enumerate(cells)}
            self._table = table
        return table

    def is_busy(self, cell_id: int, global_bin: int) -> bool:
        """Whether the cell was busy in the given absolute 15-minute bin."""
        mask = self.busy_mask(cell_id)
        if mask is None or not 0 <= global_bin < mask.size:
            return False
        return bool(mask[global_bin])


@dataclass(frozen=True)
class BusyExposure:
    """Per-car busy-time exposure (the data behind Figure 7)."""

    car_ids: list[str]
    #: Fraction of each car's connected time spent in busy cells, in [0, 1].
    busy_share: npt.NDArray[np.float64]
    #: Fraction of each car's connected time in *non*-busy cells.
    nonbusy_share: npt.NDArray[np.float64]

    def share_distribution(self) -> npt.NDArray[np.float64]:
        """Figure 7a: proportion of cars per 10%-wide busy-share bucket.

        Eleven buckets: [0,10%), ..., [90%,100%), and exactly-100% cars
        merged into the last bucket.
        """
        edges = np.arange(0.0, 1.1, 0.1)
        edges[-1] = 1.0 + 1e-9
        return decile_shares(self.busy_share, edges)

    def share_distribution_above(self, floor: float = 0.5) -> npt.NDArray[np.float64]:
        """Figure 7b: distribution of busy share among cars above ``floor``.

        Five 10%-wide buckets from ``floor`` to 100% (the last closed),
        normalized over the cars whose busy share is at least ``floor`` —
        the zoomed panel the paper uses to show the heavy-exposure tail's
        internal structure.  All-zero when no car reaches the floor.
        """
        if not 0 <= floor < 1:
            raise ValueError(f"floor must be in [0, 1), got {floor}")
        tail = self.busy_share[self.busy_share >= floor]
        edges = np.linspace(floor, 1.0, 6)
        edges[-1] = 1.0 + 1e-9
        if tail.size == 0:
            return np.zeros(5)
        return decile_shares(tail, edges)

    def fraction_above(self, threshold: float) -> float:
        """Proportion of cars with busy share strictly above ``threshold``."""
        if self.busy_share.size == 0:
            return 0.0
        return float((self.busy_share > threshold).mean())

    def fraction_all_busy(self, tolerance: float = 1e-9) -> float:
        """Proportion of cars spending (essentially) all time in busy cells."""
        if self.busy_share.size == 0:
            return 0.0
        return float((self.busy_share >= 1.0 - tolerance).mean())


def _shares(
    car_ids: list[str],
    busy: npt.NDArray[np.float64],
    total: npt.NDArray[np.float64],
) -> BusyExposure:
    """Close busy/total second tallies into a :class:`BusyExposure`."""
    safe_total = np.where(total > 0, total, 1.0)
    return BusyExposure(
        car_ids=car_ids,
        busy_share=np.where(total > 0, busy / safe_total, 0.0),
        nonbusy_share=np.where(total > 0, 1.0 - busy / safe_total, 0.0),
    )


def busy_exposure(batch: CDRBatch, schedule: BusySchedule) -> BusyExposure:
    """Compute every car's busy/non-busy connected-time split.

    Each record's duration is apportioned to the 15-minute bins it overlaps;
    seconds in bins where the record's cell was busy count as busy time.
    Records on cells without a busy mask skip the per-bin walk entirely —
    their whole duration is non-busy time.
    """
    car_ids = batch.car_ids()
    busy = np.zeros(len(car_ids))
    total = np.zeros(len(car_ids))
    index = {car: i for i, car in enumerate(car_ids)}
    for rec in batch:
        i = index[rec.car_id]
        mask = schedule.busy_mask(rec.cell_id)
        if mask is None:
            total[i] += rec.duration
            continue
        for b in rec.interval.bins_straddled(BIN_SECONDS):
            lo = max(rec.start, b * BIN_SECONDS)
            hi = min(rec.end, (b + 1) * BIN_SECONDS)
            seconds = max(0.0, hi - lo)
            total[i] += seconds
            if 0 <= b < mask.size and mask[b]:
                busy[i] += seconds
    return _shares(car_ids, busy, total)


