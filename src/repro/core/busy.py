"""Busy cells and each car's exposure to them (Section 4.3, Figure 7).

The paper calls a cell *busy* in a 15-minute bin when its average PRB
utilization exceeds 80% in that bin.  For every car it then measures the
share of its connected time spent in busy cells: most cars spend little time
there, but ~2.4% spend over half their connected time and ~1% spend all of it
on busy radios — the cars whose FOTA downloads would pour oil onto the fire.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

from repro.algorithms.stats import decile_shares
from repro.algorithms.timebins import BIN_SECONDS, BINS_PER_DAY
from repro.cdr.records import CDRBatch
from repro.network.load import CellLoadModel

#: The paper's busy threshold on U_PRB per 15-minute bin.
BUSY_THRESHOLD = 0.80

#: Cells synthesized per :meth:`CellLoadModel.series_block` call while
#: :meth:`BusySchedule.mask_table` fills its grid: enough to amortize the
#: bulk seeding's fixed cost per call, few enough that the block's float
#: series (48 KiB per study day) stays well under the whole grid's
#: boolean masks (150 KiB per study day on the default topology).
MASK_BLOCK_CELLS = 64

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


def _synthesize(model: CellLoadModel, threshold: float) -> _MaskTable:
    """Every topology cell's busy mask over the model's whole calendar."""
    cells = sorted(model.topology.cells)
    width = model.clock.n_days * BINS_PER_DAY
    grid = np.empty((len(cells), width), dtype=np.bool_)
    for lo in range(0, len(cells), MASK_BLOCK_CELLS):
        block = cells[lo : lo + MASK_BLOCK_CELLS]
        np.greater(model.series_block(block), threshold, out=grid[lo : lo + len(block)])
    cell_ids = np.asarray(cells, dtype=np.int64)
    return cell_ids, np.full(len(cells), width, dtype=np.int64), grid


class BusySchedule:
    """Per-cell boolean busy masks over the study's 15-minute bins.

    Wraps either explicit per-cell masks (:meth:`from_series`) or a
    :class:`CellLoadModel` (the synthetic network's counters), and answers
    "was this cell busy during this bin".  Cells with no known series are
    treated as never busy, matching how an operator handles cells missing
    counters.  A model-backed schedule keeps its masks in one place, the
    :meth:`mask_table` grid, built in full on first use.
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

    @classmethod
    def from_load_model(
        cls, model: CellLoadModel, threshold: float = BUSY_THRESHOLD
    ) -> "BusySchedule":
        """Schedule backed by a load model, synthesized on first use."""
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

        For a model-backed schedule this builds :meth:`mask_table` on first
        use and returns the cell's row of its grid, a view that must not be
        written to.
        """
        if self._model is not None and self._table is None:
            self.mask_table()
        return self._masks.get(cell_id)

    def mask_table(self) -> _MaskTable:
        """Every known cell's mask as one padded grid, built once.

        Returns ``(cell_ids, lens, grid)``: sorted cell ids, each mask's
        bin count, and a ``(n_cells, max_bins)`` boolean grid padded with
        ``False``.  The fused busy kernel gathers straight from this layout
        instead of re-assembling a per-chunk table.  A model-backed grid is
        filled :data:`MASK_BLOCK_CELLS` cells at a time from
        :meth:`CellLoadModel.series_block` and is then the only store of
        the masks: :meth:`busy_mask` looks up views of its rows.  The masks
        are a pure function of the load model, so the grid lives as long as
        the schedule — in the analysis service, as long as the process,
        shared by every query for the same (scenario, days) key.
        """
        table = self._table
        if table is None:
            if self._model is None:
                table = _pad(self._masks)
            else:
                table = _synthesize(self._model, self.threshold)
                cell_ids, _, grid = table
                self._masks = dict(zip(cell_ids.tolist(), grid))
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


