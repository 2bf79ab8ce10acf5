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
from repro.algorithms.timebins import BIN_SECONDS
from repro.cdr.records import CDRBatch
from repro.network.load import CellLoadModel

#: The paper's busy threshold on U_PRB per 15-minute bin.
BUSY_THRESHOLD = 0.80

#: Default byte cap on the cached :meth:`BusySchedule.mask_table` grid.
#: A paper-scale topology (tens of thousands of cells x a 90-day bin axis)
#: stays well under this; anything larger is rebuilt on demand instead of
#: pinned for the schedule's lifetime.
MASK_TABLE_CACHE_BYTES = 256 * 1024 * 1024


class BusySchedule:
    """Per-cell boolean busy masks over the study's 15-minute bins.

    Wraps either a :class:`CellLoadModel` (the synthetic network's counters)
    or explicit per-cell utilization series, and answers "was this cell busy
    during this bin".  Cells with no known series are treated as never busy,
    matching how an operator handles cells missing counters.
    """

    def __init__(
        self,
        masks: dict[int, npt.NDArray[np.bool_]],
        threshold: float = BUSY_THRESHOLD,
        mask_table_cache_bytes: int = MASK_TABLE_CACHE_BYTES,
    ) -> None:
        if not 0 < threshold < 1:
            raise ValueError(f"threshold must be in (0, 1), got {threshold}")
        if mask_table_cache_bytes < 0:
            raise ValueError(
                "mask_table_cache_bytes must be >= 0, got "
                f"{mask_table_cache_bytes}"
            )
        self._masks = masks
        self.threshold = threshold
        self.mask_table_cache_bytes = mask_table_cache_bytes
        self._table: (
            tuple[
                npt.NDArray[np.int64],
                npt.NDArray[np.int64],
                npt.NDArray[np.bool_],
            ]
            | None
        ) = None

    @classmethod
    def from_load_model(
        cls, model: CellLoadModel, threshold: float = BUSY_THRESHOLD
    ) -> "BusySchedule":
        """Lazily-materialized schedule backed by a load model."""
        schedule = cls({}, threshold)
        schedule._model = model  # type: ignore[attr-defined]
        return schedule

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
        """Boolean per-bin busy mask for a cell, or ``None`` when unknown."""
        mask = self._masks.get(cell_id)
        if mask is None:
            model: CellLoadModel | None = getattr(self, "_model", None)
            if model is None or cell_id not in model.topology.cells:
                return None
            mask = model.series(cell_id) > self.threshold
            self._masks[cell_id] = mask
        return mask

    def mask_table(
        self,
    ) -> tuple[
        npt.NDArray[np.int64], npt.NDArray[np.int64], npt.NDArray[np.bool_]
    ]:
        """Every known cell's mask as one padded grid, built once.

        Returns ``(cell_ids, lens, grid)``: sorted cell ids, each mask's
        bin count, and a ``(n_cells, max_bins)`` boolean grid padded with
        ``False``.  The fused busy kernel gathers straight from this layout
        instead of re-assembling a per-chunk table; the masks are a pure
        function of the load model, so the grid is cached for the
        schedule's lifetime (like the per-cell masks themselves) — but only
        while it fits ``mask_table_cache_bytes``.  An over-budget grid is
        returned without being stored, trading rebuild time for a bounded
        resident set in long-running processes such as the analysis
        service, which shares one schedule across every query for the same
        (scenario, days) key.
        """
        table = self._table
        if table is None:
            model: CellLoadModel | None = getattr(self, "_model", None)
            known = set(self._masks)
            if model is not None:
                known |= set(model.topology.cells)
            cell_ids = np.fromiter(
                sorted(known), dtype=np.int64, count=len(known)
            )
            masks = [self.busy_mask(int(c)) for c in cell_ids]
            lens = np.asarray(
                [0 if m is None else m.size for m in masks], dtype=np.int64
            )
            width = int(lens.max()) if len(masks) else 0
            grid = np.zeros((len(masks), width), dtype=np.bool_)
            for row, mask in enumerate(masks):
                if mask is not None:
                    grid[row, : mask.size] = mask
            table = (cell_ids, lens, grid)
            total_bytes = cell_ids.nbytes + lens.nbytes + grid.nbytes
            if total_bytes <= self.mask_table_cache_bytes:
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


