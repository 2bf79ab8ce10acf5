"""Per-cell concurrency of cars (Section 4.4, Figures 8 and 10).

The paper declares cars concurrent when their connections straddle the same
15-minute time bin — a deliberately coarse window because the projected
impact (overlapping large downloads) extends connections and shares
bandwidth.  Figure 8 renders a single cell's 24 hours of per-car connections;
Figure 10 overlays a week of per-bin concurrent-car counts on the cell's PRB
curve.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any

import numpy as np
import numpy.typing as npt

from repro.algorithms.intervals import Interval, concatenate_gaps
from repro.algorithms.segments import ragged_ranges, segment_ids, segmented_cummax
from repro.algorithms.timebins import (
    BIN_SECONDS,
    BINS_PER_WEEK,
    DAY,
    WEEK,
    StudyClock,
    straddled_bin_span,
)
from repro.cdr.columnar import ColumnarCDRBatch
from repro.cdr.records import CDRBatch, ConnectionRecord

#: The paper's aggregate-session gap: connections of one car up to this many
#: seconds apart count as one session.
SESSION_GAP_S = 30.0


def car_sessions_in_cell(
    records: list[ConnectionRecord], session_gap_s: float = SESSION_GAP_S
) -> dict[str, list[Interval]]:
    """Per-car aggregated sessions within one cell's record list.

    Applies the paper's 30-second concatenation rule per car, so one car
    counts once per bin no matter how fragmented its radio connections are.
    """
    per_car: dict[str, list[Interval]] = {}
    for rec in records:
        per_car.setdefault(rec.car_id, []).append(rec.interval)
    return {
        car: concatenate_gaps(ivs, session_gap_s) for car, ivs in per_car.items()
    }


def concurrency_counts(
    records: list[ConnectionRecord], session_gap_s: float = SESSION_GAP_S
) -> Counter[int]:
    """Concurrent cars per absolute 15-minute bin for one cell's records."""
    counts: Counter[int] = Counter()
    for sessions in car_sessions_in_cell(records, session_gap_s).values():
        seen: set[int] = set()
        for iv in sessions:
            seen.update(iv.bins_straddled(BIN_SECONDS))
        for b in seen:
            counts[b] += 1
    return counts


@dataclass(frozen=True)
class CellTimeline:
    """One cell's car connections over a day window (Figure 8).

    ``car_intervals`` maps each car to its connection intervals clipped to
    the window; ``concurrency`` counts concurrent cars per 15-minute bin of
    the window.
    """

    cell_id: int
    window_start: float
    window_end: float
    car_intervals: dict[str, list[Interval]]
    concurrency: npt.NDArray[np.int64]

    @property
    def n_cars(self) -> int:
        """Distinct cars connecting to the cell within the window."""
        return len(self.car_intervals)

    @property
    def max_concurrency(self) -> int:
        """Peak concurrent cars in any 15-minute bin of the window."""
        return int(self.concurrency.max()) if self.concurrency.size else 0

    @property
    def busiest_bin(self) -> int:
        """Window-relative index of the most concurrent 15-minute bin."""
        return int(self.concurrency.argmax()) if self.concurrency.size else 0


def cell_timeline(
    batch: CDRBatch, cell_id: int, start_day: int, n_days: int = 1
) -> CellTimeline:
    """Figure 8: per-car connections to one cell over ``n_days`` days."""
    if n_days <= 0:
        raise ValueError(f"n_days must be positive, got {n_days}")
    window_start = start_day * DAY
    window_end = window_start + n_days * DAY
    records = [
        rec
        for rec in batch.by_cell().get(cell_id, [])
        if rec.start < window_end and rec.end > window_start
    ]
    car_intervals: dict[str, list[Interval]] = {}
    for rec in records:
        clipped = rec.interval.clip(window_start, window_end)
        if clipped is not None:
            car_intervals.setdefault(rec.car_id, []).append(clipped)

    n_bins = int(n_days * DAY // BIN_SECONDS)
    concurrency = np.zeros(n_bins, dtype=np.int64)
    for intervals in car_intervals.values():
        seen: set[int] = set()
        for iv in concatenate_gaps(intervals, SESSION_GAP_S):
            seen.update(iv.bins_straddled(BIN_SECONDS))
        first_bin = int(window_start // BIN_SECONDS)
        for b in seen:
            rel = b - first_bin
            if 0 <= rel < n_bins:
                concurrency[rel] += 1
    return CellTimeline(
        cell_id=cell_id,
        window_start=window_start,
        window_end=window_end,
        car_intervals=car_intervals,
        concurrency=concurrency,
    )


def weekly_concurrency(
    records: list[ConnectionRecord],
    clock: StudyClock,
    session_gap_s: float = SESSION_GAP_S,
) -> npt.NDArray[np.float64]:
    """Mean concurrent cars per 15-minute bin of the week, 672 entries.

    Averages each hour-of-week bin's concurrent-car count over all complete
    weeks of the study, producing the per-cell vectors Figure 11 clusters
    (the paper's 96-bin day vectors are the same construction folded one
    step further; see :func:`fold_to_day`).
    """
    n_weeks = clock.duration // WEEK
    if n_weeks == 0:
        raise ValueError("study shorter than one week; cannot fold weekly")
    counts = concurrency_counts(records, session_gap_s)
    folded = np.zeros(BINS_PER_WEEK)
    bins_per_week = int(WEEK // BIN_SECONDS)
    offset_bins = clock.start_weekday * int(DAY // BIN_SECONDS)
    for b, count in counts.items():
        if b >= n_weeks * bins_per_week:
            continue  # ignore the trailing partial week
        folded[(b + offset_bins) % bins_per_week] += count
    return folded / n_weeks


def weekly_concurrency_fused(
    col: ColumnarCDRBatch,
    cell_ids: Sequence[int],
    clock: StudyClock,
) -> npt.NDArray[np.float64]:
    """:func:`weekly_concurrency` of many cells at once, from the columns.

    Returns a ``(len(cell_ids), 672)`` array whose row ``i`` is bit for bit
    ``weekly_concurrency(<cell_ids[i]'s records>, clock)``, sessions joined
    over :data:`SESSION_GAP_S`; rows of cells not listed are ignored and a
    listed cell without rows gets zeros.
    """
    listed = np.isin(col.cell_id, np.asarray(cell_ids, dtype=np.int64))
    start = col.start[listed]
    return weekly_concurrency_rows(
        cell_ids,
        col.cell_id[listed],
        col.car_code[listed],
        start,
        start + col.duration[listed],
        clock,
    )


def weekly_concurrency_rows(
    cell_ids: Sequence[int],
    cell_id: npt.NDArray[np.int64],
    car: npt.NDArray[Any],
    start: npt.NDArray[np.float64],
    end: npt.NDArray[np.float64],
    clock: StudyClock,
) -> npt.NDArray[np.float64]:
    """Weekly concurrency vectors of ``cell_ids`` from rows on those cells.

    ``car`` is any integer code that orders cars like their ids.  One
    lexsort orders the rows by (cell, car, start, end), the order
    :func:`concatenate_gaps` visits a car's intervals in, so the result
    does not depend on the input row order; a segmented running maximum
    of the ends then splits each (cell, car) run into aggregate sessions
    with the same float tests.
    """
    n_weeks = clock.duration // WEEK
    if n_weeks == 0:
        raise ValueError("study shorter than one week; cannot fold weekly")
    cells, row_of_cell = np.unique(
        np.asarray(cell_ids, dtype=np.int64), return_inverse=True
    )
    if not start.size:
        return np.zeros((len(row_of_cell), BINS_PER_WEEK))
    cell = np.searchsorted(cells, cell_id)
    order = np.lexsort((end, start, car, cell))
    cell, car, start, end = cell[order], car[order], start[order], end[order]

    # Sessions: a row opens one when it starts a (cell, car) run or begins
    # more than the gap after every earlier end of its run.  Sessions of a
    # run are disjoint, so the run's running maximum is the open session's
    # end, exactly the ``sessions[-1].end`` that concatenate_gaps tests.
    new_run = np.ones(start.size, dtype=np.bool_)
    new_run[1:] = (cell[1:] != cell[:-1]) | (car[1:] != car[:-1])
    reach = segmented_cummax(end, new_run)
    opens = new_run.copy()
    opens[1:] |= start[1:] - reach[:-1] > SESSION_GAP_S
    heads = np.flatnonzero(opens)
    s_start = start[heads]
    s_end = reach[np.append(heads[1:], start.size) - 1]

    # Bins each session straddles.  A run's later session never starts in a
    # bin before its earlier session's last, so a run's bins come out
    # non-decreasing and the (cell, car, bin) duplicates are adjacent.
    first, last = straddled_bin_span(s_start, s_end)
    owner, offset = ragged_ranges(last - first + 1)
    bins = first[owner] + offset
    run = segment_ids(new_run)[heads][owner]
    fresh = np.ones(bins.size, dtype=np.bool_)
    fresh[1:] = (run[1:] != run[:-1]) | (bins[1:] != bins[:-1])
    bins_per_week = int(WEEK // BIN_SECONDS)
    in_weeks = fresh & (bins < n_weeks * bins_per_week)
    week_bin = np.mod(
        bins[in_weeks] + clock.start_weekday * int(DAY // BIN_SECONDS),
        bins_per_week,
    )
    counts = np.bincount(
        cell[heads][owner][in_weeks] * bins_per_week + week_bin,
        minlength=cells.size * bins_per_week,
    ).reshape(cells.size, bins_per_week)
    folded: npt.NDArray[np.float64] = counts.astype(np.float64) / n_weeks
    return folded[row_of_cell]


def fold_to_day(weekly: npt.ArrayLike) -> npt.NDArray[np.float64]:
    """Collapse a 672-bin weekly vector to the 96-bin mean day."""
    w = np.asarray(weekly, dtype=float)
    if w.size != BINS_PER_WEEK:
        raise ValueError(f"expected {BINS_PER_WEEK} bins, got {w.size}")
    out: npt.NDArray[np.float64] = w.reshape(7, -1).mean(axis=0)
    return out
