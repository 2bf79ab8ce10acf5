"""Section 3 preprocessing: cleaning, truncation and session aggregation.

The paper applies three rules before any analysis:

1. *Drop erroneous records* whose connections "appear to have lasted exactly
   1 hour" — artifacts of periodic reporting without a recorded disconnect.
2. *Truncate* long single-cell connections to 600 seconds during analysis, to
   mitigate modems that improperly disconnect.
3. *Concatenate* connections up to 30 seconds apart into **aggregate
   sessions**, and (for handover analysis, Section 4.5) connections with gaps
   up to 10 minutes into **network sessions**.

:func:`preprocess` applies rule 1 once and exposes both full and truncated
views of the surviving records, because the paper repeatedly contrasts the
two (Figures 3 and 9).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.algorithms.intervals import Interval, concatenate_gaps
from repro.cdr.columnar import ColumnarCDRBatch
from repro.cdr.errors import ReproError
from repro.cdr.records import CDRBatch, ConnectionRecord
from repro.cdr.store import is_record_sorted

#: Duration that marks a record as an erroneous periodic-reporting ghost.
GHOST_DURATION_S = 3600.0
#: Tolerance around exactly one hour when matching ghost records.
GHOST_TOLERANCE_S = 0.5


class NoUsableRecordsError(ReproError, ValueError):
    """Cleaning kept no record: the trace is empty or holds only ghosts.

    Every Section 4 statistic would be undefined, so the in-memory pipeline
    and the shard map-reduce both raise this instead of a report of NaNs.
    """

    def __init__(self, n_ghosts: int) -> None:
        # Ghost dropping is the only filter, so every row read was a ghost.
        super().__init__(
            f"no usable records after preprocessing: {n_ghosts:,} rows read, "
            f"{n_ghosts:,} ghost records dropped"
        )
        self.n_ghosts = n_ghosts


@dataclass(frozen=True)
class PreprocessConfig:
    """Thresholds of the Section 3 methodology, paper defaults."""

    truncate_s: float = 600.0
    session_gap_s: float = 30.0
    network_session_gap_s: float = 600.0

    def __post_init__(self) -> None:
        if self.truncate_s <= 0:
            raise ValueError(f"truncate_s must be positive, got {self.truncate_s}")
        if self.session_gap_s < 0 or self.network_session_gap_s < 0:
            raise ValueError("session gaps must be non-negative")


class PreprocessResult:
    """Cleaned views of a CDR batch.

    ``full`` holds the records with ghost one-hour rows removed, durations
    as reported; ``truncated`` holds the same records with durations capped
    at ``config.truncate_s``; ``n_dropped_ghosts`` counts the removed rows.

    The columnar views (:meth:`columnar_full` / :meth:`columnar_truncated`)
    are always available.  The :class:`~repro.cdr.records.CDRBatch` record
    lists are built from the kept columns only when a caller first asks for
    them: the fused engine and Figure 11's vectors run on the columns
    alone, so a fused pipeline run builds no record objects.
    """

    def __init__(
        self,
        config: PreprocessConfig,
        n_dropped_ghosts: int,
        kept_col: ColumnarCDRBatch,
    ) -> None:
        self.config = config
        self.n_dropped_ghosts = n_dropped_ghosts
        self._full: CDRBatch | None = None
        self._truncated: CDRBatch | None = None
        self._kept_col = kept_col
        self._trunc_col: ColumnarCDRBatch | None = None
        self._sessions: dict[str, list[Interval]] = {}
        self._network_sessions: dict[str, list[list[ConnectionRecord]]] = {}

    @property
    def n_kept(self) -> int:
        """Number of records surviving the ghost drop (no materialization)."""
        return len(self._kept_col)

    def columnar_full(self) -> ColumnarCDRBatch:
        """Columnar view of ``full`` without materializing record objects."""
        return self._kept_col

    def columnar_truncated(self) -> ColumnarCDRBatch:
        """Columnar view of ``truncated``; no record objects are built."""
        if self._trunc_col is None:
            self._trunc_col = self._kept_col.truncated(self.config.truncate_s)
        return self._trunc_col

    @property
    def full(self) -> CDRBatch:
        """Ghost-free records, durations as reported (built on demand)."""
        if self._full is None:
            # The kept columns are in record order (preprocess sorts them
            # if they were not), so the batch skips its sort.
            batch = CDRBatch(self._kept_col.to_records(), assume_sorted=True)
            batch._columnar = self._kept_col
            self._full = batch
        return self._full

    @property
    def truncated(self) -> CDRBatch:
        """Ghost-free records capped at ``truncate_s`` (built on demand)."""
        if self._truncated is None:
            kept = self.full.records
            cap = self.config.truncate_s
            over_idx = np.flatnonzero(self._kept_col.duration > cap)
            records = list(kept)
            for i in over_idx.tolist():
                records[i] = kept[i].truncated(cap)
            batch = CDRBatch(records, assume_sorted=True)
            batch._columnar = self.columnar_truncated()
            self._truncated = batch
        return self._truncated

    def aggregate_sessions(self, car_id: str) -> list[Interval]:
        """A car's aggregate sessions: truncated records joined over <=30 s gaps."""
        cached = self._sessions.get(car_id)
        if cached is None:
            cached = sessions_for(
                self.truncated.by_car().get(car_id, []), self.config.session_gap_s
            )
            self._sessions[car_id] = cached
        return cached

    def network_sessions(self, car_id: str) -> list[list[ConnectionRecord]]:
        """A car's network sessions: record runs with gaps <= 10 minutes.

        Unlike :meth:`aggregate_sessions` this keeps the records themselves
        (not just their union), because handover analysis needs the cell
        sequence inside each session.  Cached per car, like
        :meth:`aggregate_sessions`; ``by_car()`` groups are already
        chronological, so the grouping skips its defensive re-sort.
        """
        cached = self._network_sessions.get(car_id)
        if cached is None:
            cached = group_records_by_gap(
                self.truncated.by_car().get(car_id, []),
                self.config.network_session_gap_s,
                assume_sorted=True,
            )
            self._network_sessions[car_id] = cached
        return cached


def is_ghost_record(record: ConnectionRecord) -> bool:
    """Whether a record has the suspicious exactly-one-hour duration."""
    return abs(record.duration - GHOST_DURATION_S) <= GHOST_TOLERANCE_S


def preprocess(
    batch: CDRBatch | ColumnarCDRBatch, config: PreprocessConfig | None = None
) -> PreprocessResult:
    """Apply the Section 3 cleaning rules to a raw batch, on its columns.

    The ghost drop is one vectorized mask over the duration column, and
    the ``full`` / ``truncated`` record lists are built from the kept
    columns on first attribute access, so records exist only for kept rows
    and only when a record-walking analysis asks for them.  A
    :class:`CDRBatch` contributes its :meth:`~CDRBatch.columnar` view; a
    :class:`ColumnarCDRBatch` is used as it is when its rows are already in
    record order (every trace this repository writes) and sorted into it
    otherwise, so either input yields the rows a :class:`CDRBatch` would
    hold.
    """
    cfg = config or PreprocessConfig()
    if isinstance(batch, CDRBatch):
        col = batch.columnar()
    elif is_record_sorted(batch):
        col = batch
    else:
        col = batch.sorted()
    ghost_mask = np.abs(col.duration - GHOST_DURATION_S) <= GHOST_TOLERANCE_S
    n_ghosts = int(np.count_nonzero(ghost_mask))
    kept_col = col.take(np.flatnonzero(~ghost_mask)) if n_ghosts else col
    return PreprocessResult(cfg, n_ghosts, kept_col)


#: The same function; :class:`~repro.core.pipeline.AnalysisPipeline` calls
#: it by this name.
preprocess_lazy = preprocess


def sessions_for(
    records: list[ConnectionRecord], max_gap_s: float
) -> list[Interval]:
    """Aggregate a car's records into sessions joined over gaps <= ``max_gap_s``."""
    return concatenate_gaps((rec.interval for rec in records), max_gap_s)


def group_records_by_gap(
    records: list[ConnectionRecord],
    max_gap_s: float,
    *,
    assume_sorted: bool = False,
) -> list[list[ConnectionRecord]]:
    """Split a chronological record list into runs with bounded gaps.

    A new group starts whenever a record begins more than ``max_gap_s``
    seconds after the latest end seen so far (records can overlap, so the
    group's extent — not the previous record — defines the gap).

    ``assume_sorted=True`` skips the defensive sort for callers whose input
    is already chronological (``by_car()`` groups of a sorted batch).
    """
    groups: list[list[ConnectionRecord]] = []
    group_end = float("-inf")
    for rec in records if assume_sorted else sorted(records):
        if not groups or rec.start - group_end > max_gap_s:
            groups.append([rec])
        else:
            groups[-1].append(rec)
        group_end = max(group_end, rec.end)
    return groups
