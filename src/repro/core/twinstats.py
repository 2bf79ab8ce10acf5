"""Calibration-target extraction on fused partials (trace twinning).

The twinning loop (:mod:`repro.twin`) compares traces through a handful of
summary statistics.  Three of them — the diurnal start-hour shape, the
session-duration histogram and the aggregate-session table that inter-
arrival gaps are read from — are not part of the Section 4
:class:`~repro.core.fused.FusedReport`, so this module adds one more
kernel in the same mold: consume :class:`ChunkIntermediates`, export a
picklable partial, absorb later shards exactly.

Merge discipline (the RL010 contract):

* ``hour_counts`` and ``duration_bins`` are integer counts — shard sums
  are exact and order-independent.
* ``sessions`` reuses :class:`~repro.core.fused.ConnectPartial` with a
  positive ``join_gap_s``: the chain tables weld across shard boundaries
  with the same compare/max walk the connect-time kernel uses, so the
  aggregate-session table — and every gap read from it — is bit-identical
  at any chunk size and worker count.

The quantile read-out is histogram-based and shared with the fused
Figure 9 kernel (:func:`repro.algorithms.stats.binned_order_statistic`):
with the default 1-second bins a duration quantile is exact to half a bin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

from repro.algorithms.stats import binned_order_statistic
from repro.algorithms.timebins import DAY, StudyClock
from repro.core.fused import ChunkIntermediates, ConnectKernel, ConnectPartial
from repro.core.preprocess import PreprocessConfig

#: Hours in a diurnal profile.
N_HOURS = 24

#: Default histogram bin width for session durations, seconds.
DEFAULT_DURATION_BIN_S = 1.0


@dataclass
class TwinStatsPartial:
    """One shard's twin-statistic contribution, exactly mergeable."""

    #: Raw rows consumed, before ghost dropping (matches the service's
    #: trace-level record count).
    n_records: int
    #: Connection starts per hour of day, in-study rows only.
    hour_counts: npt.NDArray[np.int64]
    #: Truncated-duration histogram; bin ``k`` covers
    #: ``[k * bin_s, (k + 1) * bin_s)`` and the last bin is closed.
    duration_bins: npt.NDArray[np.int64]
    bin_s: float
    #: Aggregate-session endpoint table (gap-joined truncated chains).
    sessions: ConnectPartial

    def absorb_partial(self, partial: "TwinStatsPartial") -> None:
        """Fold a later shard's statistics into this one (exact)."""
        if partial.bin_s != self.bin_s or len(partial.duration_bins) != len(
            self.duration_bins
        ):
            raise ValueError(
                "cannot merge twin-stat partials with different duration "
                "histograms"
            )
        self.n_records = self.n_records + partial.n_records
        self.hour_counts = self.hour_counts + partial.hour_counts
        self.duration_bins = self.duration_bins + partial.duration_bins
        self.sessions.absorb_partial(partial.sessions)


class TwinStatsKernel:
    """Twin-statistic kernel over shared :class:`ChunkIntermediates`.

    Follows the :class:`~repro.core.fused.FusedAnalysis` protocol —
    ``consume`` plus ``export_partial`` — so it composes with the fused
    sweep's chunking and the cross-shard fold unchanged.
    """

    def __init__(
        self,
        car_ids: tuple[str, ...],
        clock: StudyClock,
        *,
        session_gap_s: float | None = None,
        truncate_s: float | None = None,
        bin_s: float = DEFAULT_DURATION_BIN_S,
    ) -> None:
        defaults = PreprocessConfig()
        if session_gap_s is None:
            session_gap_s = defaults.session_gap_s
        if truncate_s is None:
            truncate_s = defaults.truncate_s
        if bin_s <= 0:
            raise ValueError(f"bin_s must be positive, got {bin_s}")
        self.clock = clock
        self._bin_s = bin_s
        self._n_bins = int(np.ceil(truncate_s / bin_s)) + 1
        self._n_records = 0
        self._hour_counts = np.zeros(N_HOURS, dtype=np.int64)
        self._duration_bins = np.zeros(self._n_bins, dtype=np.int64)
        self._sessions = ConnectKernel(
            car_ids, truncated=True, join_gap_s=session_gap_s
        )

    def consume(self, inter: ChunkIntermediates) -> None:
        """Fold one chunk's rows into the counters and session chains."""
        self._n_records += inter.n + inter.n_ghosts
        if inter.n:
            starts = inter.start[inter.in_study]
            hours = np.floor_divide(np.mod(starts, DAY), 3600.0).astype(
                np.int64
            )
            self._hour_counts += np.bincount(hours, minlength=N_HOURS).astype(
                np.int64
            )
            idx = np.minimum(
                np.floor_divide(inter.trunc_duration, self._bin_s).astype(
                    np.int64
                ),
                self._n_bins - 1,
            )
            self._duration_bins += np.bincount(
                idx, minlength=self._n_bins
            ).astype(np.int64)
        self._sessions.consume(inter)

    def export_partial(self) -> TwinStatsPartial:
        """Ship this shard's counters and session table for folding."""
        return TwinStatsPartial(
            n_records=self._n_records,
            hour_counts=self._hour_counts.copy(),
            duration_bins=self._duration_bins.copy(),
            bin_s=self._bin_s,
            sessions=self._sessions.export_partial(),
        )


def diurnal_shape(partial: TwinStatsPartial) -> npt.NDArray[np.float64]:
    """Hour-of-day start fractions (sums to 1; zeros on an empty trace)."""
    total = int(partial.hour_counts.sum())
    if total == 0:
        return np.zeros(N_HOURS)
    out: npt.NDArray[np.float64] = partial.hour_counts / float(total)
    return out


def duration_quantile(partial: TwinStatsPartial, q: float) -> float:
    """The ``q`` (0..1) duration quantile, exact to half a histogram bin.

    Reads the lower order statistic (0-based rank ``floor(q * (n - 1))``)
    out of the merged histogram and returns the containing bin's midpoint
    — deterministic at any shard split because the counts merge exactly.
    """
    if not 0 <= q <= 1:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    counts = partial.duration_bins
    n = int(counts.sum())
    if n == 0:
        return 0.0
    bins = np.arange(len(counts), dtype=np.int64)
    rank = int(np.floor(q * (n - 1))) + 1
    return binned_order_statistic(bins, counts, rank, partial.bin_s)


def session_gaps(
    sessions: ConnectPartial,
) -> tuple[npt.NDArray[np.int64], npt.NDArray[np.float64]]:
    """Per-car inter-session gaps from a gap-joined chain table.

    Returns ``(car codes, gap seconds)`` over consecutive same-car session
    pairs.  The table is grouped by car and chronological within car, so a
    simple shifted comparison finds every pair; by construction each gap
    exceeds the table's ``join_gap_s`` (anything closer was welded), so
    all gaps are positive.
    """
    if len(sessions.car) < 2:
        return np.zeros(0, dtype=np.int64), np.zeros(0)
    same = sessions.car[1:] == sessions.car[:-1]
    gaps: npt.NDArray[np.float64] = (sessions.start[1:] - sessions.cm[:-1])[
        same
    ]
    cars: npt.NDArray[np.int64] = sessions.car[1:][same]
    return cars, gaps
