"""Calibration-target read-outs of a fused partial (trace twinning).

The twinning loop (:mod:`repro.twin`) compares traces through a handful of
summary statistics.  Three of them are not part of the Section 4 report —
the diurnal start-hour shape, the truncated-duration quantiles and the
aggregate-session table that inter-arrival gaps are read from — yet every
number they need is already in :class:`~repro.core.fused.FusedPartial`:

* the hour-of-day start counts ride in the presence partial;
* the duration histogram is Figure 9's sparse table of reported
  durations; a truncated duration lands in the same bin as its reported
  one, or in the cutoff's bin when it was capped;
* the aggregate sessions are the truncated union chains joined over the
  paper's 30-s gap.

So a twin summary is a read-out of the same fold the analysis report
closes, exact at any chunk size and worker count: the counts merge by
integer adds and the chain table welds with comparisons only.
"""

from __future__ import annotations

import numpy as np
import numpy.typing as npt

from repro.algorithms.stats import binned_order_statistic
from repro.core.concurrency import SESSION_GAP_S
from repro.core.fused import (
    DURATION_BIN_S,
    N_HOURS,
    ConnectPartial,
    DurationPartial,
    PresencePartial,
)


def diurnal_shape(presence: PresencePartial) -> npt.NDArray[np.float64]:
    """Hour-of-day start fractions (sums to 1; zeros on an empty trace)."""
    total = int(presence.hours.sum())
    if total == 0:
        return np.zeros(N_HOURS)
    out: npt.NDArray[np.float64] = presence.hours / float(total)
    return out


def duration_quantile(durations: DurationPartial, q: float) -> float:
    """The ``q`` (0..1) truncated-duration quantile, exact to half a bin.

    Reads the lower order statistic (0-based rank ``floor(q * (n - 1))``)
    of the truncated durations out of the reported-duration histogram:
    every bin at or past the cutoff's own bin holds durations the cutoff
    caps into that bin.  The result is the containing bin's midpoint —
    deterministic at any shard split because the counts merge exactly.
    """
    if not 0 <= q <= 1:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    counts = durations.counts
    n = int(counts.sum())
    if n == 0:
        return 0.0
    cap = int(np.floor(durations.truncate_s / DURATION_BIN_S))
    bins = np.minimum(durations.bins, cap)
    rank = int(np.floor(q * (n - 1))) + 1
    return binned_order_statistic(bins, counts, rank, DURATION_BIN_S)


def aggregate_sessions(chains: ConnectPartial) -> ConnectPartial:
    """The paper's aggregate sessions from truncated union chains.

    A car's chains are disjoint and chronological, so its running maximum
    end is always the previous chain's end: a chain joins the session
    before it when it starts at most :data:`SESSION_GAP_S` after that end.
    The table stays grouped by car and chronological within car.
    """
    car = chains.car
    if car.size == 0:
        return chains
    opens = np.ones(car.size, dtype=np.bool_)
    opens[1:] = (car[1:] != car[:-1]) | (
        chains.start[1:] - chains.cm[:-1] > SESSION_GAP_S
    )
    heads = np.flatnonzero(opens)
    tails = np.append(heads[1:], car.size) - 1
    return ConnectPartial(
        car_ids=chains.car_ids,
        car=car[heads],
        start=chains.start[heads],
        cm=chains.cm[tails],
    )


def session_gaps(
    sessions: ConnectPartial,
) -> tuple[npt.NDArray[np.int64], npt.NDArray[np.float64]]:
    """Per-car inter-session gaps from an aggregate-session table.

    Returns ``(car codes, gap seconds)`` over consecutive same-car session
    pairs.  The table is grouped by car and chronological within car, so a
    simple shifted comparison finds every pair; by construction each gap
    exceeds :data:`SESSION_GAP_S` (anything closer was joined), so all
    gaps are positive.
    """
    if len(sessions.car) < 2:
        return np.zeros(0, dtype=np.int64), np.zeros(0)
    same = sessions.car[1:] == sessions.car[:-1]
    gaps: npt.NDArray[np.float64] = (sessions.start[1:] - sessions.cm[:-1])[
        same
    ]
    cars: npt.NDArray[np.int64] = sessions.car[1:][same]
    return cars, gaps
