"""Handover analysis (Section 4.5).

Radio logs cannot trace every cell a car passes — idle cars disconnect — so
the paper bounds handovers from below: within each *network session* (record
runs whose gaps never exceed 10 minutes), every change of cell between
consecutive records counts as one handover.  Each is classified by what
changed:

* between base stations (the dominant kind),
* between sectors of the same base station,
* between carriers of the same sector,
* between radio technologies (3G/4G).

The paper reports a median of 2 handovers per session, 70th percentile 4 and
90th percentile 9, with non-base-station types negligible.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

from repro.algorithms.stats import percentile
from repro.core.preprocess import PreprocessResult
from repro.network.cells import Cell


class HandoverType(enum.Enum):
    """What changed between consecutive serving cells."""

    INTER_BASE_STATION = "inter-base-station"
    INTER_SECTOR = "inter-sector"
    INTER_CARRIER = "inter-carrier"
    INTER_RAT = "inter-RAT"


def classify_handover(src: Cell, dst: Cell) -> HandoverType:
    """Classify one handover between two (different) cells.

    Technology changes take precedence (a 3G/4G transition is inter-RAT even
    across base stations), then base-station, sector and finally carrier
    changes — mirroring how the paper tabulates mutually exclusive types.
    """
    if src.cell_id == dst.cell_id:
        raise ValueError("not a handover: identical source and target cell")
    if src.technology != dst.technology:
        return HandoverType.INTER_RAT
    if src.base_station_id != dst.base_station_id:
        return HandoverType.INTER_BASE_STATION
    if src.sector_index != dst.sector_index:
        return HandoverType.INTER_SECTOR
    return HandoverType.INTER_CARRIER


@dataclass(frozen=True)
class HandoverStats:
    """Handover counts per network session plus the type breakdown."""

    #: One entry per network session: number of handovers inside it.
    per_session: npt.NDArray[np.float64]
    type_counts: Counter[HandoverType]

    @property
    def n_sessions(self) -> int:
        """Number of network sessions analyzed."""
        return int(self.per_session.size)

    @property
    def total_handovers(self) -> int:
        """Total handovers across all sessions."""
        return int(self.per_session.sum())

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile of handovers per session."""
        if self.per_session.size == 0:
            raise ValueError("no sessions to take percentiles over")
        return percentile(self.per_session, q)

    @property
    def median(self) -> float:
        """Median handovers per session (paper: 2)."""
        return self.percentile(50)

    def type_fraction(self, kind: HandoverType) -> float:
        """Share of all handovers of the given type."""
        total = self.total_handovers
        if total == 0:
            return 0.0
        return self.type_counts.get(kind, 0) / total

    def base_stations_spanned_percentile(self, q: float) -> float:
        """Percentile of base stations touched per session (handovers + 1).

        The paper phrases impact as spanning "between 3 and 10 base
        stations" for most large downloads: a session with h inter-site
        handovers touches about h + 1 sites.
        """
        return self.percentile(q) + 1.0


def handover_analysis(
    pre: PreprocessResult,
    cells: dict[int, Cell],
    min_records: int = 2,
) -> HandoverStats:
    """Count and classify handovers inside every car's network sessions.

    ``cells`` maps cell ids to topology cells (``topology.cells``).  Records
    whose cell is unknown to the directory are skipped defensively — in a
    real pipeline these are cells missing from the inventory dump.
    Sessions with fewer than ``min_records`` records cannot contain a
    handover but still contribute a zero count, keeping the paper's
    "median 2" statistic honest about mostly-idle sessions.
    """
    counts: list[int] = []
    types: Counter[HandoverType] = Counter()
    for car_id in pre.truncated.car_ids():
        for session in pre.network_sessions(car_id):
            known = [rec for rec in session if rec.cell_id in cells]
            if len(known) < min_records and len(session) >= min_records:
                continue
            handovers = 0
            for prev, cur in zip(known, known[1:]):
                if prev.cell_id == cur.cell_id:
                    continue
                handovers += 1
                types[classify_handover(cells[prev.cell_id], cells[cur.cell_id])] += 1
            counts.append(handovers)
    return HandoverStats(per_session=np.asarray(counts, dtype=float), type_counts=types)
