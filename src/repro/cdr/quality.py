"""Data-quality diagnostics for raw CDR batches.

Section 3 of the paper *knows* its data pathologies (exactly-one-hour ghost
records, stuck modems, three days of partial loss) because the authors
inspected the feed.  This module automates that inspection: given a raw
batch it detects duration-spike artifacts, estimates the stuck-modem tail,
and flags days whose record volume drops anomalously against same-weekday
peers — producing the evidence that justifies each preprocessing rule.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np
import numpy.typing as npt

from repro.algorithms.timebins import DAY, StudyClock
from repro.cdr.columnar import ColumnarCDRBatch
from repro.cdr.records import CDRBatch


@dataclass(frozen=True)
class DurationSpike:
    """An over-represented exact duration value (e.g. exactly 3600 s)."""

    duration: float
    count: int
    #: How many times more frequent this value is than the local baseline.
    excess_factor: float


@dataclass(frozen=True)
class LossDayFinding:
    """A study day whose record volume is anomalously low."""

    day: int
    weekday: str
    records: int
    #: Median record count of the same weekday across the study.
    weekday_median: float

    @property
    def deficit(self) -> float:
        """Fraction of the expected volume missing on this day."""
        if self.weekday_median == 0:
            return 0.0
        return 1.0 - self.records / self.weekday_median


@dataclass
class QualityReport:
    """Everything the diagnostics found, with a text rendering."""

    n_records: int
    duration_spikes: list[DurationSpike] = field(default_factory=list)
    long_tail_fraction: float = 0.0
    loss_days: list[LossDayFinding] = field(default_factory=list)
    records_per_day: npt.NDArray[np.int64] = field(
        default_factory=lambda: np.zeros(0, dtype=np.int64)
    )

    @property
    def clean(self) -> bool:
        """True when no artifact class was detected."""
        return (
            not self.duration_spikes
            and not self.loss_days
            and self.long_tail_fraction < 0.05
        )

    def render(self) -> str:
        """Human-readable report."""
        lines = [f"records examined: {self.n_records:,}"]
        if self.duration_spikes:
            lines.append("duration spikes (ghost-record candidates):")
            for spike in self.duration_spikes:
                lines.append(
                    f"  {spike.duration:.0f} s x {spike.count} "
                    f"({spike.excess_factor:.0f}x local baseline)"
                )
        else:
            lines.append("duration spikes: none")
        lines.append(
            f"connections > 600 s: {self.long_tail_fraction:.1%} "
            "(stuck-modem tail; paper truncates at 600 s)"
        )
        if self.loss_days:
            lines.append("suspected data-loss days:")
            for finding in self.loss_days:
                lines.append(
                    f"  day {finding.day} ({finding.weekday}): "
                    f"{finding.records} records, "
                    f"{finding.deficit:.0%} below the {finding.weekday} median"
                )
        else:
            lines.append("suspected data-loss days: none")
        return "\n".join(lines)


def detect_duration_spikes(
    batch: CDRBatch,
    min_count: int = 20,
    min_excess: float = 10.0,
    resolution_s: float = 1.0,
) -> list[DurationSpike]:
    """Find exact duration values that are wildly over-represented.

    Durations are bucketed at ``resolution_s``; a bucket is a spike when it
    holds at least ``min_count`` records and exceeds the median count of its
    40 neighbouring buckets by ``min_excess``.  The paper's exactly-one-hour
    records are the canonical hit.
    """
    counts: Counter[int] = Counter(
        int(round(rec.duration / resolution_s)) for rec in batch
    )
    spikes: list[DurationSpike] = []
    for bucket, count in counts.items():
        if count < min_count:
            continue
        neighbours = [
            counts.get(bucket + offset, 0)
            for offset in range(-20, 21)
            if offset != 0
        ]
        baseline = max(float(np.median(neighbours)), 0.5)
        if count / baseline >= min_excess:
            spikes.append(
                DurationSpike(
                    duration=bucket * resolution_s,
                    count=count,
                    excess_factor=count / baseline,
                )
            )
    return sorted(spikes, key=lambda s: -s.count)


def long_tail_fraction(batch: CDRBatch, cutoff_s: float = 600.0) -> float:
    """Fraction of records whose duration exceeds ``cutoff_s``."""
    if len(batch) == 0:
        return 0.0
    return sum(rec.duration > cutoff_s for rec in batch) / len(batch)


def detect_loss_days(
    batch: CDRBatch | ColumnarCDRBatch,
    clock: StudyClock,
    deficit_threshold: float = 0.25,
) -> tuple[list[LossDayFinding], npt.NDArray[np.int64]]:
    """Flag days whose record volume falls short of the same-weekday median.

    Comparing against same-weekday peers keeps ordinary weekend dips from
    triggering; only days missing ``deficit_threshold`` or more of their
    expected volume are reported.  Only start times are read, so a
    :class:`ColumnarCDRBatch` is counted without building records.
    """
    col = batch if isinstance(batch, ColumnarCDRBatch) else batch.columnar()
    day = np.floor_divide(col.start, DAY).astype(np.int64)
    in_study = (day >= 0) & (day < clock.n_days)
    per_day = np.bincount(day[in_study], minlength=clock.n_days).astype(np.int64)
    findings: list[LossDayFinding] = []
    for weekday in range(7):
        days = clock.days_of_weekday(weekday)
        if len(days) < 3:
            continue
        median = float(np.median(per_day[days]))
        if median == 0:
            continue
        for day in days:
            if per_day[day] < (1.0 - deficit_threshold) * median:
                findings.append(
                    LossDayFinding(
                        day=day,
                        weekday=clock.weekday_name(day * 86400),
                        records=int(per_day[day]),
                        weekday_median=median,
                    )
                )
    return sorted(findings, key=lambda f: f.day), per_day


def assess_quality(
    batch: CDRBatch,
    clock: StudyClock,
    spike_min_count: int = 20,
    loss_deficit_threshold: float = 0.25,
) -> QualityReport:
    """Run every diagnostic and assemble the report."""
    spikes = detect_duration_spikes(batch, min_count=spike_min_count)
    loss_days, per_day = detect_loss_days(
        batch, clock, deficit_threshold=loss_deficit_threshold
    )
    return QualityReport(
        n_records=len(batch),
        duration_spikes=spikes,
        long_tail_fraction=long_tail_fraction(batch),
        loss_days=loss_days,
        records_per_day=per_day,
    )
