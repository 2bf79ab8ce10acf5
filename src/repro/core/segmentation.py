"""Car segmentation (Section 4.3, Figure 6 and Table 2).

Two independent axes classify every car:

* *rare vs common*: how many distinct days the car appeared on the network
  over the study.  The paper reads thresholds off the Figure 6 histogram —
  a sharp drop below 10 days and a rising trend past 30 — and segments with
  both.
* *busy vs non-busy vs both*: a car typically connects in busy hours when
  65% or more of its connected time is in cells with U_PRB > 80% for those
  15-minute bins, in non-busy hours when 35% or less is, and is balanced
  ("Both") otherwise.

The cross product is Table 2, the basis for managed-FOTA policies.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

from repro.algorithms.timebins import StudyClock
from repro.cdr.records import CDRBatch
from repro.core.busy import BusyExposure

#: Paper thresholds on the busy-time share.
BUSY_CAR_THRESHOLD = 0.65
NONBUSY_CAR_THRESHOLD = 0.35
#: The two rare/common day thresholds the paper derives from Figure 6.
RARE_THRESHOLDS = (10, 30)


class BusyClass(enum.Enum):
    """Typical network-hour class of a car."""

    BUSY = "Busy"
    NON_BUSY = "Non-Busy"
    BOTH = "Both"


def classify_busy(
    busy_share: float,
    busy_threshold: float = BUSY_CAR_THRESHOLD,
    nonbusy_threshold: float = NONBUSY_CAR_THRESHOLD,
) -> BusyClass:
    """Paper rule: >=65% busy time -> Busy, <=35% -> Non-Busy, else Both."""
    if not 0 <= nonbusy_threshold <= busy_threshold <= 1:
        raise ValueError(
            "need 0 <= nonbusy_threshold <= busy_threshold <= 1, got "
            f"{nonbusy_threshold}, {busy_threshold}"
        )
    if busy_share >= busy_threshold:
        return BusyClass.BUSY
    if busy_share <= nonbusy_threshold:
        return BusyClass.NON_BUSY
    return BusyClass.BOTH


def days_on_network(batch: CDRBatch, clock: StudyClock) -> dict[str, int]:
    """Distinct study days each car appeared on the network (Figure 6)."""
    days: dict[str, set[int]] = {}
    for rec in batch:
        day = clock.day_index(rec.start)
        if 0 <= day < clock.n_days:
            days.setdefault(rec.car_id, set()).add(day)
    return {car: len(s) for car, s in days.items()}


def days_histogram(
    days: dict[str, int], n_days: int
) -> tuple[npt.NDArray[np.int64], npt.NDArray[np.int64]]:
    """Histogram of days-on-network: ``(day values 1..n_days, car counts)``."""
    values = np.arange(1, n_days + 1, dtype=np.int64)
    counts = np.zeros(n_days, dtype=np.int64)
    for d in days.values():
        if 1 <= d <= n_days:
            counts[d - 1] += 1
    return values, counts


@dataclass(frozen=True)
class SegmentationRow:
    """One row of Table 2: percentages of the car population."""

    label: str
    busy: float
    non_busy: float
    both: float

    @property
    def total(self) -> float:
        """Row total — share of all cars in this rare/common segment."""
        return self.busy + self.non_busy + self.both


@dataclass(frozen=True)
class CarSegmentation:
    """Full Table 2: one rare+common row pair per day threshold."""

    rows: list[SegmentationRow]
    n_cars: int

    def row(self, label: str) -> SegmentationRow:
        """Row by its label, e.g. ``"Rare (<= 10 days)"``."""
        for r in self.rows:
            if r.label == label:
                return r
        raise KeyError(f"no segmentation row labelled {label!r}")


def segment_cars(
    days: dict[str, int],
    exposure: BusyExposure,
    rare_thresholds: tuple[int, ...] = RARE_THRESHOLDS,
    busy_threshold: float = BUSY_CAR_THRESHOLD,
    nonbusy_threshold: float = NONBUSY_CAR_THRESHOLD,
) -> CarSegmentation:
    """Build Table 2 from days-on-network and busy exposure.

    Cars present in either input are segmented; a car missing from ``days``
    (no in-window records) counts as 0 days and hence rare.
    """
    share = dict(zip(exposure.car_ids, exposure.busy_share))
    all_cars = sorted(set(days) | set(share))
    if not all_cars:
        raise ValueError("cannot segment an empty car population")
    n = len(all_cars)

    classes = {
        car: classify_busy(share.get(car, 0.0), busy_threshold, nonbusy_threshold)
        for car in all_cars
    }

    rows: list[SegmentationRow] = []
    for threshold in rare_thresholds:
        rare = {car for car in all_cars if days.get(car, 0) <= threshold}
        for label, members in (
            (f"Rare (<= {threshold} days)", rare),
            (f"Common ({threshold}+ days)", set(all_cars) - rare),
        ):
            counts = {cls: 0 for cls in BusyClass}
            for car in members:
                counts[classes[car]] += 1
            rows.append(
                SegmentationRow(
                    label=label,
                    busy=counts[BusyClass.BUSY] / n,
                    non_busy=counts[BusyClass.NON_BUSY] / n,
                    both=counts[BusyClass.BOTH] / n,
                )
            )
    return CarSegmentation(rows=rows, n_cars=n)
