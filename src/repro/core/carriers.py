"""Frequency band (carrier) usage (Section 4.6, Table 3).

Two statistics per carrier C1..C5: the percentage of cars that connected to
the carrier at least once over the study, and the percentage of total
connection time spent on it.  The paper finds C1-C4 used by 80-99% of cars
with C3+C4 carrying ~75% of connected time, and C5 essentially unused — the
legacy-capability story of long-lived car modems.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cdr.records import CDRBatch

#: Canonical carrier order for reporting.
CARRIER_ORDER = ("C1", "C2", "C3", "C4", "C5")


@dataclass(frozen=True)
class CarrierUsage:
    """Table 3: per-carrier reach and time share."""

    #: Fraction of cars that used each carrier at least once.
    cars_fraction: dict[str, float]
    #: Fraction of total connection time spent on each carrier.
    time_fraction: dict[str, float]
    n_cars: int
    total_time_s: float

    def top_carriers_by_time(self, n: int = 2) -> list[str]:
        """Carrier names ordered by descending time share, first ``n``."""
        ranked = sorted(
            self.time_fraction, key=lambda c: self.time_fraction[c], reverse=True
        )
        return ranked[:n]

    def combined_time_share(self, carriers: tuple[str, ...]) -> float:
        """Total time share of the given carriers (paper: C3+C4 ~ 75%)."""
        return sum(self.time_fraction.get(c, 0.0) for c in carriers)


def carrier_usage(
    batch: CDRBatch, carriers: tuple[str, ...] = CARRIER_ORDER
) -> CarrierUsage:
    """Compute Table 3 from a (cleaned) batch.

    Time shares use reported (possibly truncated) durations; carriers never
    observed in the batch report zero for both statistics, so the table
    always covers the requested carrier list.
    """
    cars_per_carrier: dict[str, set[str]] = {c: set() for c in carriers}
    time_per_carrier: dict[str, float] = {c: 0.0 for c in carriers}
    all_cars: set[str] = set()
    total_time = 0.0
    for rec in batch:
        all_cars.add(rec.car_id)
        total_time += rec.duration
        if rec.carrier in cars_per_carrier:
            cars_per_carrier[rec.carrier].add(rec.car_id)
            time_per_carrier[rec.carrier] += rec.duration
    n_cars = max(len(all_cars), 1)
    return CarrierUsage(
        cars_fraction={c: len(cars_per_carrier[c]) / n_cars for c in carriers},
        time_fraction={
            c: (time_per_carrier[c] / total_time if total_time > 0 else 0.0)
            for c in carriers
        },
        n_cars=len(all_cars),
        total_time_s=total_time,
    )


