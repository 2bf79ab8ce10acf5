"""Daily presence of cars and cells (Figure 2, Table 1).

For every study day, what percentage of all cars in the data set appeared on
the network, and what percentage of all ever-used cells saw at least one car?
The paper reports both series with weekly structure, OLS trend lines, and a
per-weekday mean/standard-deviation table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

from repro.algorithms.stats import TrendLine, linear_trend
from repro.algorithms.timebins import WEEKDAY_NAMES, StudyClock
from repro.cdr.records import CDRBatch


@dataclass(frozen=True)
class DailyPresence:
    """Per-day presence fractions over the study period.

    ``car_fraction[d]`` is the share of all cars (cars seen at least once in
    the whole study) that connected on day ``d``; ``cell_fraction[d]`` is the
    share of all ever-used cells that served at least one car on day ``d``.
    """

    clock: StudyClock
    car_fraction: npt.NDArray[np.float64]
    cell_fraction: npt.NDArray[np.float64]
    n_cars_total: int
    n_cells_total: int

    @property
    def has_trends(self) -> bool:
        """Whether the study has the two days a trend line needs.

        :attr:`car_trend` and :attr:`cell_trend` raise ``ValueError`` on a
        one-day study; reports print the trends as unavailable instead.
        """
        return self.car_fraction.size >= 2

    @property
    def car_trend(self) -> TrendLine:
        """OLS trend of the car series over day index (Figure 2 annotation)."""
        return linear_trend(np.arange(self.car_fraction.size), self.car_fraction)

    @property
    def cell_trend(self) -> TrendLine:
        """OLS trend of the cell series over day index."""
        return linear_trend(np.arange(self.cell_fraction.size), self.cell_fraction)


@dataclass(frozen=True)
class WeekdayRow:
    """One row of Table 1."""

    weekday: str
    cell_mean: float
    cell_std: float
    car_mean: float
    car_std: float


def daily_presence(batch: CDRBatch, clock: StudyClock) -> DailyPresence:
    """Compute the Figure 2 series from a (cleaned) batch.

    A record contributes its car and cell to every day its *start* falls on,
    matching CDR-day accounting (each record is logged on the day the
    connection began).
    """
    cars_by_day: list[set[str]] = [set() for _ in range(clock.n_days)]
    cells_by_day: list[set[int]] = [set() for _ in range(clock.n_days)]
    all_cars: set[str] = set()
    all_cells: set[int] = set()
    for rec in batch:
        day = clock.day_index(rec.start)
        if not 0 <= day < clock.n_days:
            continue
        cars_by_day[day].add(rec.car_id)
        cells_by_day[day].add(rec.cell_id)
        all_cars.add(rec.car_id)
        all_cells.add(rec.cell_id)
    n_cars = max(len(all_cars), 1)
    n_cells = max(len(all_cells), 1)
    return DailyPresence(
        clock=clock,
        car_fraction=np.asarray([len(s) / n_cars for s in cars_by_day]),
        cell_fraction=np.asarray([len(s) / n_cells for s in cells_by_day]),
        n_cars_total=len(all_cars),
        n_cells_total=len(all_cells),
    )


def weekday_table(
    presence: DailyPresence, exclude_days: tuple[int, ...] = ()
) -> list[WeekdayRow]:
    """Table 1: per-weekday mean and standard deviation of both series.

    ``exclude_days`` removes known data-loss days from the statistics (the
    paper notes the loss does not affect overall results; excluding them
    here keeps the weekday means honest).  The returned list has eight rows:
    Monday..Sunday plus an "Overall" row, as in the paper.
    """
    rows: list[WeekdayRow] = []
    excluded = set(exclude_days)
    for wd in range(7):
        days = [d for d in presence.clock.days_of_weekday(wd) if d not in excluded]
        if not days:
            continue
        cells = presence.cell_fraction[days]
        cars = presence.car_fraction[days]
        rows.append(
            WeekdayRow(
                weekday=WEEKDAY_NAMES[wd],
                cell_mean=float(cells.mean()),
                cell_std=float(cells.std(ddof=0)),
                car_mean=float(cars.mean()),
                car_std=float(cars.std(ddof=0)),
            )
        )
    keep = [d for d in range(presence.clock.n_days) if d not in excluded]
    cells = presence.cell_fraction[keep]
    cars = presence.car_fraction[keep]
    rows.append(
        WeekdayRow(
            weekday="Overall",
            cell_mean=float(cells.mean()),
            cell_std=float(cells.std(ddof=0)),
            car_mean=float(cars.mean()),
            car_std=float(cars.std(ddof=0)),
        )
    )
    return rows
