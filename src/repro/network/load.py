"""Per-cell Physical Resource Block (PRB) utilization model.

The paper classifies each cell as busy or non-busy per 15-minute bin using
the average PRB utilization U_PRB (busy when U_PRB > 80%), selects "very busy"
cells by mean weekly utilization >= 70% (Figure 11) and overlays load curves
on concurrency plots (Figures 1 and 10).  Production networks export these
counters; here we synthesize them.

Each cell gets a weekly utilization template built from a diurnal shape —
low overnight, a morning commute bump, a broad evening peak spanning the
network busy hours (roughly 14:00-24:00 per Section 4.2) and a flatter, later
weekend profile — scaled between a per-cell floor and ceiling.  Ceilings
depend on the deployment tier (urban cells run hotter) and a fraction of
cells are "hot": persistently loaded cells of the kind Figure 11 clusters.
Deterministic per-(cell, day) noise makes day-to-day variation reproducible
without storing the full 90-day series.

:meth:`CellLoadModel.day_series` is the definition: one fresh
``np.random.default_rng`` per (cell, day).  :meth:`CellLoadModel.series_block`
builds whole calendars for a block of cells with the same draws, seeding one
reused generator from :func:`repro.algorithms.rng.pcg64_states` instead of
constructing a generator per day, which is most of a day's cost.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

from repro.algorithms.rng import check_entropy, pcg64_states
from repro.algorithms.timebins import BINS_PER_DAY, BINS_PER_WEEK, StudyClock
from repro.network.geometry import distance
from repro.network.topology import NetworkTopology, Tier


def _bump(
    hours: npt.NDArray[np.float64], center: float, width: float
) -> npt.NDArray[np.float64]:
    """Gaussian bump over hour-of-day, wrapping around midnight."""
    delta = np.minimum(np.abs(hours - center), 24.0 - np.abs(hours - center))
    bump: npt.NDArray[np.float64] = np.exp(-0.5 * (delta / width) ** 2)
    return bump


def weekday_shape() -> npt.NDArray[np.float64]:
    """Normalized weekday diurnal shape, 96 bins, values in [0, 1]."""
    hours = np.arange(BINS_PER_DAY) / 4.0
    curve = (
        0.18
        + 0.45 * _bump(hours, 8.0, 1.6)
        + 0.55 * _bump(hours, 13.0, 3.0)
        + 1.00 * _bump(hours, 19.0, 3.8)
    )
    return curve / curve.max()


def weekend_shape() -> npt.NDArray[np.float64]:
    """Normalized weekend diurnal shape: later start, flatter afternoon."""
    hours = np.arange(BINS_PER_DAY) / 4.0
    curve = (
        0.20
        + 0.65 * _bump(hours, 12.5, 3.5)
        + 0.90 * _bump(hours, 18.5, 4.2)
    )
    shape: npt.NDArray[np.float64] = curve / curve.max()
    return shape


@dataclass(frozen=True)
class LoadProfile:
    """Static load parameters of one cell."""

    floor: float
    ceiling: float
    hot: bool

    def __post_init__(self) -> None:
        if not 0.0 <= self.floor <= self.ceiling <= 1.0:
            raise ValueError(
                f"need 0 <= floor <= ceiling <= 1, got {self.floor}, {self.ceiling}"
            )


#: Mean utilization ceiling by deployment tier.  Production macro networks
#: run hot at peak: most urban cells cross the 80% busy bar during the
#: evening busy hours.
_TIER_CEILING = {Tier.URBAN: 0.86, Tier.SUBURBAN: 0.81, Tier.RURAL: 0.52}
#: Probability that a site outside the hot district is "hot" (persistently
#: loaded), by tier.
_TIER_HOT_PROB = {Tier.URBAN: 0.06, Tier.SUBURBAN: 0.05, Tier.RURAL: 0.01}
#: Radius around the metro core inside which every site is hot — the
#: congested downtown district that gives some cars a busy-cell-dominated
#: life (Figure 7's tail).
HOT_DISTRICT_RADIUS_KM = 3.0
#: Cells per block of weekly templates in :meth:`CellLoadModel.busy_cell_ids`.
_TEMPLATE_BLOCK = 128


class CellLoadModel:
    """Deterministic synthetic PRB utilization for every cell of a topology.

    Parameters
    ----------
    topology:
        The radio network whose cells need load series.
    clock:
        Study calendar (length, starting weekday).
    seed:
        Root seed; all per-cell parameters and per-day noise derive from it,
        so two models built with the same arguments agree bin for bin.
    noise_std:
        Standard deviation of the per-bin utilization noise.
    """

    def __init__(
        self,
        topology: NetworkTopology,
        clock: StudyClock,
        seed: int = 11,
        noise_std: float = 0.03,
        hot_district_radius_km: float = HOT_DISTRICT_RADIUS_KM,
    ) -> None:
        self.topology = topology
        self.clock = clock
        self.seed = seed
        # Every (cell, day) noise entropy must lie in the bulk seeding's range.
        check_entropy(seed)
        check_entropy(self._entropy(max(topology.cells, default=0), clock.n_days - 1))
        self.noise_std = noise_std
        self.hot_district_radius_km = hot_district_radius_km
        self._profiles: dict[int, LoadProfile] = {}
        self._templates: dict[int, npt.NDArray[np.float64]] = {}
        self._wd_shape = weekday_shape()
        self._we_shape = weekend_shape()
        self._assign_profiles()

    def _assign_profiles(self) -> None:
        rng = np.random.default_rng(self.seed)
        # Hotness is a property of the *site*: loaded areas load every cell
        # of the serving base station, which is what lets some cars spend
        # most of their connected time on busy radios (Figure 7's tail).
        center = self.topology.config.center
        hot_sites: dict[int, bool] = {}
        for site in self.topology.sites:
            in_district = (
                distance(site.location, center) <= self.hot_district_radius_km
            )
            random_hot = bool(
                rng.random()
                < _TIER_HOT_PROB[self.topology.config.tier_of(site.location)]
            )
            hot_sites[site.base_station_id] = in_district or random_hot
        for cell_id in sorted(self.topology.cells):
            cell = self.topology.cell(cell_id)
            tier = self.topology.config.tier_of(cell.location)
            hot = hot_sites[cell.base_station_id]
            if hot:
                ceiling = float(min(max(rng.normal(0.96, 0.02), 0.88), 1.0))
                floor = float(min(max(rng.normal(0.68, 0.04), 0.55), 0.78))
            else:
                ceiling = float(
                    min(max(rng.normal(_TIER_CEILING[tier], 0.10), 0.10), 0.92)
                )
                floor = float(min(max(rng.normal(0.12, 0.04), 0.02), 0.30))
            if floor > ceiling:
                floor, ceiling = ceiling, floor
            self._profiles[cell_id] = LoadProfile(floor=floor, ceiling=ceiling, hot=hot)

    def profile(self, cell_id: int) -> LoadProfile:
        """Static load parameters of a cell."""
        return self._profiles[cell_id]

    def weekly_template(self, cell_id: int) -> npt.NDArray[np.float64]:
        """Noise-free weekly utilization template, 672 bins starting Monday.

        The template always starts on Monday regardless of the study's start
        weekday; callers indexing by study time should use
        :meth:`utilization`, :meth:`day_series` or :meth:`series_block`,
        which apply the calendar.
        """
        cached = self._templates.get(cell_id)
        if cached is not None:
            return cached
        template = self._weekly_templates([self._profiles[cell_id]])[0]
        self._templates[cell_id] = template
        return template

    def _weekly_templates(
        self, profiles: Sequence[LoadProfile]
    ) -> npt.NDArray[np.float64]:
        """Weekly templates of several cells, ``(len(profiles), 672)``.

        The one definition of a template: each profile's floor plus its
        floor-to-ceiling range times five weekday shapes and two weekend
        shapes.
        """
        week_shape = np.concatenate([self._wd_shape] * 5 + [self._we_shape] * 2)
        if week_shape.shape != (BINS_PER_WEEK,):
            raise RuntimeError(
                f"weekly template has shape {week_shape.shape}, "
                f"expected ({BINS_PER_WEEK},)"
            )
        floors = np.asarray([p.floor for p in profiles])[:, None]
        ceilings = np.asarray([p.ceiling for p in profiles])[:, None]
        templates: npt.NDArray[np.float64] = floors + (ceilings - floors) * week_shape
        return templates

    def _entropy(self, cell_id: int, day: int) -> int:
        """Seed of the cell's noise generator on one study day."""
        return (self.seed * 1_000_003 + cell_id) * 131 + day

    def _day_noise(self, cell_id: int, day: int) -> npt.NDArray[np.float64]:
        day_rng = np.random.default_rng(self._entropy(cell_id, day))
        noise: npt.NDArray[np.float64] = day_rng.normal(
            0.0, self.noise_std, size=BINS_PER_DAY
        )
        return noise

    def day_series(self, cell_id: int, day: int) -> npt.NDArray[np.float64]:
        """Utilization of one cell for one study day, 96 bins in [0.01, 1]."""
        weekday = (day + self.clock.start_weekday) % 7
        shape = self._we_shape if weekday >= 5 else self._wd_shape
        prof = self._profiles[cell_id]
        series = prof.floor + (prof.ceiling - prof.floor) * shape
        series = series + self._day_noise(cell_id, day)
        clipped: npt.NDArray[np.float64] = np.clip(series, 0.01, 1.0)
        return clipped

    def utilization(self, cell_id: int, t: float) -> float:
        """U_PRB of a cell in the 15-minute bin containing study time ``t``."""
        day = self.clock.day_index(t)
        return float(self.day_series(cell_id, day)[self.clock.bin15_of_day(t)])

    def series_block(self, cell_ids: Sequence[int]) -> npt.NDArray[np.float64]:
        """Series of several cells over the whole study, ``(len(cell_ids), n_days * 96)``.

        Row ``i`` equals the concatenated :meth:`day_series` of
        ``cell_ids[i]`` bit for bit: each day's noise comes from the PCG64
        state ``default_rng`` would start from, set on one reused generator,
        and the floor, ceiling, weekday shape and clip are the same float
        operations applied to every calendar at once.
        """
        days = self.clock.n_days
        weekend = (np.arange(days) + self.clock.start_weekday) % 7 >= 5
        shapes = np.where(weekend[:, None], self._we_shape, self._wd_shape)
        profiles = [self._profiles[cell_id] for cell_id in cell_ids]
        floors = np.asarray([p.floor for p in profiles])[:, None, None]
        ceilings = np.asarray([p.ceiling for p in profiles])[:, None, None]
        series: npt.NDArray[np.float64] = floors + (ceilings - floors) * shapes
        states = pcg64_states(
            [self._entropy(cell_id, day) for cell_id in cell_ids for day in range(days)]
        )
        bitgen = np.random.PCG64(0)
        day_rng = np.random.Generator(bitgen)
        for row, (state, inc) in zip(series.reshape(-1, BINS_PER_DAY), states):
            bitgen.state = {
                "bit_generator": "PCG64",
                "state": {"state": state, "inc": inc},
                "has_uint32": 0,
                "uinteger": 0,
            }
            row += day_rng.normal(0.0, self.noise_std, size=BINS_PER_DAY)
        np.clip(series, 0.01, 1.0, out=series)
        return series.reshape(len(profiles), days * BINS_PER_DAY)

    def mean_weekly_utilization(self, cell_id: int) -> float:
        """Mean of the cell's noise-free weekly template.

        This is the statistic Figure 11 thresholds at 70% to select very busy
        cells.
        """
        return float(self.weekly_template(cell_id).mean())

    def busy_cell_ids(self, mean_threshold: float = 0.70) -> list[int]:
        """Cells whose mean weekly utilization is at least ``mean_threshold``.

        Every cell's :meth:`mean_weekly_utilization`, bit for bit, as the
        row means of :meth:`_weekly_templates` blocks, without filling the
        per-cell template cache.  A block holds :data:`_TEMPLATE_BLOCK`
        cells: one matrix for a whole topology would add its temporaries
        (~17 MB for 1,563 cells) to the peak memory of every ``analyze``.
        """
        cell_ids = sorted(self.topology.cells)
        profiles = [self._profiles[cell_id] for cell_id in cell_ids]
        means = np.empty(len(cell_ids))
        for lo in range(0, len(cell_ids), _TEMPLATE_BLOCK):
            block = profiles[lo : lo + _TEMPLATE_BLOCK]
            means[lo : lo + _TEMPLATE_BLOCK] = self._weekly_templates(block).mean(axis=1)
        return [
            cell_id
            for cell_id, mean in zip(cell_ids, means.tolist())
            if mean >= mean_threshold
        ]


def expected_peak_hours() -> list[int]:
    """Hours of day (local) inside the network busy window used in Section 4.2.

    The paper treats roughly 14:00-24:00 as network busy hours.
    """
    return list(range(14, 24))


def bin_of_hour(hour: float) -> int:
    """15-minute bin index within a day for a fractional hour of day."""
    if not 0 <= hour < 24:
        raise ValueError(f"hour must be in [0, 24), got {hour}")
    return int(math.floor(hour * 4))
