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

Day-to-day variation is Gaussian noise drawn from one 64-bit word per
(cell, study day, 15-minute bin): the splitmix64 hash of the bin's packed
coordinates and the hashed load seed.  A word depends on nothing else, so
any block of cell-days can be drawn in any order, and a caller builds just
the cell-days it reads.  :meth:`CellLoadModel.series_block` maps each word
through an inverse normal CDF.  :meth:`CellLoadModel.busy_block` skips the
normal draw: a bin is busy when its word is below a cutoff, the chance that
the noise lifts the bin's noise-free load over the threshold scaled to
2**64.  Low words are the high-noise draws, so a bin's mask and its value
agree.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

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

#: A noise word's key packs ``cell << 23 | day << 7 | bin`` into 63 bits.
_DAY_BITS = 16
_BIN_BITS = 7
_CELL_LIMIT = 1 << (63 - _DAY_BITS - _BIN_BITS)
_BINS = np.arange(BINS_PER_DAY, dtype=np.int64)
#: splitmix64's increment (the golden gamma) and finalizer multipliers.
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX_A = np.uint64(0xBF58476D1CE4E5B9)
_MIX_B = np.uint64(0x94D049BB133111EB)
_WORD_MAX = np.iinfo(np.uint64).max
#: Beyond this many noise standard deviations from the threshold a bin's
#: busy probability is 0 or 1 in double precision.
_Z_BAND = 9.0
#: Every utilization value is clipped to this range.
_CLIP = (0.01, 1.0)


def _mix64(words: npt.NDArray[np.uint64], scratch: npt.NDArray[np.uint64]) -> None:
    """splitmix64 in place: add the golden gamma, then the finalizer."""
    words += _GAMMA
    for shift, multiplier in ((30, _MIX_A), (27, _MIX_B)):
        np.right_shift(words, np.uint64(shift), out=scratch)
        words ^= scratch
        words *= multiplier
    np.right_shift(words, np.uint64(31), out=scratch)
    words ^= scratch


def _paired(
    cell_ids: npt.NDArray[np.int64], days: npt.NDArray[np.int64]
) -> tuple[npt.NDArray[np.int64], npt.NDArray[np.int64]]:
    """``(cell, day)`` pairs as two equal-length int64 arrays.

    Days must fit the noise key, so no two (cell, day) pairs share words.
    """
    cells = np.asarray(cell_ids, dtype=np.int64)
    days = np.asarray(days, dtype=np.int64)
    if cells.shape != days.shape or cells.ndim != 1:
        raise ValueError(
            f"need two equal-length 1-d arrays, got {cells.shape} and {days.shape}"
        )
    if days.size and not (days.min() >= 0 and days.max() < 1 << _DAY_BITS):
        raise ValueError("study days must lie in [0, 2**16) to key the load noise")
    return cells, days


class CellLoadModel:
    """Deterministic synthetic PRB utilization for every cell of a topology.

    Parameters
    ----------
    topology:
        The radio network whose cells need load series.
    clock:
        Study calendar (length, starting weekday).
    seed:
        Root seed in ``[0, 2**64)``; all per-cell parameters and per-bin
        noise derive from it, so two models built with the same arguments
        agree bin for bin.
    noise_std:
        Standard deviation of the per-bin utilization noise.

    Raises ``ValueError`` when the seed, a cell id (``[0, 2**40)``) or the
    study length (at most ``2**16`` days) does not fit the noise words'
    packing.
    """

    def __init__(
        self,
        topology: NetworkTopology,
        clock: StudyClock,
        seed: int = 11,
        noise_std: float = 0.03,
        hot_district_radius_km: float = HOT_DISTRICT_RADIUS_KM,
    ) -> None:
        if not 0 <= seed < 1 << 64:
            raise ValueError(f"load seed must lie in [0, 2**64), got {seed}")
        if topology.cells and not (
            0 <= min(topology.cells) and max(topology.cells) < _CELL_LIMIT
        ):
            raise ValueError("cell ids must lie in [0, 2**40) to key the load noise")
        if clock.n_days > 1 << _DAY_BITS:
            raise ValueError(
                f"the load noise keys at most 2**16 study days, got {clock.n_days}"
            )
        if not noise_std > 0:
            raise ValueError(f"noise_std must be positive, got {noise_std}")
        self.topology = topology
        self.clock = clock
        self.seed = seed
        seed_word = np.array([seed], dtype=np.uint64)
        _mix64(seed_word, np.empty_like(seed_word))
        self._seed_word = seed_word[0]
        self.noise_std = noise_std
        self.hot_district_radius_km = hot_district_radius_km
        self._profiles: dict[int, LoadProfile] = {}
        self._templates: dict[int, npt.NDArray[np.float64]] = {}
        self._wd_shape = weekday_shape()
        self._we_shape = weekend_shape()
        self._day_shapes = np.stack([self._wd_shape, self._we_shape])
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
        :meth:`utilization`, :meth:`day_series`, :meth:`series_block` or
        :meth:`busy_block`, which apply the calendar.
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

    def day_series(self, cell_id: int, day: int) -> npt.NDArray[np.float64]:
        """Utilization of one cell for one study day, 96 bins in [0.01, 1]."""
        series: npt.NDArray[np.float64] = self.series_block(
            np.asarray([cell_id]), np.asarray([day])
        )[0]
        return series

    def utilization(self, cell_id: int, t: float) -> float:
        """U_PRB of a cell in the 15-minute bin containing study time ``t``."""
        day = self.clock.day_index(t)
        return float(self.day_series(cell_id, day)[self.clock.bin15_of_day(t)])

    def series_block(
        self, cell_ids: npt.NDArray[np.int64], days: npt.NDArray[np.int64]
    ) -> npt.NDArray[np.float64]:
        """Series of (cell, day) pairs, ``(len(cell_ids), 96)``.

        Each bin's noise word keeps its top 52 bits as the uniform
        ``u = (k + 0.5) / 2**52``, and the bin's value is its noise-free
        load minus ``noise_std`` times the normal quantile of ``u``
        (:meth:`statistics.NormalDist.inv_cdf`, bin by bin), clipped to
        [0.01, 1].  Row ``i`` is :meth:`day_series` of
        ``(cell_ids[i], days[i])`` in any block.
        """
        # ``statistics`` imports ``decimal`` and ``fractions``: importing
        # it here keeps them out of every process that only builds masks.
        from statistics import NormalDist

        cells, days = _paired(cell_ids, days)
        rows, bases = self._day_bases(cells, days)
        words, _ = self._words(cells, days)
        uniform = (words >> np.uint64(12)).astype(np.float64)
        uniform += 0.5
        uniform *= 2.0**-52
        noise = np.fromiter(
            map(NormalDist().inv_cdf, uniform.ravel().tolist()),
            np.float64,
            uniform.size,
        ).reshape(uniform.shape)
        series: npt.NDArray[np.float64] = bases[rows] - self.noise_std * noise
        np.clip(series, *_CLIP, out=series)
        return series

    def busy_block(
        self,
        cell_ids: npt.NDArray[np.int64],
        days: npt.NDArray[np.int64],
        threshold: float,
    ) -> npt.NDArray[np.bool_]:
        """Busy masks of (cell, day) pairs, ``(len(cell_ids), 96)``.

        A bin is busy when its noise word is below the bin's cutoff, the
        probability that the noise lifts its noise-free load over
        ``threshold`` scaled to 2**64: the bins where :meth:`series_block`
        exceeds ``threshold``, without a normal draw.  The cutoffs of the
        block's distinct cells are computed for the block and dropped
        with it.
        """
        cells, days = _paired(cell_ids, days)
        rows, bases = self._day_bases(cells, days)
        words, limits = self._words(cells, days)
        # ``rows`` index ``bases`` by construction; mode "raise" would
        # gather through a temporary block instead of writing in place.
        np.take(self._cutoffs(bases, threshold), rows, axis=0, out=limits, mode="clip")
        busy: npt.NDArray[np.bool_] = words < limits
        return busy

    def _day_bases(
        self, cells: npt.NDArray[np.int64], days: npt.NDArray[np.int64]
    ) -> tuple[npt.NDArray[np.intp], npt.NDArray[np.float64]]:
        """Noise-free days of the pairs' distinct cells and each pair's row.

        ``bases`` is ``(2 * n_cells, 96)``: each distinct cell's weekday
        day, then its weekend day, its floor plus its floor-to-ceiling
        range times the day's shape.  Pair ``i`` reads ``bases[rows[i]]``.
        """
        unique, inverse = np.unique(cells, return_inverse=True)
        profiles = [self._profiles[cell_id] for cell_id in unique.tolist()]
        floors = np.asarray([p.floor for p in profiles])[:, None, None]
        ceilings = np.asarray([p.ceiling for p in profiles])[:, None, None]
        bases = (ceilings - floors) * self._day_shapes + floors
        weekend = (days + self.clock.start_weekday) % 7 >= 5
        rows = inverse.reshape(-1) * 2 + weekend
        return rows, bases.reshape(-1, BINS_PER_DAY)

    def _cutoffs(
        self, bases: npt.NDArray[np.float64], threshold: float
    ) -> npt.NDArray[np.uint64]:
        """``floor(P(base + noise > threshold) * 2**64)`` for every base bin.

        ``P`` comes from ``math.erfc`` within :data:`_Z_BAND` standard
        deviations of the threshold and is 0 or 1 outside it.  A certain
        bin's cutoff is ``2**64 - 1``, the largest word.  A threshold below
        the clip range makes every bin busy, and one at or above its top
        none.
        """
        if not _CLIP[0] <= threshold < _CLIP[1]:
            fill = _WORD_MAX if threshold < _CLIP[0] else 0
            return np.full(bases.shape, fill, dtype=np.uint64)
        z = (threshold - bases) / self.noise_std
        prob = (z < 0.0).astype(np.float64)
        band = np.abs(z) < _Z_BAND
        args = (z[band] / math.sqrt(2.0)).tolist()
        prob[band] = 0.5 * np.fromiter(map(math.erfc, args), np.float64, len(args))
        certain = prob >= 1.0
        scaled = np.ldexp(prob, 64)
        scaled[certain] = 0.0
        cutoffs = scaled.astype(np.uint64)
        cutoffs[certain] = _WORD_MAX
        return cutoffs

    def _words(
        self, cells: npt.NDArray[np.int64], days: npt.NDArray[np.int64]
    ) -> tuple[npt.NDArray[np.uint64], npt.NDArray[np.uint64]]:
        """Noise words of (cell, day) pairs, ``(len(cells), 96)``, and scratch.

        Keys are packed in int64 and hashed in place as uint64.  The words
        and a scratch block of their shape share one allocation, which the
        caller may reuse: a block costs one large allocation.
        """
        block = np.empty((2, cells.size, BINS_PER_DAY), dtype=np.int64)
        pair_keys = (cells << (_DAY_BITS + _BIN_BITS)) | (days << _BIN_BITS)
        np.add(pair_keys[:, None], _BINS, out=block[0])
        words, scratch = block.view(np.uint64)
        words ^= self._seed_word
        _mix64(words, scratch)
        return words, scratch

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
