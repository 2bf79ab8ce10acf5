"""Synthetic radio network topology for a metro region.

Base stations are laid out on hexagonal grids whose pitch depends on the
distance from the metro core: dense in the urban center, sparser in suburbs,
sparsest in the rural fringe — mirroring real deployments where capacity
follows population.  Each site hosts three ~120-degree sectors, and each
sector deploys a tier-dependent subset of the five carriers (newer high-band
carriers appear only in the urban core, like the paper's barely-used C5).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np
import numpy.typing as npt

from repro.network.cells import CARRIERS, BaseStation, Cell, Sector
from repro.network.geometry import Point, bearing_deg, distance, hex_grid


class Tier(enum.Enum):
    """Deployment density tier of a site, by distance from the metro core."""

    URBAN = "urban"
    SUBURBAN = "suburban"
    RURAL = "rural"


@dataclass(frozen=True)
class TopologyConfig:
    """Knobs of the synthetic topology.

    The defaults produce a ~40 km x 40 km region with on the order of 100
    sites and several hundred cells — large enough that a car fleet touches
    only a subset of cells on any given day (Figure 2's ~66% of cells), small
    enough to simulate quickly.
    """

    width_km: float = 48.0
    height_km: float = 48.0
    urban_radius_km: float = 8.0
    suburban_radius_km: float = 19.0
    #: Hex-grid pitch per tier, km between neighbouring sites.
    urban_pitch_km: float = 3.0
    suburban_pitch_km: float = 4.5
    rural_pitch_km: float = 5.5
    sectors_per_site: int = 3
    #: Carriers deployed per tier.  C5 is urban-only: a new band most of the
    #: studied cars' modems cannot use (Table 3).
    urban_carriers: tuple[str, ...] = ("C1", "C2", "C3", "C4", "C5")
    suburban_carriers: tuple[str, ...] = ("C1", "C2", "C3", "C4")
    rural_carriers: tuple[str, ...] = ("C1", "C2", "C3")
    seed: int = 7

    @property
    def center(self) -> Point:
        """Metro core location."""
        return Point(self.width_km / 2.0, self.height_km / 2.0)

    def tier_of(self, location: Point) -> Tier:
        """Deployment tier of a location by distance from the core."""
        r = distance(location, self.center)
        if r <= self.urban_radius_km:
            return Tier.URBAN
        if r <= self.suburban_radius_km:
            return Tier.SUBURBAN
        return Tier.RURAL

    def carriers_for(self, tier: Tier) -> tuple[str, ...]:
        """Carrier names deployed at sites of the given tier."""
        if tier is Tier.URBAN:
            return self.urban_carriers
        if tier is Tier.SUBURBAN:
            return self.suburban_carriers
        return self.rural_carriers


@dataclass
class NetworkTopology:
    """A built radio network: sites, sectors, cells and spatial lookup.

    Spatial queries (:meth:`nearest_site`, :meth:`nearest_sites`,
    :meth:`serving_sector_keys`) scan every site's squared distance: a
    network holds a few hundred sites at most, and an ``argmin`` breaks
    ties on the lowest site index, whatever the query's batch.
    """

    config: TopologyConfig
    sites: list[BaseStation]
    cells: dict[int, Cell] = field(default_factory=dict)
    #: Per-site (x, y, base_station_id, ((azimuth, sector_index), ...)) rows
    #: for the allocation-free fast path in :meth:`serving_sector_keys`.
    _site_rows: list | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if not self.sites:
            raise ValueError("network topology needs at least one site")
        if not self.cells:
            self.cells = {c.cell_id: c for site in self.sites for c in site.cells}
        #: (n_sites, 2) site coordinates, in ``sites`` order.
        self._coords = np.asarray([(s.location.x, s.location.y) for s in self.sites])
        self._site_rows = [
            (
                s.location.x,
                s.location.y,
                s.base_station_id,
                tuple((sec.azimuth_deg, sec.sector_index) for sec in s.sectors),
            )
            for s in self.sites
        ]
        #: (sector_key, carrier) -> (sector, cell_or_None) memo.
        self._sector_cell_cache: dict[
            tuple[tuple[int, int], str], tuple[Sector, Cell | None]
        ] = {}
        #: Cached usable-cell lists and draw CDFs for the fallback pick in
        #: :meth:`choose_cell_in_sector`.
        self._choice_cache: dict[
            tuple[int, int, frozenset[str], tuple[tuple[str, float], ...] | None],
            tuple[list[Cell], npt.NDArray[np.float64] | None],
        ] = {}

    @property
    def n_cells(self) -> int:
        """Total number of cells in the network."""
        return len(self.cells)

    def cell(self, cell_id: int) -> Cell:
        """Cell by id; raises ``KeyError`` for unknown ids."""
        return self.cells[cell_id]

    def _squared_distances(
        self, xs: npt.NDArray[np.float64], ys: npt.NDArray[np.float64]
    ) -> npt.NDArray[np.float64]:
        """``(n_points, n_sites)`` squared distances from points to sites."""
        dx = xs[:, None] - self._coords[None, :, 0]
        dy = ys[:, None] - self._coords[None, :, 1]
        return dx * dx + dy * dy

    def nearest_site(self, location: Point) -> BaseStation:
        """The geographically closest base station to ``location``."""
        d2 = self._squared_distances(np.array([location.x]), np.array([location.y]))
        return self.sites[int(d2[0].argmin())]

    def nearest_sites(self, location: Point, k: int) -> list[BaseStation]:
        """The ``k`` closest base stations to ``location``, nearest first.

        ``k`` is capped at the number of sites.
        """
        d2 = self._squared_distances(np.array([location.x]), np.array([location.y]))
        order = np.argsort(d2[0], kind="stable")[:k]
        return [self.sites[int(i)] for i in order]

    def serving_sector(self, location: Point) -> Sector:
        """Sector of the nearest site whose boresight best covers ``location``."""
        site = self.nearest_site(location)
        return site.sector_for_bearing(bearing_deg(site.location, location))

    def serving_sector_keys(
        self, xs: npt.NDArray[np.float64], ys: npt.NDArray[np.float64]
    ) -> list[tuple[int, int]]:
        """Serving ``(base station id, sector index)`` for many locations.

        Equivalent to :meth:`serving_sector` per point, but with a single
        batched nearest-site query — the fast path for sampling road edges.
        """
        idxs = self._squared_distances(xs, ys).argmin(axis=1)
        rows = self._site_rows
        atan2 = math.atan2
        degrees = math.degrees
        keys: list[tuple[int, int]] = []
        for i, x, y in zip(idxs.tolist(), xs.tolist(), ys.tolist()):
            sx, sy, bs_id, sectors = rows[i]
            # Inlined bearing_deg/sector_for_bearing: same arithmetic and
            # the same first-minimum tie-breaking as min(key=angular_gap),
            # without Point/closure allocations per sample.
            bearing = degrees(atan2(x - sx, y - sy)) % 360.0
            best_gap = 361.0
            best_idx = 0
            for az, s_idx in sectors:
                diff = abs(bearing - az) % 360.0
                gap = 360.0 - diff if diff > 180.0 else diff
                if gap < best_gap:
                    best_gap = gap
                    best_idx = s_idx
            keys.append((bs_id, best_idx))
        return keys

    def sector(self, base_station_id: int, sector_index: int) -> Sector:
        """Sector by its ``(base station id, sector index)`` key."""
        site = self.sites[base_station_id - 1]
        if site.base_station_id != base_station_id:
            raise KeyError(f"unknown base station id {base_station_id}")
        return site.sectors[sector_index]

    def sector_cell(
        self, sector_key: tuple[int, int], carrier: str
    ) -> tuple[Sector, Cell | None]:
        """The sector for a key and its cell on ``carrier``, memoized.

        Trace generation resolves the same few thousand (sector, carrier)
        pairs millions of times; the memo turns each resolution into one
        dict hit.
        """
        cache_key = (sector_key, carrier)
        entry = self._sector_cell_cache.get(cache_key)
        if entry is None:
            sector = self.sector(*sector_key)
            entry = (sector, sector.cell_on(carrier))
            self._sector_cell_cache[cache_key] = entry
        return entry

    def choose_cell_in_sector(
        self,
        sector: Sector,
        capabilities: frozenset[str] | set[str],
        rng: np.random.Generator,
        carrier_weights: dict[str, float] | None = None,
    ) -> Cell | None:
        """Weighted carrier pick among a sector's cells the device supports.

        Mimics load-balanced carrier assignment: the serving sector is fixed
        by geometry, the carrier within it is a weighted draw.  Returns
        ``None`` when the device supports none of the sector's carriers.
        """
        caps = (
            capabilities
            if isinstance(capabilities, frozenset)
            else frozenset(capabilities)
        )
        wkey = None if carrier_weights is None else tuple(carrier_weights.items())
        cache_key = (sector.base_station_id, sector.sector_index, caps, wkey)
        entry = self._choice_cache.get(cache_key)
        if entry is None:
            usable = [c for c in sector.cells if c.carrier.name in caps]
            if usable:
                if carrier_weights is None:
                    weights = np.ones(len(usable))
                else:
                    weights = np.asarray(
                        [carrier_weights.get(c.carrier.name, 0.0) for c in usable],
                        dtype=float,
                    )
                    if weights.sum() <= 0:
                        weights = np.ones(len(usable))
                weights = weights / weights.sum()
                # rng.choice(n, p=p) draws one uniform and inverts this same
                # CDF, so the cached-CDF draw below consumes the stream and
                # picks the index bit-identically.
                cdf = weights.cumsum()
                cdf /= cdf[-1]
            else:
                cdf = None
            entry = (usable, cdf)
            self._choice_cache[cache_key] = entry
        usable, cdf = entry
        if not usable:
            return None
        return usable[int(cdf.searchsorted(rng.random(), side="right"))]

    def serving_cell(
        self,
        location: Point,
        capabilities: frozenset[str] | set[str],
        rng: np.random.Generator,
        carrier_weights: dict[str, float] | None = None,
    ) -> Cell | None:
        """Pick the cell a device at ``location`` would connect to.

        The serving sector is geometric (nearest site, best-pointing sector);
        the carrier within it follows :meth:`choose_cell_in_sector`.
        """
        sector = self.serving_sector(location)
        return self.choose_cell_in_sector(sector, capabilities, rng, carrier_weights)

    def cells_of_site(self, base_station_id: int) -> list[Cell]:
        """All cells hosted by the given base station."""
        return [c for c in self.cells.values() if c.base_station_id == base_station_id]


def build_topology(config: TopologyConfig | None = None) -> NetworkTopology:
    """Construct the synthetic network described by ``config``.

    Sites come from three hexagonal lattices (one per tier pitch); a lattice
    point is kept only where its pitch matches the local tier, which yields a
    density gradient from core to fringe without overlapping sites.
    """
    cfg = config or TopologyConfig()
    rng = np.random.default_rng(cfg.seed)
    site_locations: list[Point] = []
    for pitch, tier in (
        (cfg.urban_pitch_km, Tier.URBAN),
        (cfg.suburban_pitch_km, Tier.SUBURBAN),
        (cfg.rural_pitch_km, Tier.RURAL),
    ):
        for p in hex_grid(cfg.width_km, cfg.height_km, pitch):
            # Small jitter so sites do not sit on perfectly regular lines.
            jitter = Point(*(rng.uniform(-0.15, 0.15, size=2) * pitch))
            loc = p + jitter
            loc = Point(
                min(max(loc.x, 0.0), cfg.width_km), min(max(loc.y, 0.0), cfg.height_km)
            )
            if cfg.tier_of(p) is tier:
                site_locations.append(loc)

    sites: list[BaseStation] = []
    next_cell_id = 1
    for site_id, loc in enumerate(site_locations, start=1):
        tier = cfg.tier_of(loc)
        carriers = cfg.carriers_for(tier)
        site = BaseStation(base_station_id=site_id, location=loc)
        for sector_index in range(cfg.sectors_per_site):
            azimuth = (360.0 / cfg.sectors_per_site) * sector_index
            sector = Sector(
                base_station_id=site_id, sector_index=sector_index, azimuth_deg=azimuth
            )
            for name in carriers:
                sector.cells.append(
                    Cell(
                        cell_id=next_cell_id,
                        base_station_id=site_id,
                        sector_index=sector_index,
                        carrier=CARRIERS[name],
                        location=loc,
                        azimuth_deg=azimuth,
                    )
                )
                next_cell_id += 1
            site.sectors.append(sector)
        sites.append(site)
    return NetworkTopology(config=cfg, sites=sites)
