"""Synthetic road network over the metro region.

The network is a rectangular street grid augmented with two high-speed
highways crossing at the metro core — enough structure to produce the
behaviours the paper attributes to driving: commutes across many cells,
high-speed segments with frequent handovers, and recurring routes that make a
car's 24x7 connection matrix predictable (Figure 5).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

from repro.network.geometry import Point, distance


@dataclass(frozen=True)
class RoadConfig:
    """Parameters of the synthetic road grid."""

    width_km: float = 48.0
    height_km: float = 48.0
    grid_pitch_km: float = 2.0
    street_speed_kmh: float = 34.0
    highway_speed_kmh: float = 95.0
    #: Row/column indices (in grid units) carrying the two highways; by
    #: default the central row and column.
    highway_rows: tuple[int, ...] = ()
    highway_cols: tuple[int, ...] = ()


class RoadNetwork:
    """A road graph with geometry and travel-time weights, as plain adjacency.

    Nodes are the dense ids ``0..n_nodes-1``.  ``edges`` gives each
    undirected segment as ``(a, b, speed_kmh)``; its length is the straight
    line between the endpoints and its travel time follows from the speed.
    ``neighbours[v]`` lists ``(w, travel_time_s)`` for every segment at
    ``v``, in the order the segments were given, which is the order
    :class:`repro.mobility.routing.Router` relaxes them in.
    """

    def __init__(
        self,
        positions: Sequence[Point],
        edges: Iterable[tuple[int, int, float]],
        config: RoadConfig,
    ) -> None:
        if not positions:
            raise ValueError("road network must have at least one node")
        self.config = config
        self._positions = tuple(positions)
        self._coords = np.asarray([(p.x, p.y) for p in self._positions])
        self.neighbours: list[list[tuple[int, float]]] = [[] for _ in self._positions]
        #: (a, b) and (b, a) -> (length_km, travel_time_s).
        self._edges: dict[tuple[int, int], tuple[float, float]] = {}
        for a, b, speed in edges:
            length = distance(self._positions[a], self._positions[b])
            travel_time = length / speed * 3600.0
            self.neighbours[a].append((b, travel_time))
            self.neighbours[b].append((a, travel_time))
            self._edges[a, b] = self._edges[b, a] = (length, travel_time)
        #: (x, y, radius_km) -> node ids within the disc, for errand draws.
        self._near_cache: dict[tuple[float, float, float], npt.NDArray[np.intp]] = {}

    @property
    def n_nodes(self) -> int:
        """Number of road intersections."""
        return len(self._positions)

    @property
    def n_edges(self) -> int:
        """Number of road segments."""
        return len(self._edges) // 2

    def position(self, node: int) -> Point:
        """Location of a road node."""
        return self._positions[node]

    def nearest_node(self, point: Point) -> int:
        """Road node closest to an arbitrary location."""
        d = np.hypot(self._coords[:, 0] - point.x, self._coords[:, 1] - point.y)
        return int(d.argmin())

    def random_node(self, rng: np.random.Generator) -> int:
        """Uniformly random road node."""
        return int(rng.integers(self.n_nodes))

    def random_node_near(
        self, rng: np.random.Generator, center: Point, radius_km: float
    ) -> int:
        """Random node within ``radius_km`` of ``center``.

        Falls back to the single nearest node when the disc is empty, so
        callers always get a valid destination.  Candidate discs are cached
        per (center, radius): errand destinations are drawn around the same
        home nodes all study long, and the draw itself consumes the RNG the
        same way whether or not the disc was cached.
        """
        cache_key = (center.x, center.y, radius_km)
        candidates = self._near_cache.get(cache_key)
        if candidates is None:
            d = np.hypot(
                self._coords[:, 0] - center.x, self._coords[:, 1] - center.y
            )
            candidates = np.flatnonzero(d <= radius_km)
            self._near_cache[cache_key] = candidates
        if candidates.size == 0:
            return self.nearest_node(center)
        return int(candidates[int(rng.integers(candidates.size))])

    def edge_length_km(self, a: int, b: int) -> float:
        """Length in kilometres of the edge ``(a, b)``."""
        return self._edges[a, b][0]

    def edge_travel_time(self, a: int, b: int) -> float:
        """Travel time in seconds along the edge ``(a, b)``."""
        return self._edges[a, b][1]


def build_road_network(config: RoadConfig | None = None) -> RoadNetwork:
    """Construct the grid-plus-highways road network.

    Node ``r * n_cols + c`` sits at grid row ``r``, column ``c``.
    """
    cfg = config or RoadConfig()
    n_cols = int(cfg.width_km // cfg.grid_pitch_km) + 1
    n_rows = int(cfg.height_km // cfg.grid_pitch_km) + 1
    highway_rows = cfg.highway_rows or (n_rows // 2,)
    highway_cols = cfg.highway_cols or (n_cols // 2,)

    positions = [
        Point(c * cfg.grid_pitch_km, r * cfg.grid_pitch_km)
        for r in range(n_rows)
        for c in range(n_cols)
    ]
    edges: list[tuple[int, int, float]] = []
    for r in range(n_rows):
        row_speed = cfg.highway_speed_kmh if r in highway_rows else cfg.street_speed_kmh
        for c in range(n_cols - 1):
            edges.append((r * n_cols + c, r * n_cols + c + 1, row_speed))
    for c in range(n_cols):
        col_speed = cfg.highway_speed_kmh if c in highway_cols else cfg.street_speed_kmh
        for r in range(n_rows - 1):
            edges.append((r * n_cols + c, (r + 1) * n_cols + c, col_speed))
    return RoadNetwork(positions, edges, cfg)
