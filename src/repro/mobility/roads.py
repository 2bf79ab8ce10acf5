"""Synthetic road network over the metro region.

The network is a rectangular street grid augmented with two high-speed
highways crossing at the metro core — enough structure to produce the
behaviours the paper attributes to driving: commutes across many cells,
high-speed segments with frequent handovers, and recurring routes that make a
car's 24x7 connection matrix predictable (Figure 5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
import numpy.typing as npt

from repro.network.geometry import Point, distance

if TYPE_CHECKING:
    import networkx as nx  # type: ignore[import-untyped]


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
    """A road graph with geometry and travel-time weights.

    Nodes are integer ids with a ``pos`` attribute (:class:`Point`); edges
    carry ``length_km``, ``speed_kmh`` and ``travel_time_s``.
    """

    def __init__(self, graph: nx.Graph, config: RoadConfig) -> None:
        if graph.number_of_nodes() == 0:
            raise ValueError("road network must have at least one node")
        self.graph = graph
        self.config = config
        self._node_ids = np.asarray(sorted(graph.nodes))
        self._coords = np.asarray(
            [(graph.nodes[n]["pos"].x, graph.nodes[n]["pos"].y) for n in self._node_ids]
        )
        #: (x, y, radius_km) -> node ids within the disc, for errand draws.
        self._near_cache: dict[tuple[float, float, float], npt.NDArray[np.intp]] = {}

    @property
    def n_nodes(self) -> int:
        """Number of road intersections."""
        return self.graph.number_of_nodes()

    @property
    def n_edges(self) -> int:
        """Number of road segments."""
        return self.graph.number_of_edges()

    def position(self, node: int) -> Point:
        """Location of a road node."""
        return self.graph.nodes[node]["pos"]

    def nearest_node(self, point: Point) -> int:
        """Road node closest to an arbitrary location."""
        d = np.hypot(self._coords[:, 0] - point.x, self._coords[:, 1] - point.y)
        return int(self._node_ids[int(d.argmin())])

    def random_node(self, rng: np.random.Generator) -> int:
        """Uniformly random road node."""
        return int(self._node_ids[int(rng.integers(self._node_ids.size))])

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
            candidates = self._node_ids[d <= radius_km]
            self._near_cache[cache_key] = candidates
        if candidates.size == 0:
            return self.nearest_node(center)
        return int(candidates[int(rng.integers(candidates.size))])

    def edge_travel_time(self, a: int, b: int) -> float:
        """Travel time in seconds along the edge ``(a, b)``."""
        return float(self.graph.edges[a, b]["travel_time_s"])


def build_road_network(config: RoadConfig | None = None) -> RoadNetwork:
    """Construct the grid-plus-highways road network."""
    import networkx as nx  # type: ignore[import-untyped]

    cfg = config or RoadConfig()
    n_cols = int(cfg.width_km // cfg.grid_pitch_km) + 1
    n_rows = int(cfg.height_km // cfg.grid_pitch_km) + 1
    highway_rows = cfg.highway_rows or (n_rows // 2,)
    highway_cols = cfg.highway_cols or (n_cols // 2,)

    graph = nx.Graph()
    node_id = {}
    for r in range(n_rows):
        for c in range(n_cols):
            nid = r * n_cols + c
            node_id[(r, c)] = nid
            graph.add_node(nid, pos=Point(c * cfg.grid_pitch_km, r * cfg.grid_pitch_km))

    def add_edge(a: tuple[int, int], b: tuple[int, int], speed: float) -> None:
        na, nb = node_id[a], node_id[b]
        length = distance(graph.nodes[na]["pos"], graph.nodes[nb]["pos"])
        graph.add_edge(
            na,
            nb,
            length_km=length,
            speed_kmh=speed,
            travel_time_s=length / speed * 3600.0,
        )

    for r in range(n_rows):
        row_speed = cfg.highway_speed_kmh if r in highway_rows else cfg.street_speed_kmh
        for c in range(n_cols - 1):
            add_edge((r, c), (r, c + 1), row_speed)
    for c in range(n_cols):
        col_speed = cfg.highway_speed_kmh if c in highway_cols else cfg.street_speed_kmh
        for r in range(n_rows - 1):
            add_edge((r, c), (r + 1, c), col_speed)
    return RoadNetwork(graph, cfg)
