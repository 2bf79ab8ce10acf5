"""Shortest-path routing with caching.

Cars of a given profile repeat the same origin/destination pairs day after
day (commutes), so routes are memoized.  Paths minimize travel time, which
sends longer trips onto the highways exactly as real commutes do.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import count

from repro.mobility.roads import RoadNetwork


@dataclass(frozen=True)
class Route:
    """A path through the road network with per-leg timing.

    ``leg_times`` holds the travel time in seconds of each edge along
    ``nodes`` (one fewer entry than nodes).
    """

    nodes: tuple[int, ...]
    leg_times: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.nodes) == 0:
            raise ValueError("route must contain at least one node")
        if len(self.leg_times) != max(0, len(self.nodes) - 1):
            raise ValueError(
                f"route with {len(self.nodes)} nodes needs "
                f"{len(self.nodes) - 1} leg times, got {len(self.leg_times)}"
            )

    @property
    def travel_time(self) -> float:
        """Total door-to-door travel time in seconds."""
        return sum(self.leg_times)

    @property
    def origin(self) -> int:
        """First node of the route."""
        return self.nodes[0]

    @property
    def destination(self) -> int:
        """Last node of the route."""
        return self.nodes[-1]


class Router:
    """Caching shortest-travel-time router over a road network."""

    def __init__(self, roads: RoadNetwork) -> None:
        self.roads = roads
        self._cache: dict[tuple[int, int], Route] = {}
        self._adj: tuple[list, dict, list] | None = None

    def _adjacency(self) -> tuple[list, dict, list]:
        """Index-compacted neighbour lists with pre-extracted travel times.

        Nodes are relabelled to dense indices in the graph's iteration
        order and each neighbour list keeps that order, so a search over
        these lists relaxes edges exactly as networkx would.  Returns
        ``(adj, index_of, labels)`` where ``adj[i]`` is a list of
        ``(neighbour_index, travel_time)`` pairs.
        """
        if self._adj is None:
            g_adj = self.roads.graph._adj
            labels = list(g_adj)
            index_of = {u: i for i, u in enumerate(labels)}
            adj = [
                [
                    (index_of[v], data.get("travel_time_s", 1))
                    for v, data in g_adj[u].items()
                ]
                for u in labels
            ]
            self._adj = (adj, index_of, labels)
        return self._adj

    def _fastest_path(self, source: int, target: int) -> list[int]:
        """Bidirectional Dijkstra over the pre-extracted adjacency.

        A specialization of :func:`networkx.bidirectional_dijkstra` for an
        undirected graph with scalar edge weights: same heap discipline,
        same tie-breaking counter, same meet-point bookkeeping, so it
        returns the identical path.  Distances and predecessors live in
        flat arrays over the compact node indices instead of dicts; the
        relabelling cannot change the search because heap entries carry a
        unique counter, so node values are never compared.
        """
        adj, index_of, labels = self._adjacency()
        s = index_of.get(source)
        t = index_of.get(target)
        if s is None or t is None:
            import networkx as nx  # type: ignore[import-untyped]

            role, node = ("Source", source) if s is None else ("Target", target)
            raise nx.NodeNotFound(f"{role} {node} is not in G")
        if s == t:
            return [source]
        n = len(adj)
        dists: tuple[list, list] = ([None] * n, [None] * n)
        seen: tuple[list, list] = ([None] * n, [None] * n)
        #: -1 marks the search roots; every other visited node gets a pred.
        preds: tuple[list, list] = ([-1] * n, [-1] * n)
        fringe: tuple[list, list] = ([], [])
        seen[0][s] = 0
        seen[1][t] = 0
        c = count()
        heappush(fringe[0], (0, next(c), s))
        heappush(fringe[1], (0, next(c), t))

        def path(curr: int, direction: int) -> list[int]:
            ret: list[int] = []
            p = preds[direction]
            while curr != -1:
                ret.append(labels[curr])
                curr = p[curr]
            return ret[::-1] if direction == 0 else ret

        finaldist: float | None = None
        meetnode: int = -1
        direction = 1
        while fringe[0] and fringe[1]:
            direction = 1 - direction
            dist, _, v = heappop(fringe[direction])
            d_dists = dists[direction]
            if d_dists[v] is not None:
                continue
            d_dists[v] = dist
            if dists[1 - direction][v] is not None:
                return path(meetnode, 0) + path(preds[1][meetnode], 1)
            d_seen = seen[direction]
            o_seen = seen[1 - direction]
            d_fringe = fringe[direction]
            d_preds = preds[direction]
            for w, cost in adj[v]:
                vw_length = dist + cost
                w_dist = d_dists[w]
                if w_dist is not None:
                    if vw_length < w_dist:
                        raise ValueError(
                            "Contradictory paths found: negative weights?"
                        )
                    continue
                w_seen = d_seen[w]
                if w_seen is None or vw_length < w_seen:
                    d_seen[w] = vw_length
                    heappush(d_fringe, (vw_length, next(c), w))
                    d_preds[w] = v
                    o = o_seen[w]
                    if o is not None:
                        total = vw_length + o
                        if finaldist is None or finaldist > total:
                            finaldist = total
                            meetnode = w
        import networkx as nx  # type: ignore[import-untyped]

        raise nx.NetworkXNoPath(f"No path between {source} and {target}.")

    def route(self, origin: int, destination: int) -> Route:
        """Fastest route between two road nodes.

        Raises ``networkx.NodeNotFound`` for unknown nodes and
        ``networkx.NetworkXNoPath`` when the graph is disconnected between
        the endpoints (cannot happen on the standard grid).
        """
        key = (origin, destination)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        reverse = self._cache.get((destination, origin))
        if reverse is not None:
            result = Route(
                nodes=tuple(reversed(reverse.nodes)),
                leg_times=tuple(reversed(reverse.leg_times)),
            )
            self._cache[key] = result
            return result
        path = self._fastest_path(origin, destination)
        legs = tuple(
            self.roads.edge_travel_time(a, b) for a, b in zip(path, path[1:])
        )
        result = Route(nodes=tuple(path), leg_times=legs)
        self._cache[key] = result
        return result

    @property
    def cache_size(self) -> int:
        """Number of memoized routes."""
        return len(self._cache)
