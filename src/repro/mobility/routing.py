"""Shortest-path routing with caching.

Cars of a given profile repeat the same origin/destination pairs day after
day (commutes), so routes are memoized.  Paths minimize travel time, which
sends longer trips onto the highways exactly as real commutes do.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import count

from repro.cdr.errors import TraceGenerationError
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

    def _fastest_path(self, source: int, target: int) -> list[int]:
        """Bidirectional Dijkstra over the roads' neighbour lists.

        Edges are relaxed in neighbour-list order, and heap entries carry a
        unique counter, so node values are never compared and ties between
        equally fast paths always break the same way.  Distances and
        predecessors live in flat lists over the dense node ids.
        """
        adj = self.roads.neighbours
        n = len(adj)
        for node in (source, target):
            if not 0 <= node < n:
                raise TraceGenerationError(f"road node {node} is not in the network")
        if source == target:
            return [source]
        dists: tuple[list, list] = ([None] * n, [None] * n)
        seen: tuple[list, list] = ([None] * n, [None] * n)
        #: -1 marks the search roots; every other visited node gets a pred.
        preds: tuple[list, list] = ([-1] * n, [-1] * n)
        fringe: tuple[list, list] = ([], [])
        seen[0][source] = 0
        seen[1][target] = 0
        c = count()
        heappush(fringe[0], (0, next(c), source))
        heappush(fringe[1], (0, next(c), target))

        def path(curr: int, direction: int) -> list[int]:
            ret: list[int] = []
            p = preds[direction]
            while curr != -1:
                ret.append(curr)
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
        raise TraceGenerationError(f"no road path between nodes {source} and {target}")

    def route(self, origin: int, destination: int) -> Route:
        """Fastest route between two road nodes.

        A route is a function of its endpoints alone: the pair is searched
        from its lower node, and ``route(b, a)`` for ``b > a`` is
        ``route(a, b)`` reversed.  Equally fast paths therefore break the
        same way whatever the router answered before, so a car's trips do
        not depend on which cars share its process.

        Raises :class:`~repro.cdr.errors.TraceGenerationError` for an
        unknown node, or when the network is disconnected between the
        endpoints (cannot happen on the standard grid).
        """
        if origin > destination:
            forward = self.route(destination, origin)
            return Route(
                nodes=tuple(reversed(forward.nodes)),
                leg_times=tuple(reversed(forward.leg_times)),
            )
        key = (origin, destination)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        path = self._fastest_path(origin, destination)
        legs = tuple(
            self.roads.edge_travel_time(a, b) for a, b in zip(path, path[1:])
        )
        result = Route(nodes=tuple(path), leg_times=legs)
        self._cache[key] = result
        return result

    @property
    def cache_size(self) -> int:
        """Number of memoized routes (one per unordered pair)."""
        return len(self._cache)
