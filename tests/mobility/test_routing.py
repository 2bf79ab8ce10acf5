"""Unit tests for cached routing."""

import heapq
import math

import pytest

from repro.cdr.errors import TraceGenerationError
from repro.mobility.roads import RoadConfig, RoadNetwork
from repro.mobility.routing import Route, Router
from repro.network.geometry import Point


class TestRoute:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Route(nodes=(), leg_times=())

    def test_rejects_mismatched_legs(self):
        with pytest.raises(ValueError):
            Route(nodes=(1, 2, 3), leg_times=(10.0,))

    def test_single_node_route(self):
        r = Route(nodes=(5,), leg_times=())
        assert r.travel_time == 0
        assert r.origin == r.destination == 5

    def test_travel_time_sums_legs(self):
        r = Route(nodes=(1, 2, 3), leg_times=(10.0, 20.0))
        assert r.travel_time == 30.0


def fastest_times_from(roads, source):
    """Travel time from ``source`` to every node: a plain one-way Dijkstra."""
    best = [math.inf] * roads.n_nodes
    best[source] = 0.0
    heap = [(0.0, source)]
    while heap:
        dist, v = heapq.heappop(heap)
        if dist > best[v]:
            continue
        for w, cost in roads.neighbours[v]:
            if dist + cost < best[w]:
                best[w] = dist + cost
                heapq.heappush(heap, (dist + cost, w))
    return best


class TestRouter:
    def test_route_endpoints(self, roads):
        router = Router(roads)
        route = router.route(0, roads.n_nodes - 1)
        assert route.origin == 0
        assert route.destination == roads.n_nodes - 1

    def test_route_follows_edges(self, roads):
        router = Router(roads)
        route = router.route(0, roads.n_nodes // 2)
        for a, b in zip(route.nodes, route.nodes[1:]):
            assert b in {w for w, _ in roads.neighbours[a]}

    def test_leg_times_match_edges(self, roads):
        router = Router(roads)
        route = router.route(0, 10)
        for (a, b), leg in zip(zip(route.nodes, route.nodes[1:]), route.leg_times):
            assert leg == pytest.approx(roads.edge_travel_time(a, b))

    def test_is_shortest_by_travel_time(self, roads):
        router = Router(roads)
        best = fastest_times_from(roads, 0)
        for d in range(roads.n_nodes):
            assert router.route(0, d).travel_time == pytest.approx(best[d])

    def test_cache_hit(self, roads):
        router = Router(roads)
        r1 = router.route(0, 5)
        assert router.cache_size == 1
        r2 = router.route(0, 5)
        assert r2 is r1

    def test_reverse_uses_cache(self, roads):
        router = Router(roads)
        fwd = router.route(0, 5)
        rev = router.route(5, 0)
        assert router.cache_size == 1
        assert rev.nodes == tuple(reversed(fwd.nodes))
        assert rev.travel_time == pytest.approx(fwd.travel_time)

    def test_route_does_not_depend_on_call_history(self, roads):
        # 3 -> 75 has two fastest paths of equal travel time.
        for a, b in ((3, 75), (75, 3)):
            fresh = Router(roads).route(a, b)
            warm = Router(roads)
            warm.route(b, a)
            assert warm.route(a, b) == fresh

    def test_unknown_node_raises(self, roads):
        router = Router(roads)
        with pytest.raises(TraceGenerationError, match="-1"):
            router.route(-1, 0)
        with pytest.raises(TraceGenerationError, match=str(roads.n_nodes)):
            router.route(0, roads.n_nodes)

    def test_missing_path_raises(self):
        apart = RoadNetwork([Point(0.0, 0.0), Point(1.0, 0.0)], [], RoadConfig())
        with pytest.raises(TraceGenerationError, match="0 and 1"):
            Router(apart).route(0, 1)
