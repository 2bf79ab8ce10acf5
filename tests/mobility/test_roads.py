"""Unit tests for the road network."""

from collections import deque

import pytest

from repro.mobility.roads import RoadConfig, RoadNetwork
from repro.network.geometry import Point, distance


def road_edges(roads):
    """Every road segment once, as ``(a, b, travel_time_s)`` with ``a < b``."""
    return [
        (a, b, t)
        for a, nbrs in enumerate(roads.neighbours)
        for b, t in nbrs
        if a < b
    ]


class TestBuild:
    def test_connected(self, roads):
        # Breadth-first search from node 0 over the neighbour lists.
        seen = {0}
        queue = deque([0])
        while queue:
            v = queue.popleft()
            for w, _ in roads.neighbours[v]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        assert seen == set(range(roads.n_nodes))

    def test_counts(self, roads):
        cfg = roads.config
        n_cols = int(cfg.width_km // cfg.grid_pitch_km) + 1
        n_rows = int(cfg.height_km // cfg.grid_pitch_km) + 1
        assert roads.n_nodes == n_rows * n_cols
        assert roads.n_edges == n_rows * (n_cols - 1) + n_cols * (n_rows - 1)
        assert len(road_edges(roads)) == roads.n_edges

    def test_neighbour_lists_are_symmetric(self, roads):
        for a, nbrs in enumerate(roads.neighbours):
            for b, t in nbrs:
                assert (a, t) in roads.neighbours[b]

    def test_edge_attributes(self, roads):
        for a, b, t in road_edges(roads):
            length = roads.edge_length_km(a, b)
            assert length == pytest.approx(distance(roads.position(a), roads.position(b)))
            assert length > 0
            assert roads.edge_length_km(b, a) == length
            assert roads.edge_travel_time(a, b) == roads.edge_travel_time(b, a) == t
            assert t > 0

    def test_highways_exist_and_faster(self, roads):
        speeds = {
            round(roads.edge_length_km(a, b) / t * 3600.0, 6)
            for a, b, t in road_edges(roads)
        }
        assert speeds == {
            roads.config.highway_speed_kmh,
            roads.config.street_speed_kmh,
        }

    def test_rejects_empty_graph(self):
        with pytest.raises(ValueError):
            RoadNetwork([], [], RoadConfig())


class TestQueries:
    def test_position_roundtrip(self, roads):
        node = roads.nearest_node(Point(10.0, 10.0))
        pos = roads.position(node)
        assert roads.nearest_node(pos) == node

    def test_nearest_node_is_nearest(self, roads):
        probe = Point(7.3, 12.8)
        node = roads.nearest_node(probe)
        best = min(
            distance(roads.position(n), probe) for n in range(roads.n_nodes)
        )
        assert distance(roads.position(node), probe) == pytest.approx(best)

    def test_random_node_in_graph(self, roads, rng):
        for _ in range(10):
            assert 0 <= roads.random_node(rng) < roads.n_nodes

    def test_random_node_near_respects_radius(self, roads, rng):
        center = Point(24.0, 24.0)
        for _ in range(20):
            node = roads.random_node_near(rng, center, 5.0)
            assert distance(roads.position(node), center) <= 5.0

    def test_random_node_near_empty_disc_falls_back(self, roads, rng):
        node = roads.random_node_near(rng, Point(-500.0, -500.0), 0.1)
        assert 0 <= node < roads.n_nodes

    def test_edge_travel_time(self, roads):
        a, b, _ = road_edges(roads)[0]
        assert roads.edge_travel_time(a, b) > 0
