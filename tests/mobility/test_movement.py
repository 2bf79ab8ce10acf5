"""Unit tests for movement and the edge-to-sector index."""

import pytest

from repro.mobility.movement import EdgeCellIndex, route_span_arrays
from repro.mobility.roads import build_road_network
from repro.mobility.routing import Router
from repro.mobility.trips import Trip, TripPurpose
from repro.network.topology import build_topology
from repro.simulate.scenarios import SCENARIOS, scenario


@pytest.fixture(scope="module")
def edge_index(roads, topology):
    return EdgeCellIndex(roads, topology)


@pytest.fixture(scope="module")
def sample_route(roads):
    return Router(roads).route(0, roads.n_nodes - 1)


class TestEdgeCellIndex:
    def test_rejects_bad_sample(self, roads, topology):
        with pytest.raises(ValueError):
            EdgeCellIndex(roads, topology, sample_km=0)

    def test_fractions_sum_to_one(self, edge_index, roads):
        a, b = 0, 1
        spans = edge_index.edge_spans(a, b)
        assert sum(f for _, f in spans) == pytest.approx(1.0)

    def test_consecutive_spans_differ(self, edge_index, roads):
        a, b = 0, 1
        spans = edge_index.edge_spans(a, b)
        for (k1, _), (k2, _) in zip(spans, spans[1:]):
            assert k1 != k2

    def test_reverse_edge_reverses_spans(self, edge_index, roads):
        a, b = 0, 1
        fwd = edge_index.edge_spans(a, b)
        rev = edge_index.edge_spans(b, a)
        assert rev == tuple(reversed(fwd))

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_reversed_spans_equal_a_fresh_sample(self, name):
        # edge_spans answers b -> a by reversing a cached a -> b; that
        # shortcut must not make spans depend on which direction came first.
        cfg = scenario(name)
        roads = build_road_network(cfg.roads)
        topology = build_topology(cfg.topology)
        forward = EdgeCellIndex(roads, topology)
        backward = EdgeCellIndex(roads, topology)
        for a, nbrs in enumerate(roads.neighbours):
            for b, _ in nbrs:
                if a < b:
                    fresh = backward.edge_spans(b, a)
                    assert fresh == tuple(reversed(forward.edge_spans(a, b)))

    def test_caching(self, roads, topology):
        index = EdgeCellIndex(roads, topology)
        a, b = 0, 1
        index.edge_spans(a, b)
        size = index.cache_size
        index.edge_spans(a, b)
        assert index.cache_size == size

    def test_sector_keys_valid(self, edge_index, roads, topology):
        a, b = 1, 2
        for (bs_id, sector_idx), _ in edge_index.edge_spans(a, b):
            sector = topology.sector(bs_id, sector_idx)
            assert sector.sector_index == sector_idx


class TestRouteSectorTimeline:
    def test_contiguous_and_ordered(self, sample_route, edge_index):
        keys, starts, ends = route_span_arrays(sample_route, 1000.0, edge_index)
        assert keys
        assert len(keys) == len(starts) == len(ends)
        assert starts[0] == pytest.approx(1000.0)
        for end, next_start in zip(ends, starts[1:]):
            assert end == pytest.approx(next_start)
        for a, b in zip(keys, keys[1:]):
            assert a != b

    def test_total_duration_is_travel_time(self, sample_route, edge_index):
        _, starts, ends = route_span_arrays(sample_route, 0.0, edge_index)
        total = sum(end - start for start, end in zip(starts, ends))
        assert total == pytest.approx(sample_route.travel_time)

    def test_departure_offsets_times(self, sample_route, edge_index):
        k0, s0, _ = route_span_arrays(sample_route, 0.0, edge_index)
        k9, s9, _ = route_span_arrays(sample_route, 900.0, edge_index)
        assert len(k0) == len(k9)
        assert k9 == k0
        for a, b in zip(s0, s9):
            assert b == pytest.approx(a + 900.0)

    def test_multiple_sectors_crossed(self, sample_route, edge_index):
        # A corner-to-corner drive must cross several sectors.
        keys, _, _ = route_span_arrays(sample_route, 0.0, edge_index)
        assert len(set(keys)) >= 3


class TestTrip:
    def test_rejects_negative_departure(self):
        with pytest.raises(ValueError):
            Trip(-1.0, 0, 1)

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Trip(0.0, 3, 3)

    def test_ordering_by_departure(self):
        t1 = Trip(100.0, 0, 1, TripPurpose.ERRAND)
        t2 = Trip(50.0, 1, 2, TripPurpose.LEISURE)
        assert sorted([t1, t2])[0] is t2
