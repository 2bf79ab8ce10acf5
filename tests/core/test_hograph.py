"""Tests for the handover graph."""

import pytest

from repro.cdr.records import CDRBatch, ConnectionRecord
from repro.core.hograph import (
    HandoverGraph,
    build_handover_graph,
    edge_length_stats,
    reciprocity,
    site_throughput_ranking,
    top_corridors,
)
from repro.core.preprocess import preprocess
from repro.network.cells import CARRIERS, Cell
from repro.network.geometry import Point


def cell(cell_id, bs, x, y):
    return Cell(
        cell_id=cell_id,
        base_station_id=bs,
        sector_index=0,
        carrier=CARRIERS["C3"],
        location=Point(x, y),
        azimuth_deg=0.0,
    )


CELLS = {
    1: cell(1, 1, 0.0, 0.0),
    2: cell(2, 2, 3.0, 0.0),
    3: cell(3, 3, 6.0, 0.0),
    4: cell(4, 1, 0.0, 0.0),  # second cell of site 1
}


def rec(start, cell_id, car="car-a"):
    return ConnectionRecord(
        start=start, car_id=car, cell_id=cell_id, carrier="C3",
        technology="4G", duration=60.0,
    )


class TestBuildGraph:
    def test_edges_weighted_by_handovers(self):
        batch = CDRBatch(
            [rec(0, 1), rec(100, 2), rec(50_000, 1, car="car-b"), rec(50_100, 2, car="car-b")]
        )
        graph = build_handover_graph(preprocess(batch), CELLS)
        assert graph.successors[1][2] == 2
        (corridor,) = graph.edges()
        assert (corridor.src_site, corridor.dst_site) == (1, 2)
        assert corridor.handovers == 2
        assert corridor.length_km == pytest.approx(3.0)

    def test_intra_site_transitions_excluded(self):
        batch = CDRBatch([rec(0, 1), rec(100, 4)])  # cells 1 and 4 share site 1
        graph = build_handover_graph(preprocess(batch), CELLS)
        assert graph.n_edges == 0

    def test_session_gap_breaks_edges(self):
        batch = CDRBatch([rec(0, 1), rec(50_000, 2)])
        graph = build_handover_graph(preprocess(batch), CELLS)
        assert graph.n_edges == 0

    def test_node_positions_attached(self):
        batch = CDRBatch([rec(0, 1), rec(100, 2)])
        graph = build_handover_graph(preprocess(batch), CELLS)
        assert graph.positions == {1: Point(0.0, 0.0), 2: Point(3.0, 0.0)}


class TestMetrics:
    def _graph(self):
        records = []
        # 3 cars commute 1->2->3 and back; 1 car only 1->2.
        for i, car in enumerate(("a", "b", "c")):
            t = i * 100_000
            records += [
                rec(t, 1, car=car),
                rec(t + 100, 2, car=car),
                rec(t + 200, 3, car=car),
                rec(t + 30_000, 3, car=car),
                rec(t + 30_100, 2, car=car),
                rec(t + 30_200, 1, car=car),
            ]
        records += [rec(900_000, 1, car="d"), rec(900_100, 2, car="d")]
        return build_handover_graph(preprocess(CDRBatch(records)), CELLS)

    def test_top_corridors(self):
        corridors = top_corridors(self._graph(), n=2)
        assert corridors[0].handovers == 4  # 1->2: three commutes + car d
        assert (corridors[0].src_site, corridors[0].dst_site) == (1, 2)

    def test_edge_lengths(self):
        median, p90 = edge_length_stats(self._graph())
        assert median == pytest.approx(3.0)
        assert p90 == pytest.approx(3.0)

    def test_reciprocity(self):
        # Every corridor except d's single 1->2 run has a reverse edge;
        # 1->2 reverse exists (the return commutes), so reciprocity is 1.
        assert reciprocity(self._graph()) == pytest.approx(1.0)

    def test_site_throughput_ranking(self):
        ranking = site_throughput_ranking(self._graph(), n=3)
        # Site 2 relays everything: highest strength.
        assert ranking[0][0] == 2

    def test_empty_graph_raises(self):
        with pytest.raises(ValueError):
            edge_length_stats(HandoverGraph())
        with pytest.raises(ValueError):
            reciprocity(HandoverGraph())


class TestOnGeneratedTrace:
    def test_graph_reflects_topology(self, dataset):
        pre = preprocess(dataset.batch)
        graph = build_handover_graph(pre, dataset.topology.cells)
        assert graph.n_edges > 50
        median, p90 = edge_length_stats(graph)
        # Handover edges connect nearby sites: the median sits within a few
        # site pitches, and there is no dominant long-haul tail.
        assert median < 3 * dataset.topology.config.suburban_pitch_km
        assert p90 < 6 * dataset.topology.config.suburban_pitch_km
        # Commutes are bidirectional.
        assert reciprocity(graph) > 0.6
