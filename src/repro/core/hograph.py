"""The handover graph: which base stations hand cars to which.

Aggregating every observed inter-site handover into a weighted directed
graph exposes the road network through the radio log: heavy edges are
commute corridors, node strength ranks sites by through-traffic, and edge
geometry (the distance between endpoint sites) reflects cell sizes.  This is
the spatial companion to Section 4.5's per-session handover counts and the
substrate an operator would use to pick sites for capacity upgrades before a
FOTA campaign.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.preprocess import PreprocessResult
from repro.network.cells import Cell
from repro.network.geometry import Point, distance

if TYPE_CHECKING:
    import networkx as nx  # type: ignore[import-untyped]


@dataclass(frozen=True)
class Corridor:
    """One directed site-to-site handover edge."""

    src_site: int
    dst_site: int
    handovers: int
    length_km: float


def build_handover_graph(
    pre: PreprocessResult, cells: dict[int, Cell]
) -> nx.DiGraph:
    """Weighted directed graph of observed inter-site handovers.

    Nodes are base station ids with a ``pos`` attribute; edge weight
    ``handovers`` counts transitions inside network sessions, and
    ``length_km`` is the straight-line distance between the sites.
    """
    import networkx as nx  # type: ignore[import-untyped]

    graph = nx.DiGraph()
    site_pos: dict[int, Point] = {}
    for car_id in pre.truncated.car_ids():
        for session in pre.network_sessions(car_id):
            known = [rec for rec in session if rec.cell_id in cells]
            for prev, cur in zip(known, known[1:]):
                a = cells[prev.cell_id]
                b = cells[cur.cell_id]
                if a.base_station_id == b.base_station_id:
                    continue
                site_pos.setdefault(a.base_station_id, a.location)
                site_pos.setdefault(b.base_station_id, b.location)
                key = (a.base_station_id, b.base_station_id)
                if graph.has_edge(*key):
                    graph.edges[key]["handovers"] += 1
                else:
                    graph.add_edge(
                        *key,
                        handovers=1,
                        length_km=distance(a.location, b.location),
                    )
    for site, pos in site_pos.items():
        graph.nodes[site]["pos"] = pos
    return graph


def top_corridors(graph: nx.DiGraph, n: int = 10) -> list[Corridor]:
    """The ``n`` busiest directed handover corridors."""
    edges = sorted(
        graph.edges(data=True), key=lambda e: e[2]["handovers"], reverse=True
    )
    return [
        Corridor(
            src_site=a,
            dst_site=b,
            handovers=data["handovers"],
            length_km=data["length_km"],
        )
        for a, b, data in edges[:n]
    ]


def edge_length_stats(graph: nx.DiGraph) -> tuple[float, float]:
    """(median, p90) of handover edge lengths in km.

    On a healthy log this sits near the site pitch: handovers connect
    neighbouring sites, not distant ones.  A heavy tail of long edges means
    the log is missing intermediate cells (the under-sampling of
    Section 4.5).
    """
    lengths = np.asarray([d["length_km"] for _, _, d in graph.edges(data=True)])
    if lengths.size == 0:
        raise ValueError("handover graph has no edges")
    return float(np.median(lengths)), float(np.percentile(lengths, 90))


def site_throughput_ranking(graph: nx.DiGraph, n: int = 10) -> list[tuple[int, int]]:
    """Sites ranked by total handover throughput (in + out), top ``n``."""
    strength: dict[int, int] = {
        node: sum(d["handovers"] for *_, d in graph.in_edges(node, data=True))
        + sum(d["handovers"] for *_, d in graph.out_edges(node, data=True))
        for node in graph.nodes
    }
    ranked = sorted(strength.items(), key=lambda kv: kv[1], reverse=True)
    return ranked[:n]


def reciprocity(graph: nx.DiGraph) -> float:
    """Fraction of corridors that are also travelled in reverse.

    Commute traffic is strongly bidirectional (out in the morning, back in
    the evening), so a trace with realistic mobility shows high reciprocity.
    """
    if graph.number_of_edges() == 0:
        raise ValueError("handover graph has no edges")
    reciprocal = sum(1 for a, b in graph.edges if graph.has_edge(b, a))
    return float(reciprocal / graph.number_of_edges())
