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

from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from repro.core.preprocess import PreprocessResult
from repro.network.cells import Cell
from repro.network.geometry import Point, distance


@dataclass(frozen=True)
class Corridor:
    """One directed site-to-site handover edge."""

    src_site: int
    dst_site: int
    handovers: int
    length_km: float


@dataclass
class HandoverGraph:
    """Directed site-to-site handover counts.

    ``positions`` holds every site that handed a car over or took one, in
    first-seen order.  ``successors[a]`` maps each site ``a`` handed cars
    to, in first-seen order, to the number of handovers; every site of
    ``positions`` has an entry, empty when it only took cars.  Iteration
    follows these orders, so ties in :func:`top_corridors` and
    :func:`site_throughput_ranking` break by first observation.
    """

    positions: dict[int, Point] = field(default_factory=dict)
    successors: dict[int, dict[int, int]] = field(default_factory=dict)

    @property
    def n_edges(self) -> int:
        """Number of directed corridors."""
        return sum(len(out) for out in self.successors.values())

    def edges(self) -> Iterator[Corridor]:
        """Every corridor, by source site then destination, in first-seen order."""
        for a, out in self.successors.items():
            for b, handovers in out.items():
                yield Corridor(
                    a, b, handovers, distance(self.positions[a], self.positions[b])
                )


def build_handover_graph(
    pre: PreprocessResult, cells: dict[int, Cell]
) -> HandoverGraph:
    """Weighted directed graph of observed inter-site handovers.

    A corridor's ``handovers`` counts transitions inside network sessions,
    and its ``length_km`` is the straight-line distance between the sites
    (every cell of a site sits at the site).
    """
    graph = HandoverGraph()
    for car_id in pre.truncated.car_ids():
        for session in pre.network_sessions(car_id):
            known = [rec for rec in session if rec.cell_id in cells]
            for prev, cur in zip(known, known[1:]):
                a = cells[prev.cell_id]
                b = cells[cur.cell_id]
                if a.base_station_id == b.base_station_id:
                    continue
                for cell in (a, b):
                    if cell.base_station_id not in graph.positions:
                        graph.positions[cell.base_station_id] = cell.location
                        graph.successors[cell.base_station_id] = {}
                out = graph.successors[a.base_station_id]
                out[b.base_station_id] = out.get(b.base_station_id, 0) + 1
    return graph


def top_corridors(graph: HandoverGraph, n: int = 10) -> list[Corridor]:
    """The ``n`` busiest directed handover corridors."""
    edges = sorted(graph.edges(), key=lambda e: e.handovers, reverse=True)
    return edges[:n]


def edge_length_stats(graph: HandoverGraph) -> tuple[float, float]:
    """(median, p90) of handover edge lengths in km.

    On a healthy log this sits near the site pitch: handovers connect
    neighbouring sites, not distant ones.  A heavy tail of long edges means
    the log is missing intermediate cells (the under-sampling of
    Section 4.5).
    """
    lengths = np.asarray([e.length_km for e in graph.edges()])
    if lengths.size == 0:
        raise ValueError("handover graph has no edges")
    return float(np.median(lengths)), float(np.percentile(lengths, 90))


def site_throughput_ranking(
    graph: HandoverGraph, n: int = 10
) -> list[tuple[int, int]]:
    """Sites ranked by total handover throughput (in + out), top ``n``."""
    strength = dict.fromkeys(graph.positions, 0)
    for e in graph.edges():
        strength[e.src_site] += e.handovers
        strength[e.dst_site] += e.handovers
    ranked = sorted(strength.items(), key=lambda kv: kv[1], reverse=True)
    return ranked[:n]


def reciprocity(graph: HandoverGraph) -> float:
    """Fraction of corridors that are also travelled in reverse.

    Commute traffic is strongly bidirectional (out in the morning, back in
    the evening), so a trace with realistic mobility shows high reciprocity.
    """
    edges = list(graph.edges())
    if not edges:
        raise ValueError("handover graph has no edges")
    reciprocal = sum(1 for e in edges if e.src_site in graph.successors[e.dst_site])
    return float(reciprocal / len(edges))
