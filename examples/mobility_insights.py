#!/usr/bin/env python3
"""Mobility analysis from radio logs: journeys, corridors and the handover
graph.

Section 4.5 treats the radio log as a lower bound on mobility; this example
pushes that idea further the way operators do: reconstruct journeys from
network sessions, estimate distances and speeds, find the busiest handover
corridors and rank sites by through-traffic — the inputs to capacity
planning before a FOTA campaign.

Usage::

    python examples/mobility_insights.py [n_cars] [n_days]
"""

import sys

import numpy as np

from repro import SimulationConfig, StudyClock, TraceGenerator
from repro.core.hograph import (
    build_handover_graph,
    edge_length_stats,
    reciprocity,
    site_throughput_ranking,
    top_corridors,
)
from repro.core.journeys import commute_peak_shares, reconstruct_journeys
from repro.core.odmatrix import ZoneGrid, build_od_matrix, commute_reversal_score
from repro.core.preprocess import preprocess
from repro.viz import hbar_chart, sparkline


def main() -> None:
    n_cars = int(sys.argv[1]) if len(sys.argv) > 1 else 150
    n_days = int(sys.argv[2]) if len(sys.argv) > 2 else 28

    print(f"Generating trace: {n_cars} cars over {n_days} days ...")
    dataset = TraceGenerator(
        SimulationConfig(n_cars=n_cars, clock=StudyClock(n_days=n_days))
    ).generate()
    pre = preprocess(dataset.batch)

    # -- Journeys ------------------------------------------------------------
    stats = reconstruct_journeys(pre, dataset.topology.cells)
    print(f"\n== Journeys ==")
    print(
        f"network sessions with movement: {stats.n_journeys:,} "
        f"({stats.mobility_fraction():.0%}); stationary: "
        f"{stats.n_stationary_sessions:,}"
    )
    print(
        f"median distance {stats.median_distance_km():.1f} km, "
        f"median speed {np.median(stats.speeds_kmh()):.0f} km/h, "
        f"median duration {np.median(stats.durations_s()) / 60:.0f} min"
    )
    hours = stats.departure_hour_histogram(dataset.clock)
    print(f"departures by hour: {sparkline(hours)}")
    morning, evening = commute_peak_shares(stats, dataset.clock)
    print(f"departing in commute windows: morning {morning:.0%}, evening {evening:.0%}")

    # -- Handover graph --------------------------------------------------------
    graph = build_handover_graph(pre, dataset.topology.cells)
    median_len, p90_len = edge_length_stats(graph)
    print(f"\n== Handover graph ==")
    print(
        f"{len(graph.positions)} sites, {graph.n_edges} directed "
        f"corridors; edge length median {median_len:.1f} km (p90 {p90_len:.1f}); "
        f"reciprocity {reciprocity(graph):.0%}"
    )

    corridors = top_corridors(graph, n=8)
    print("\nbusiest corridors (site -> site):")
    print(
        hbar_chart(
            [f"{c.src_site}->{c.dst_site}" for c in corridors],
            [c.handovers for c in corridors],
            fmt="{:.0f}",
        )
    )

    print("\nsites by handover throughput:")
    ranking = site_throughput_ranking(graph, n=8)
    print(
        hbar_chart(
            [f"site {site}" for site, _ in ranking],
            [count for _, count in ranking],
            fmt="{:.0f}",
        )
    )
    # -- OD matrices ---------------------------------------------------------
    grid = ZoneGrid(
        width_km=dataset.topology.config.width_km,
        height_km=dataset.topology.config.height_km,
        n_rows=3,
        n_cols=3,
    )
    morning = build_od_matrix(
        stats.journeys, dataset.topology.cells, grid, dataset.clock, hours=(6, 10)
    )
    evening = build_od_matrix(
        stats.journeys, dataset.topology.cells, grid, dataset.clock, hours=(15, 20)
    )
    print(f"\n== Origin-destination flows (3x3 zones) ==")
    print(
        f"morning journeys {morning.total_journeys:,}, evening "
        f"{evening.total_journeys:,}; evening-reverses-morning correlation "
        f"{commute_reversal_score(morning, evening):.2f}"
    )
    for o, d, count in morning.top_pairs(4):
        print(
            f"  {grid.zone_name(o)} -> {grid.zone_name(d)}: {count} morning, "
            f"{evening.flow(d, o)} evening reverse"
        )

    print(
        "\nHeavy corridors + high-throughput sites are where overlapping FOTA "
        "downloads concentrate\n— the capacity-planning view behind the "
        "paper's Figure 11 clusters."
    )


if __name__ == "__main__":
    main()
