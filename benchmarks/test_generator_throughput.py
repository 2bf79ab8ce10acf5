"""Substrate performance: trace-generation throughput and worker scaling.

The generator is the substrate every experiment stands on; this bench pins
its throughput (records generated per second of wall clock) so regressions
in the routing/edge-index/burst pipeline are visible, and measures how
``TraceGenerator(workers=N)`` scales with worker count.  All numbers land
in ``benchmarks/out/BENCH_generator.json`` for trend tracking.

Measured at a reduced scale (100 cars x 14 days) so the benchmark itself
stays fast.
"""

from __future__ import annotations

import os
import time

from repro.algorithms.timebins import StudyClock
from repro.simulate.config import SimulationConfig
from repro.simulate.generator import TraceGenerator

#: The vectorized serial pipeline sustains ~2x the rate the original
#: per-record path did on the same hardware (where the old floor was 10k).
MIN_RECORDS_PER_S = 20_000


def small_config() -> SimulationConfig:
    return SimulationConfig(n_cars=100, seed=21, clock=StudyClock(n_days=14))


def generate_small():
    return TraceGenerator(small_config()).generate()


def test_generator_throughput(benchmark, emit, emit_json):
    dataset = benchmark.pedantic(generate_small, rounds=3, iterations=1)
    mean_s = benchmark.stats.stats.mean
    best_s = benchmark.stats.stats.min
    rate = dataset.n_records / mean_s
    lines = [
        f"100 cars x 14 days -> {dataset.n_records:,} records",
        f"generation: {mean_s:.2f} s mean over 3 rounds "
        f"({rate:,.0f} records/s)",
        f"cells: {dataset.topology.n_cells}, road nodes: {dataset.roads.n_nodes}",
    ]
    # The default experiment (500 cars, 90 days, ~650k records) must stay
    # comfortably inside interactive time; the floor doubles the seed
    # pipeline's 10k records/s because the vectorized path is >= 2x faster.
    assert rate > MIN_RECORDS_PER_S
    assert dataset.n_records > 10_000
    emit("generator_throughput", "\n".join(lines))
    emit_json(
        "BENCH_generator",
        {
            "workload": "100 cars x 14 days",
            "records": dataset.n_records,
            "serial": {
                "wall_s_mean": round(mean_s, 4),
                "wall_s_best": round(best_s, 4),
                "records_per_s": round(rate),
                "rounds": 3,
            },
            "cpu_count": os.cpu_count(),
            "min_records_per_s_floor": MIN_RECORDS_PER_S,
        },
    )


def test_parallel_worker_scaling(emit, emit_json):
    """Wall time and per-worker efficiency of the sharded generator.

    On a single-core box the pool can only add overhead, so the near-linear
    scaling assertion is gated on available CPUs; the measured numbers are
    always recorded so multi-core runs show the curve.
    """
    cfg = small_config()
    cpu_count = os.cpu_count() or 1
    worker_counts = [1, 2, 4] if cpu_count >= 4 else [1, min(2, cpu_count + 1)]

    results = {}
    n_records = None
    for n_workers in worker_counts:
        t0 = time.perf_counter()
        dataset = TraceGenerator(cfg, workers=n_workers).generate()
        wall = time.perf_counter() - t0
        if n_records is None:
            n_records = dataset.n_records
        else:
            # Sharding must not change the dataset.
            assert dataset.n_records == n_records
        results[n_workers] = {
            "wall_s": round(wall, 4),
            "records_per_s": round(dataset.n_records / wall),
        }

    base = results[worker_counts[0]]["wall_s"]
    lines = [f"100 cars x 14 days -> {n_records:,} records"]
    for n_workers, r in results.items():
        speedup = base / r["wall_s"]
        r["speedup_vs_1"] = round(speedup, 2)
        # Throughput per single-core-equivalent: what one worker process
        # contributes when n_workers shards run concurrently.
        lines.append(
            f"{n_workers} workers: {r['wall_s']:.2f} s "
            f"({r['records_per_s']:,} records/s, {speedup:.2f}x vs 1 worker)"
        )

    if cpu_count >= 4:
        # Near-linear scaling on real cores: 4 workers must deliver >= 2.8x
        # the single-worker rate (>= 70% parallel efficiency).
        assert results[4]["speedup_vs_1"] >= 2.8
    emit("generator_parallel_scaling", "\n".join(lines))
    emit_json(
        "BENCH_generator",
        {
            "workload": "100 cars x 14 days",
            "records": n_records,
            "workers": {str(k): v for k, v in results.items()},
            "cpu_count": cpu_count,
            "scaling_assert_ran": cpu_count >= 4,
        },
        merge=True,
    )
