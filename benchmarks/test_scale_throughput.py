"""Map-reduce shard analysis: worker-sweep throughput and scaling floor.

The paper's 1.1-billion-record trace is analysed shard by shard; this bench
writes the full-scale dataset as a ``.cdrz`` shard directory and sweeps
``analyze_shards_fused`` across worker counts (1/2/4/8), recording
records/second, wall time, and peak RSS per configuration into
``BENCH_scale.json``.

Two guarantees are enforced here, not just measured:

* every worker count reduces to the bit-identical report (the determinism
  contract of ``repro.core.mapreduce``), and
* 4 workers deliver at least ``SPEEDUP_FLOOR_AT_4`` the single-worker
  throughput — asserted only on hosts with >= 4 CPUs (CI runners qualify;
  a 1-core container records the sweep without the floor).
"""

import os
import time

from repro.cdr.store import write_sharded_cdrz
from repro.core.mapreduce import analyze_shards_fused

WORKER_SWEEP = (1, 2, 4, 8)
SPEEDUP_FLOOR_AT_4 = 2.5
TARGET_SHARDS = 16


def _result_key(report):
    """Hashable projection of every fold report field, bit-exact."""
    exposure, handovers = report.exposure, report.handovers
    return (
        tuple(report.presence.car_fraction.tolist()),
        tuple(report.presence.cell_fraction.tolist()),
        report.presence.n_cars_total,
        report.presence.n_cells_total,
        tuple(sorted(report.days.items())),
        tuple(report.connect_time.car_ids),
        tuple(report.connect_time.full_share.tolist()),
        tuple(report.connect_time.truncated_share.tolist()),
        report.durations,
        tuple(sorted(report.carriers.cars_fraction.items())),
        tuple(sorted(report.carriers.time_fraction.items())),
        report.carriers.n_cars,
        report.carriers.total_time_s,
        tuple(exposure.car_ids),
        tuple(exposure.busy_share.tolist()),
        tuple(exposure.nonbusy_share.tolist()),
        report.segmentation,
        tuple(handovers.per_session.tolist()),
        tuple(sorted((t.value, n) for t, n in handovers.type_counts.items())),
        report.n_ghosts,
    )


def _analyze(shard_dir, dataset, schedule, workers):
    return analyze_shards_fused(
        shard_dir,
        dataset.clock,
        schedule=schedule,
        cells=dataset.topology.cells,
        workers=workers,
    )


def test_scale_throughput(dataset, busy_schedule, emit_json, tmp_path):
    columnar = dataset.batch.columnar()
    n_rows = len(columnar)
    shard_dir = tmp_path / "shards"
    write_sharded_cdrz(
        shard_dir, columnar, shard_rows=-(-n_rows // TARGET_SHARDS)
    )

    # Synthesize the busy-mask grid once, before any fork, so workers
    # inherit it instead of each rebuilding it inside the timed sweep.
    busy_schedule.mask_table()
    sweep = {}
    reference = None
    stats = None
    for workers in WORKER_SWEEP:
        t0 = time.perf_counter()
        result, stats = _analyze(shard_dir, dataset, busy_schedule, workers)
        elapsed = time.perf_counter() - t0
        key = _result_key(result)
        if reference is None:
            reference = key
        # The determinism contract: any worker count, same bits.
        assert key == reference
        sweep[str(workers)] = {
            "seconds": round(elapsed, 4),
            "records_per_sec": round(result.n_kept / elapsed),
            "peak_rss_bytes": stats.peak_rss_bytes,
            "effective_workers": stats.workers,
        }

    speedup_at_4 = sweep["1"]["seconds"] / sweep["4"]["seconds"]
    cpu_count = os.cpu_count() or 1
    floor_asserted = cpu_count >= 4
    emit_json(
        "BENCH_scale",
        {
            "rows": n_rows,
            "shards": stats.n_shards,
            "cpu_count": cpu_count,
            "workers": sweep,
            "speedup_at_4_workers": round(speedup_at_4, 2),
            "speedup_floor": SPEEDUP_FLOOR_AT_4,
            "speedup_floor_asserted": floor_asserted,
        },
    )
    if floor_asserted:
        assert speedup_at_4 >= SPEEDUP_FLOOR_AT_4


def test_scale_smoke_two_workers(dataset, busy_schedule, tmp_path):
    """CI smoke tier: a small shard directory through the pool path.

    Exercises the real multi-process machinery (workers=2) on a slice of
    the dataset and checks parity against the inline single-worker fold —
    fast enough for every CI run, independent of host core count.
    """
    full = dataset.batch.columnar()
    columnar = full.rows(0, min(20_000, len(full)))
    shard_dir = tmp_path / "smoke-shards"
    write_sharded_cdrz(shard_dir, columnar, shard_rows=4_096)

    busy_schedule.mask_table()
    serial, serial_stats = _analyze(shard_dir, dataset, busy_schedule, 1)
    pooled, pooled_stats = _analyze(shard_dir, dataset, busy_schedule, 2)

    assert _result_key(pooled) == _result_key(serial)
    assert pooled.n_kept == serial.n_kept == serial.durations.n
    assert pooled_stats.workers == 2
