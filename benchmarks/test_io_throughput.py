"""Trace I/O performance: binary columnar store vs compressed text.

Writes the full-scale dataset (500 cars x 90 days, ~650k records) once per
text format and once as a ``.cdrz`` container, then times every read path:
the vectorized csv.gz / jsonl.gz readers, the zero-copy mmap ``.cdrz``
load, and the sharded chunked-columnar stream.  Every cdrz read runs under
the :func:`count_record_constructions` hook to prove the binary paths build
zero ``ConnectionRecord`` objects.  All numbers land in
``benchmarks/out/BENCH_io.json`` for trend tracking.

The mmap timing includes a column checksum so the pages are actually
faulted in — otherwise ``np.memmap`` would only be timing the ZIP header
parse.
"""

from __future__ import annotations

import resource
import time
import tracemalloc

from repro.cdr.columnar import ColumnarCDRBatch
from repro.cdr.io import (
    read_columnar_csv,
    read_columnar_jsonl,
    write_columnar_csv,
    write_columnar_jsonl,
)
from repro.cdr.records import count_record_constructions
from repro.cdr.store import (
    iter_cdrz_chunks,
    read_batch_cdrz,
    write_batch_cdrz,
    write_sharded_cdrz,
)

#: The mmap ``.cdrz`` load must read at least this many times faster than
#: the csv.gz fast path.  The acceptance floor is deliberately far below
#: the measured gap (>1000x warm-cache) so the assert survives cold page
#: caches and loaded CI machines.
MIN_CDRZ_VS_CSV_SPEEDUP = 10.0

ROUNDS = 3
CHUNK_ROWS = 65_536
SHARD_ROWS = 131_072


def _checksum(col) -> float:
    """Touch every column so mmap-backed pages are actually loaded."""
    return float(
        col.start.sum()
        + col.duration.sum()
        + col.cell_id.sum()
        + col.car_code.sum()
        + col.carrier_code.sum()
        + col.tech_code.sum()
    )


def _best_wall(fn) -> tuple[float, float]:
    """(best wall seconds over ROUNDS, checksum from the last round)."""
    best = float("inf")
    value = 0.0
    for _ in range(ROUNDS):
        t0 = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - t0)
    return best, value


def _tracemalloc_peak(fn) -> int:
    """Peak traced Python-heap bytes across one untimed run of ``fn``."""
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_io_throughput(dataset, emit, emit_json, tmp_path):
    col = dataset.batch.columnar()
    n = len(col)

    csv_path = tmp_path / "trace.csv.gz"
    jsonl_path = tmp_path / "trace.jsonl.gz"
    cdrz_path = tmp_path / "trace.cdrz"
    shard_dir = tmp_path / "shards"
    write_columnar_csv(csv_path, col)
    write_columnar_jsonl(jsonl_path, col)
    write_batch_cdrz(cdrz_path, col)
    write_sharded_cdrz(shard_dir, col, shard_rows=SHARD_ROWS)

    def load_csv() -> float:
        return _checksum(read_columnar_csv(csv_path))

    def load_jsonl() -> float:
        return _checksum(read_columnar_jsonl(jsonl_path))

    def load_cdrz_mmap() -> float:
        return _checksum(read_batch_cdrz(cdrz_path))

    def stream_cdrz_chunks() -> float:
        return sum(
            _checksum(chunk)
            for chunk in iter_cdrz_chunks(shard_dir, chunk_rows=CHUNK_ROWS)
        )

    readers = {
        "csv_gz": (load_csv, csv_path.stat().st_size),
        "jsonl_gz": (load_jsonl, jsonl_path.stat().st_size),
        "cdrz_mmap": (load_cdrz_mmap, cdrz_path.stat().st_size),
        "cdrz_chunked_stream": (
            stream_cdrz_chunks,
            sum(p.stat().st_size for p in shard_dir.glob("*.cdrz")),
        ),
    }

    # The binary paths must never take the per-record detour.
    with count_record_constructions() as counter:
        load_cdrz_mmap()
        stream_cdrz_chunks()
    assert counter.count == 0

    # Same data behind every container.  Compared element-wise, not by
    # checksum: np.sum's SIMD reduction order varies with buffer alignment,
    # and mmap-backed columns start at a ZIP-member offset rather than a
    # fresh allocation, so identical bits can produce a different sum.
    text_batch = read_columnar_csv(csv_path)
    assert read_batch_cdrz(cdrz_path) == text_batch
    assert (
        ColumnarCDRBatch.concatenate(
            list(iter_cdrz_chunks(shard_dir, chunk_rows=CHUNK_ROWS))
        )
        == text_batch
    )

    results = {}
    for name, (fn, size) in readers.items():
        wall, _ = _best_wall(fn)
        results[name] = {
            "wall_s_best": round(wall, 4),
            "records_per_s": round(n / wall),
            "file_bytes": size,
            "py_heap_peak_bytes": _tracemalloc_peak(fn),
        }

    speedup = (
        results["cdrz_mmap"]["records_per_s"]
        / results["csv_gz"]["records_per_s"]
    )
    assert speedup >= MIN_CDRZ_VS_CSV_SPEEDUP

    ru_maxrss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    lines = [f"500 cars x 90 days -> {n:,} records"]
    for name, r in results.items():
        lines.append(
            f"{name}: {r['wall_s_best']:.3f} s "
            f"({r['records_per_s']:,} records/s, "
            f"{r['file_bytes'] / 1e6:.1f} MB on disk)"
        )
    lines.append(f"cdrz mmap vs csv.gz: {speedup:.1f}x (floor {MIN_CDRZ_VS_CSV_SPEEDUP:.0f}x)")
    lines.append(f"peak RSS: {ru_maxrss_kib / 1024:.0f} MiB")

    emit("io_throughput", "\n".join(lines))
    emit_json(
        "BENCH_io",
        {
            "workload": "500 cars x 90 days",
            "records": n,
            "readers": results,
            "cdrz_mmap_vs_csv_gz_speedup": round(speedup, 2),
            "min_speedup_floor": MIN_CDRZ_VS_CSV_SPEEDUP,
            "zero_record_constructions_on_cdrz": True,
            "chunk_rows": CHUNK_ROWS,
            "shard_rows": SHARD_ROWS,
            "peak_rss_kib": ru_maxrss_kib,
            "rounds": ROUNDS,
        },
    )
