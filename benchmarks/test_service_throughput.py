"""Analysis-service throughput: cold vs warm vs post-ingest.

The service's two performance claims, enforced here (and re-checked by
``check_regression.py`` against the committed baseline):

* a warm cached query is at least ``WARM_SPEEDUP_FLOOR`` times faster than
  a cold ``analyze --workers 0`` CLI run over the same shards — the
  daemon's whole reason to exist, and
* incrementally ingesting one new day of shards costs at most
  ``1 / INGEST_SPEEDUP_FLOOR`` of a full recompute (a < 25% budget is a
  4x speedup), because only the new shard is swept and only its partial
  is folded onto the held prefix.  Both sides are timed with the scenario
  context (and its busy-mask grid) already built, since an ingest never
  pays for it.

Alongside the floors, the bench records queries/second under concurrent
HTTP load in three cache regimes — cold (just invalidated), warm, and
post-ingest (cache rebuilt after folding a new day) — into
``BENCH_service.json``, and asserts that every response after the
incremental ingest is byte-identical to a cold service over the full
shard set.
"""

import io
import json
import os
import shutil
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import redirect_stdout

import numpy as np

from repro.algorithms.timebins import DAY
from repro.cdr.store import write_batch_cdrz, write_sharded_cdrz
from repro.cli import main as cli_main
from repro.service import ServiceClient, ServiceConfig, ServiceState, ServiceThread
from repro.service.routes import ANALYSIS_ROUTES

DAYS = 90
BASE_SHARDS = 16
WARM_QUERIES = 200
CONCURRENCY = 8
WARM_SPEEDUP_FLOOR = 50.0
INGEST_SPEEDUP_FLOOR = 4.0
KINDS = tuple(kind for kind in ANALYSIS_ROUTES if kind != "timeline")


def concurrent_qps(port: int) -> float:
    """Queries/second with CONCURRENCY clients fetching every kind."""

    def fetch(worker: int) -> int:
        with ServiceClient("127.0.0.1", port) as client:
            for kind in KINDS:
                client.query_bytes(kind)
        return len(KINDS)

    t0 = time.perf_counter()
    with ThreadPoolExecutor(max_workers=CONCURRENCY) as pool:
        total = sum(pool.map(fetch, range(CONCURRENCY)))
    return total / (time.perf_counter() - t0)


def test_service_throughput(dataset, emit_json, tmp_path):
    columnar = dataset.batch.columnar()
    n_rows = len(columnar)
    cut = int(np.searchsorted(columnar.start, (DAYS - 1) * DAY))
    base, extra = columnar.rows(0, cut), columnar.rows(cut, n_rows)
    assert len(extra) > 0, "dataset has no final-day rows to ingest"

    base_dir = tmp_path / "trace"
    write_sharded_cdrz(base_dir, base, shard_rows=-(-cut // BASE_SHARDS))
    full_dir = tmp_path / "full"
    shutil.copytree(base_dir, full_dir)
    write_batch_cdrz(full_dir / "shard-99999.cdrz", extra)

    # -- the cold reference: one `analyze --workers 0` CLI run ------------
    t0 = time.perf_counter()
    with redirect_stdout(io.StringIO()):
        code = cli_main(
            [
                "analyze",
                "--trace",
                str(full_dir),
                "--days",
                str(DAYS),
                "--workers",
                "0",
            ]
        )
    cold_cli_seconds = time.perf_counter() - t0
    assert code == 0

    # -- full recompute vs incremental ingest ------------------------------
    # Both sides run on a warm scenario context: the context builds the
    # whole busy-mask grid when it is created, so neither an ingest nor the
    # full recompute it is compared with builds masks.
    config = ServiceConfig(trace=str(full_dir), scenario="default", days=DAYS)
    state_full = ServiceState(config)
    t0 = time.perf_counter()
    state_full.refresh()
    full_refresh_seconds = time.perf_counter() - t0
    reference = {kind: state_full.query(kind, {}) for kind in KINDS}

    state = ServiceState(
        ServiceConfig(trace=str(base_dir), scenario="default", days=DAYS)
    )
    state.refresh()  # initial sweep of the 89-day base, outside all timings

    with ServiceThread(state) as server:
        with ServiceClient("127.0.0.1", server.port) as client:
            client.invalidate()
        cold_qps = concurrent_qps(server.port)
        warm_qps = concurrent_qps(server.port)

        # Warm single-stream latency for the headline speedup ratio.
        with ServiceClient("127.0.0.1", server.port) as client:
            client.query_bytes("presence")
            t0 = time.perf_counter()
            for _ in range(WARM_QUERIES):
                client.query_bytes("presence")
            warm_query_seconds = (time.perf_counter() - t0) / WARM_QUERIES

            # One new day appears; the daemon folds only its shard.
            write_batch_cdrz(base_dir / "shard-99999.cdrz", extra)
            t0 = time.perf_counter()
            summary = client.ingest()
            incremental_ingest_seconds = time.perf_counter() - t0
            assert summary["changed"] is True
            assert summary["n_added"] == 1

        post_ingest_qps = concurrent_qps(server.port)

        # Bit-parity: the ingested service answers exactly like a cold
        # service over the full shard set.
        after = {kind: state.query(kind, {}) for kind in KINDS}
        assert after == reference

    warm_speedup = cold_cli_seconds / warm_query_seconds
    ingest_speedup = full_refresh_seconds / incremental_ingest_seconds
    emit_json(
        "BENCH_service",
        {
            "rows": n_rows,
            "base_rows": cut,
            "ingest_rows": len(extra),
            "shards": BASE_SHARDS + 1,
            "cpu_count": os.cpu_count() or 1,
            "concurrency": CONCURRENCY,
            "cold_cli_seconds": round(cold_cli_seconds, 4),
            "warm_query_ms": round(warm_query_seconds * 1e3, 4),
            "warm_speedup_vs_cold_cli": round(warm_speedup, 1),
            "warm_speedup_floor": WARM_SPEEDUP_FLOOR,
            "full_refresh_seconds": round(full_refresh_seconds, 4),
            "incremental_ingest_seconds": round(incremental_ingest_seconds, 4),
            "ingest_speedup_vs_full": round(ingest_speedup, 1),
            "ingest_speedup_floor": INGEST_SPEEDUP_FLOOR,
            "qps": {
                "cold": round(cold_qps, 1),
                "warm": round(warm_qps, 1),
                "post_ingest": round(post_ingest_qps, 1),
            },
        },
    )
    assert warm_speedup >= WARM_SPEEDUP_FLOOR
    assert ingest_speedup >= INGEST_SPEEDUP_FLOOR


def test_service_responses_are_canonical_json(dataset, tmp_path):
    """CI smoke: every benchmarked kind round-trips through the canonical
    encoder, so byte comparisons above compare content, not formatting."""
    columnar = dataset.batch.columnar()
    trace = tmp_path / "shards"
    write_sharded_cdrz(
        trace, columnar.rows(0, 20_000), shard_rows=4_096
    )
    state = ServiceState(
        ServiceConfig(trace=str(trace), scenario="default", days=DAYS)
    )
    for kind in KINDS:
        data = state.query(kind, {})
        payload = json.loads(data)
        assert (
            json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
            == data
        )
