"""Replay one operation with every layer call traced, in a fresh interpreter.

    python benchmarks/e2e/replay.py SPEC.json

``SPEC.json`` names the operation (``op``), the workload, and where to write
the spans and the result.  The replay imports ``repro.cli`` and every module
it patches first (untimed, but reported as ``import_s`` so the caller can
tell import from drift), installs the layer spans
of :mod:`spans`, runs the same public functions ``repro-cars`` and the
daemon call, in the same order, under one root span, and writes the spans
once at exit.  A fresh interpreter per operation keeps process-wide caches
(the scenario context, the busy-mask grid) as cold as the CLI finds them.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pickle  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

import numpy as np  # noqa: E402
from inputs import (  # noqa: E402
    PROJECTIONS,
    body_digest,
    projection_path,
    serve_inputs,
    timeline_path,
)
from spans import Tracer, install  # noqa: E402

import repro.cli  # noqa: E402


def op_cli(tracer: Tracer, spec: dict[str, Any]) -> dict[str, Any]:
    """``repro-cars <argv>`` in process, stdout captured."""
    buf = io.StringIO()
    with tracer.span(spec["root"]), contextlib.redirect_stdout(buf):
        code = repro.cli.main(spec["argv"])
    return {"code": code, "stdout": buf.getvalue()}


def op_inputs(tracer: Tracer, spec: dict[str, Any]) -> dict[str, Any]:
    """Generate the serve workloads' trace and lay out its day shards."""
    layout = {Path(d): (first, last) for d, first, last in spec["layout"]}
    with tracer.span("replay.inputs"):
        cars, rows = serve_inputs(spec["cars"], spec["days"], spec["seed"], layout)
    return {"cars": cars, "rows": rows}


def op_profile(tracer: Tracer, spec: dict[str, Any]) -> dict[str, Any]:
    """Per-kernel times through the public ``*_fused`` wrappers.

    With ``map_w1`` it first maps every shard in process, as one map worker
    does, and pickles the partials the way a pool ships them.
    """
    from repro.algorithms.timebins import StudyClock
    from repro.cdr.io import load_trace
    from repro.cdr.store import DEFAULT_CHUNK_ROWS, resolve_shards
    from repro.core import fused
    from repro.core.busy import BusySchedule
    from repro.core.mapreduce import FusedMapSpec, map_shards_fused
    from repro.core.preprocess import PreprocessConfig, preprocess_lazy
    from repro.network.load import CellLoadModel
    from repro.network.topology import build_topology
    from repro.simulate.scenarios import scenario

    trace, days = Path(spec["trace"]), spec["days"]
    config = scenario("default", n_cars=1, n_days=days)
    clock = StudyClock(n_days=days)
    topology = build_topology(config.topology)

    def schedule() -> BusySchedule:
        return BusySchedule.from_load_model(
            CellLoadModel(topology, clock, seed=config.load_seed)
        )

    partial_bytes = 0
    if spec["map_w1"]:
        map_spec = FusedMapSpec(
            shards=tuple(resolve_shards(trace)),
            clock=clock,
            config=PreprocessConfig(),
            schedule=schedule(),
            cells=topology.cells,
            min_records=2,
            chunk_rows=DEFAULT_CHUNK_ROWS,
        )
        with tracer.span("profile.map_w1"):
            partials = map_shards_fused(map_spec, workers=1)
        partial_bytes = sum(
            len(pickle.dumps(p, protocol=pickle.HIGHEST_PROTOCOL))
            for p in partials.values()
            if p is not None
        )

    pre = preprocess_lazy(load_trace(trace))
    col = pre.columnar_full()
    busy = schedule()
    busy.mask_table()
    kernels = {
        "presence": lambda: fused.daily_presence_fused(col, clock),
        "days": lambda: fused.days_on_network_fused(col, clock),
        "carriers": lambda: fused.carrier_usage_fused(col),
        "busy": lambda: fused.busy_exposure_fused(col, busy),
        "connect": lambda: fused.connect_time_analysis_fused(pre, clock),
        "handover": lambda: fused.handover_analysis_fused(pre, topology.cells),
    }
    with tracer.span("profile.kernels"):
        for name, kernel in kernels.items():
            with tracer.span(f"core.fused.kernel.{name}"):
                kernel()
    return {"partial_bytes": partial_bytes, "rows": len(col)}


def op_serve(tracer: Tracer, spec: dict[str, Any]) -> dict[str, Any]:
    """The daemon's work in process: cold start, queries, timelines, ingests.

    Mirrors ``repro-cars serve`` (build the state, refresh before serving)
    and the routes a request reaches; the first query of each key after a
    refresh is a cache miss, the rest are hits.  With ``pending``, each
    pending shard is moved into the trace and folded by one refresh, as
    ``POST /ingest`` does, followed by one read of every key.
    """
    from repro.service import ServiceConfig, ServiceState

    trace, days = Path(spec["trace"]), spec["days"]
    with tracer.span("replay.cold_start"):
        state = ServiceState(ServiceConfig(trace=str(trace), days=days))
        state.refresh()
    request = 0

    def query(root: str, kind: str, params: dict[str, str], hit: bool) -> bytes:
        nonlocal request
        request += 1
        with tracer.span(root, request=request, kind=kind, hit=hit):
            return state.query(kind, params)

    initial = {
        projection_path(kind, params): body_digest(query("replay.query", kind, params, False))
        for kind, params in PROJECTIONS
    }
    rng = np.random.default_rng([spec["seed"], 2])
    for _ in range(spec["hit_samples"]):
        kind, params = PROJECTIONS[int(rng.integers(len(PROJECTIONS)))]
        query("replay.query", kind, params, True)
    for car in spec["cars"]:
        body = query("replay.timeline", "timeline", {"car": car}, False)
        initial[timeline_path(car)] = body_digest(body)

    pending = Path(spec["pending"]) if spec.get("pending") else None
    for shard in sorted(pending.iterdir()) if pending else ():
        os.replace(shard, trace / shard.name)
        request += 1
        with tracer.span("replay.ingest", request=request) as record:
            record["partials"] = state.refresh().n_shards
        for kind, params in PROJECTIONS:
            query("replay.query", kind, params, False)
    stats = state.cache_stats()
    return {
        "initial": initial,
        "final": {
            projection_path(kind, params): body_digest(state.query(kind, params))
            for kind, params in PROJECTIONS
        },
        "cache": {"hits": stats.hits, "misses": stats.misses, "evictions": stats.evictions},
    }


OPS = {"cli": op_cli, "inputs": op_inputs, "profile": op_profile, "serve": op_serve}


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    tracer = Tracer(spec["workload"])
    install(tracer)
    imported = time.perf_counter() - STARTED
    try:
        result = OPS[spec["op"]](tracer, spec)
    finally:
        tracer.restore()
    result["import_s"] = imported
    Path(spec["spans"]).write_text(json.dumps(tracer.spans), encoding="utf-8")
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
