"""The traced run: per-layer metrics and stage tables for one workload.

Each operation a user waits for is run once untraced (the real CLI or
daemon) and once replayed with every layer call traced (:mod:`replay`, one
fresh interpreter per operation).  Outputs of the two must agree.  The
replay's spans give:

* the per-layer metrics of ``BENCHMARK.json`` (every workload exercises
  every one of them);
* a self-time table per end-to-end metric whose rows sum to the replay's
  wall time, including the layers only some workloads reach (``service.*``
  on the serve workloads; record loading, clustering and report rendering
  on the batch ones);
* the replay's wall beside the untraced wall.  Their gap should be the
  ``import repro.cli`` the replay does not time; a larger gap means the
  replay has drifted from what the CLI does.
"""

from __future__ import annotations

import itertools
import json
import re
import time
from collections.abc import Iterable
from pathlib import Path
from typing import Any

from inputs import (
    PROJECTION_PATHS,
    body_digest,
    dir_bytes,
    digest,
    reference_responses,
    timeline_path,
)
from procs import Daemon, Runner
from spans import Span, children, duration, inclusive, matching, self_time, stage_table
from stats import median
from workloads import (
    Outcome,
    Sizes,
    below_first_line,
    generate_args,
    records_kept,
)

HERE = Path(__file__).resolve().parent

#: Per-layer metric -> unit, in the order ``BENCHMARK.json`` lists them.
LAYER_UNITS = {
    "cli.import_s": "s",
    "simulate.build_substrates_s": "s",
    "simulate.build_population_s": "s",
    "simulate.records_for_cars_s": "s",
    "simulate.finalize_dataset_s": "s",
    "simulate.rows_per_s": "rows/s",
    "cdr.columnar_s": "s",
    "cdr.write_shards_s": "s",
    "cdr.bytes_written": "B",
    "cdr.read_chunks_s": "s",
    "network.topology_s": "s",
    "network.load_model_s": "s",
    "core.busy.mask_table_s": "s",
    "core.busy.cell_days_per_s": "1/s",
    "core.fused.consume_s": "s",
    "core.fused.finalize_s": "s",
    "core.fused.rows_per_s": "rows/s",
    **{
        f"core.fused.kernel.{k}_s": "s"
        for k in ("presence", "days", "carriers", "busy", "connect", "handover")
    },
    "core.mapreduce.map_w1_s": "s",
    "core.mapreduce.fold_s": "s",
    "core.mapreduce.partial_bytes": "B",
    "bench.trace_coverage": "fraction",
}

_BATCH_OPS = {
    "setup_s": ("replay.generate", "generate"),
    "primary_ms": ("replay.analyze", "analyze"),
    "secondary_ms": ("replay.analyze_w2", "analyze --workers 2"),
}
#: Per workload: end-to-end metric -> (replayed root span, what it is).
OPS = {
    "fleet": _BATCH_OPS,
    "season": _BATCH_OPS,
    "serve-read": {
        "setup_s": ("replay.cold_start", "daemon cold start"),
        "primary_ms": ("replay.query", "projection query, cache hit"),
        "secondary_ms": ("replay.timeline", "timeline query"),
    },
    "serve-ingest": {
        "setup_s": ("replay.cold_start", "daemon cold start"),
        "primary_ms": ("replay.query", "projection query, hit or miss"),
        "secondary_ms": ("replay.ingest", "POST /ingest"),
    },
}

WROTE = re.compile(r"wrote ([\d,]+) records")


class Replays:
    """Runs replay children and merges their spans into one log."""

    def __init__(self, runner: Runner, out: Outcome) -> None:
        self.runner = runner
        self.out = out
        self.spans: list[Span] = []
        self._count = itertools.count()

    def __call__(self, op: str, **fields: Any) -> dict[str, Any]:
        """Run one replay; returns its result (empty when it failed)."""
        n = next(self._count)
        work = self.runner.work
        spec = {
            "op": op,
            "workload": self.out.workload,
            "spans": str(work / f"spans-{n}.json"),
            "result": str(work / f"result-{n}.json"),
            **fields,
        }
        spec_path = work / f"spec-{n}.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        proc = self.runner.python([str(HERE / "replay.py"), str(spec_path)])
        self.out.op(proc.code == 0, f"replay {op} exited {proc.code}: {proc.stderr[-400:]}")
        if proc.code != 0:
            return {}
        offset = len(self.spans)
        for span in json.loads(Path(spec["spans"]).read_text(encoding="utf-8")):
            span["id"] += offset
            if span["parent"] is not None:
                span["parent"] += offset
            self.spans.append(span)
        result: dict[str, Any] = json.loads(Path(spec["result"]).read_text(encoding="utf-8"))
        return result


# -- batch ----------------------------------------------------------------------


def trace_batch(
    workload: str, sizes: Sizes, seed: int, runner: Runner, replays: Replays
) -> dict[str, Any]:
    """Untraced and replayed ``generate``, ``analyze``, ``analyze --workers 2``."""
    out = replays.out
    work = runner.work
    cars, days = sizes.shape(workload)
    args = generate_args(cars, days, seed, sizes.shard_rows)
    shards, replayed = work / "generate", work / "generate-replay"
    gen = runner.cli(*args, "--out", str(shards))
    out.op(gen.code == 0, f"generate exited {gen.code}: {gen.stderr[-300:]}")
    result = replays("cli", root="replay.generate", argv=[*args, "--out", str(replayed)])
    untraced = {"replay.generate": (gen.wall_s, result.get("import_s", 0.0))}
    same = bool(result) and replayed.is_dir() and digest(replayed) == digest(shards)
    out.op(same, "replayed generate wrote different shards")
    match = WROTE.search(result.get("stdout", ""))
    rows = int(match.group(1).replace(",", "")) if match else 0

    trace = ["analyze", "--trace", str(shards), "--days", str(days)]
    serial = runner.cli(*trace)
    result = replays("cli", root="replay.analyze", argv=trace)
    untraced["replay.analyze"] = (serial.wall_s, result.get("import_s", 0.0))
    out.op(
        serial.code == 0 and result.get("stdout") == serial.stdout,
        "replayed analyze printed a different report",
    )
    kept = [s.get("kept") for s in replays.spans if s["name"] == "core.preprocess"]
    parallel = runner.cli(*trace, "--workers", "2")
    result = replays("cli", root="replay.analyze_w2", argv=[*trace, "--workers", "2"])
    untraced["replay.analyze_w2"] = (parallel.wall_s, result.get("import_s", 0.0))
    out.op(
        parallel.code == 0
        and bool(kept)
        and records_kept(parallel.stdout) == kept[-1]
        and below_first_line(result.get("stdout", "")) == below_first_line(parallel.stdout),
        "analyze --workers 2 disagrees with its replay or the fused row count",
    )
    profile = replays("profile", trace=str(shards), days=days, map_w1=True)
    return {
        "rows": rows,
        "bytes_written": dir_bytes(replayed),
        "partial_bytes": profile.get("partial_bytes", 0),
        "untraced": untraced,
    }


# -- serve ------------------------------------------------------------------------


def _daemon_reads(
    runner: Runner, data: Path, days: int, paths: Iterable[str], hits: int
) -> tuple[float, dict[str, str], list[float]]:
    """One untraced daemon: cold start, response digests, cache-hit latencies."""
    from repro.service import ServiceClient

    daemon = Daemon(runner, data, days)
    try:
        cold = daemon.start()
        with ServiceClient("127.0.0.1", daemon.port) as client:
            bodies = {}
            for path in paths:
                status, body = client.request_bytes("GET", path)
                bodies[path] = body_digest(body) if status == 200 else f"HTTP {status}"
            latencies = []
            for i in range(hits):
                path = PROJECTION_PATHS[i % len(PROJECTION_PATHS)]
                start = time.perf_counter()
                client.request_bytes("GET", path)
                latencies.append(time.perf_counter() - start)
    finally:
        daemon.stop()
    return cold, bodies, latencies


def trace_serve(
    workload: str, sizes: Sizes, seed: int, runner: Runner, replays: Replays
) -> dict[str, Any]:
    """Replayed inputs and daemon work beside one untraced daemon."""
    out = replays.out
    work = runner.work
    days, start = sizes.season_days, sizes.ingest_start_day
    data, pending = work / "serve", work / "pending"
    ingest = workload == "serve-ingest"
    layout = [[str(data), 0, days]]
    if ingest:
        layout = [[str(data), 0, start], [str(pending), start, start + sizes.ingests]]
    made = replays("inputs", cars=sizes.season_cars, days=days, seed=seed, layout=layout)
    cars = [] if ingest else made.get("cars", [])
    paths = [*PROJECTION_PATHS, *(timeline_path(car) for car in cars)]
    written = dir_bytes(data, pending) if ingest else dir_bytes(data)
    cold, bodies, http = _daemon_reads(runner, data, days, paths, sizes.hit_samples)
    result = replays(
        "serve",
        trace=str(data),
        days=days,
        cars=cars,
        pending=str(pending) if ingest else None,
        hit_samples=sizes.hit_samples,
        seed=seed,
    )
    initial = result.get("initial", {})
    for path in paths:
        out.op(initial.get(path) == bodies[path], f"replayed {path} differs from the daemon")
    if ingest:
        expected = reference_responses(data, days)
        final = result.get("final", {})
        for path, body in expected.items():
            out.op(final.get(path) == body_digest(body), f"after ingests {path} differs from a cold service")
    replays("profile", trace=str(data), days=days, map_w1=False)
    return {
        "rows": made.get("rows", 0),
        "bytes_written": written,
        "http_hit_s": median(http),
        "cache": result.get("cache", {}),
        "untraced": {"replay.cold_start": (cold, result.get("import_s", 0.0))},
    }


# -- analysis -------------------------------------------------------------------


def _roots(spans: list[Span], *names: str) -> list[Span]:
    return [span for span in spans if span["parent"] is None and span["name"] in names]


def layer_metrics(
    workload: str, spans: list[Span], facts: dict[str, Any], import_s: float
) -> tuple[dict[str, float], dict[str, float]]:
    """``(metrics, extras)``: the ``BENCHMARK.json`` layers and the rest."""
    tree = children(spans)
    batch = workload in ("fleet", "season")
    user = _roots(spans, *(root for root, _ in OPS[workload].values()))
    made = _roots(spans, "replay.generate" if batch else "replay.inputs")
    mapped = _roots(spans, "profile.map_w1" if batch else "replay.cold_start")

    def incl(roots: list[Span], *names: str, **where: Any) -> float:
        return inclusive(
            roots, tree, names, lambda s: all(s.get(k) == v for k, v in where.items())
        )

    simulate = ("build_substrates", "build_population", "records_for_cars", "finalize_dataset")
    m: dict[str, float] = {"cli.import_s": import_s}
    for part in simulate:
        m[f"simulate.{part}_s"] = incl(made, f"simulate.{part}")
    m["simulate.rows_per_s"] = facts["rows"] / incl(made, *(f"simulate.{p}" for p in simulate))
    m["cdr.columnar_s"] = incl(made, "cdr.columnar")
    m["cdr.write_shards_s"] = incl(made, "cdr.write_shards")
    m["cdr.bytes_written"] = float(facts["bytes_written"])
    m["cdr.read_chunks_s"] = incl(user, "cdr.read_chunks")
    m["network.topology_s"] = incl(user, "network.topology")
    m["network.load_model_s"] = incl(user, "network.load_model")
    masks = matching(user, tree, "core.busy.mask_table")
    m["core.busy.mask_table_s"] = sum(duration(s) for s in masks)
    built = max(masks, key=duration)
    m["core.busy.cell_days_per_s"] = built["cells"] * built["bins"] / 96 / duration(built)
    consumes = matching(user, tree, "core.fused.consume")
    m["core.fused.consume_s"] = sum(self_time(s, tree) for s in consumes)
    m["core.fused.finalize_s"] = incl(user, "core.fused.finalize")
    m["core.fused.rows_per_s"] = sum(s["rows"] for s in consumes) / m["core.fused.consume_s"]
    for root in _roots(spans, "profile.kernels"):
        for span in tree.get(root["id"], ()):
            m[f"{span['name']}_s"] = duration(span)
    m["core.mapreduce.map_w1_s"] = incl(mapped, "core.mapreduce.map", workers=1)
    m["core.mapreduce.fold_s"] = incl(user, "core.mapreduce.fold")
    m["core.mapreduce.partial_bytes"] = float(
        facts["partial_bytes"]
        if batch
        else sum(s["bytes"] for s in matching(user, tree, "service.pickle"))
    )
    covered = sum(duration(r) - self_time(r, tree) for r in user)
    m["bench.trace_coverage"] = covered / sum(duration(r) for r in user)

    if batch:
        analyze = _roots(spans, "replay.analyze")
        extras = {
            f"{name}_s": incl(analyze, name)
            for name in ("cdr.load_trace", "cdr.to_batch", "core.preprocess",
                         "core.records", "core.clustering", "core.report")
        }
        extras["core.mapreduce.map_w2_s"] = incl(
            _roots(spans, "replay.analyze_w2"), "core.mapreduce.map", workers=2
        )
        return m, extras
    cold = _roots(spans, "replay.cold_start")
    queries = _roots(spans, "replay.query")
    hit = median([duration(s) for s in queries if s["hit"]])
    cache = facts["cache"]
    extras = {
        "service.scenario_context_s": incl(cold, "service.scenario_context"),
        "service.refresh_cold_s": incl(cold, "service.refresh"),
        "service.scan_s": incl(user, "service.scan"),
        "service.query_hit_us": hit * 1e6,
        "service.http_hit_us": (facts["http_hit_s"] - hit) * 1e6,
        "service.query_miss_ms": median([duration(s) for s in queries if not s["hit"]]) * 1e3,
        "service.cache.hit_ratio": cache["hits"] / (cache["hits"] + cache["misses"]),
        "service.cache.evictions": float(cache["evictions"]),
    }
    timelines = _roots(spans, "replay.timeline")
    if timelines:
        extras["service.timeline_ms"] = median([duration(s) for s in timelines]) * 1e3
    return m, extras


def _table(title: str, roots: list[Span], tree: dict[Any, list[Span]]) -> list[str]:
    wall, rows = stage_table(roots, tree)
    lines = [f"  {title}: {len(roots)} op(s), replay wall {wall:.4f} s"]
    for name, seconds in rows:
        if seconds >= max(wall * 0.001, 1e-6):
            lines.append(f"    {name:<30} {seconds:10.4f} s  {seconds / wall:6.1%}")
    return lines


def report_lines(
    workload: str, spans: list[Span], facts: dict[str, Any], import_s: float
) -> list[str]:
    """Stage tables per end-to-end metric, the drift check and the ingest series."""
    tree = children(spans)
    lines = []
    for metric, (root, what) in OPS[workload].items():
        roots = _roots(spans, root)
        if workload == "serve-read" and metric == "primary_ms":
            roots = [r for r in roots if r["hit"]]
        lines += _table(f"{metric} <- {what}", roots, tree)
    lines.append(
        f"  replay vs untraced wall (cli.import_s = {import_s:.3f} s; the gap "
        "should be the imports the replay does before timing):"
    )
    for root, (untraced, imported) in facts["untraced"].items():
        replayed = sum(duration(r) for r in _roots(spans, root))
        gap = untraced - replayed
        flag = "  WARNING: replay drifted from the CLI" if gap > 1.15 * max(import_s, imported) else ""
        lines.append(
            f"    {root:<20} replay {replayed:8.3f} s  untraced {untraced:8.3f} s  "
            f"gap {gap:+.3f} s (replay imports {imported:.3f} s){flag}"
        )
    ingests = _roots(spans, "replay.ingest")
    if ingests:
        lines.append("  service.ingest per POST /ingest (partials held: map, unpickle, fold, finalize s):")
    for span in ingests:
        one = [span]
        parts = [
            inclusive(one, tree, [name])
            for name in ("core.mapreduce.map", "service.unpickle", "core.mapreduce.fold",
                         "core.fused.finalize")
        ]
        lines.append(f"    {span['partials']:4d}: " + "  ".join(f"{p:.4f}" for p in parts))
    return lines


def run_traced(
    workload: str, sizes: Sizes, seed: int, work: Path, spans_out: Path
) -> Outcome:
    """One traced run: per-layer metrics, stage tables, drift check."""
    out = Outcome(workload)
    runner = Runner(work)
    imports = [runner.python(["-c", "import repro.cli"]) for _ in range(sizes.cold_starts)]
    for proc in imports:
        out.op(proc.code == 0, f"import repro.cli exited {proc.code}")
    import_s = median([proc.wall_s for proc in imports])
    replays = Replays(runner, out)
    trace = trace_batch if workload in ("fleet", "season") else trace_serve
    facts = trace(workload, sizes, seed, runner, replays)
    spans = replays.spans
    spans_out.parent.mkdir(parents=True, exist_ok=True)
    spans_out.write_text(json.dumps(spans), encoding="utf-8")
    if out.failed:
        return out
    metrics, extras = layer_metrics(workload, spans, facts, import_s)
    for name, unit in LAYER_UNITS.items():
        out.put(name, metrics[name], unit)
    out.info.update(extras)
    out.report = report_lines(workload, spans, facts, import_s)
    return out
