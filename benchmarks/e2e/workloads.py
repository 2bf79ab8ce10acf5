"""The four workloads, measured end to end against the real CLI and daemon.

Each workload has a set-up a user waits for once (``setup_s``), two
operations a user waits for repeatedly (``primary_ms``, ``secondary_ms``,
each the median) and a peak memory (``peak_rss_mb``):

============  =================  ==========================  =====================
workload      setup_s            primary_ms                  secondary_ms
============  =================  ==========================  =====================
fleet         ``generate``       ``analyze``                 ``analyze --workers 2``
season        ``generate``       ``analyze``                 ``analyze --workers 2``
serve-read    daemon cold start  projection query            ``timeline`` miss
serve-ingest  daemon cold start  projection query under      ``POST /ingest``
                                 ingest, send to reply
============  =================  ==========================  =====================

``fleet`` is row-heavy (many cars, two weeks), so the per-row layers do
most of the work; ``season`` is calendar-heavy (few cars, six weeks), so
per-cell load synthesis dominates.  A change that helps rows or the
calendar moves one and not the other.  ``serve-read`` is a closed loop of
dashboards that each wait for a reply and hit the response cache;
``serve-ingest`` appends study days back to back, one ``POST /ingest``
each, beside an open-loop reader.  The tail of every timing is reported
beside the metrics.  Every operation's output is checked.
"""

from __future__ import annotations

import http.client
import os
import re
import threading
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np
from inputs import (
    PROJECTION_PATHS,
    day_shard,
    digest,
    generated,
    json_object,
    read_plan,
    reference_responses,
    serve_inputs,
)
from loadgen import Sample, closed_loop, open_loop
from procs import Daemon, Proc, Runner, apart
from stats import median, tail

if TYPE_CHECKING:
    from repro.service import ServiceClient

WORKLOADS = ("fleet", "season", "serve-read", "serve-ingest")

#: serve-read's dashboards: two, so the load generator is one process with
#: at most two threads on the 2-CPU host the sizes are chosen for.
CLIENTS = 2

#: serve-ingest's reader, in requests per second.  An idle daemon answers a
#: read in under a millisecond, so at this rate reads alone would not queue
#: behind each other: what makes them wait is the ingest beside them.
READER_RATE = 50.0


@dataclass(frozen=True)
class Sizes:
    """Input sizes and repetition counts (chosen for a 2-CPU host)."""

    fleet_cars: int = 400
    fleet_days: int = 14
    season_cars: int = 60
    season_days: int = 45
    shard_rows: int = 25_000
    #: serve-ingest starts each daemon over days ``[0, ingest_start_day)``
    #: and appends the next ``ingests`` days, one ``POST /ingest`` each.
    ingest_start_day: int = 25
    ingests: int = 20
    #: Fewest cold starts per run: fresh ``generate`` runs, daemon spawns,
    #: or (traced) bare ``import repro.cli`` processes.
    cold_starts: int = 3
    #: Fewest ``analyze`` runs of each kind, even past ``--seconds``.  The
    #: host's speed varies from one run to the next by 20% and more, and a
    #: median of five is what the time budget of a run allows.
    min_reps: int = 5
    timeline_every: int = 40
    #: Traced runs: cache-hit queries timed in process and over HTTP.
    hit_samples: int = 2000

    def shape(self, workload: str) -> tuple[int, int]:
        """``(cars, days)`` of the workload's trace."""
        if workload == "fleet":
            return self.fleet_cars, self.fleet_days
        return self.season_cars, self.season_days


FULL = Sizes()


@dataclass
class Outcome:
    """One workload run: operations attempted and failed, and what was measured."""

    workload: str
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    #: End-to-end (or, traced, per-layer) metric -> (value, unit).
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    #: Facts beside the metrics: sample counts, percentiles used, extra layers.
    info: dict[str, object] = field(default_factory=dict)
    #: Printed report lines (stage tables, warnings).
    report: list[str] = field(default_factory=list)

    def op(self, ok: bool, problem: str) -> None:
        """Count one operation; a failed one keeps its first problems."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 8:
                self.errors.append(problem)

    def samples(self, samples: list[Sample], what: str) -> None:
        """Count each request as one operation."""
        for sample in samples:
            self.op(sample.ok, f"{what} {sample.label} request failed")

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0


def _ms(seconds: list[float]) -> list[float]:
    return [s * 1e3 for s in seconds]


def _timings(out: Outcome, slot: str, seconds: list[float], what: str) -> None:
    """Put ``<slot>_ms``, the median of ``seconds``; report it with the tail."""
    values = _ms(seconds)
    p50 = median(values)
    q, value = tail(values)
    out.put(f"{slot}_ms", p50, "ms")
    out.info[slot] = f"{what}: n={len(values)}, p50 {p50:.4f} ms, p{q:g} {value:.4f} ms"


def generate_args(cars: int, days: int, seed: int, shard_rows: int) -> list[str]:
    """``repro-cars generate`` writing a ``.cdrz`` shard directory."""
    return [
        "generate", "--scenario", "default", "--cars", str(cars), "--days", str(days),
        "--seed", str(seed), "--format", "cdrz", "--shard-rows", str(shard_rows),
    ]


RECORDS_KEPT = re.compile(r"records kept ([\d,]+)")


def records_kept(stdout: str) -> int | None:
    """The records-kept count ``analyze --workers N`` prints."""
    match = RECORDS_KEPT.search(stdout)
    return int(match.group(1).replace(",", "")) if match else None


def below_first_line(stdout: str) -> str:
    """Everything after the first line (which carries peak RSS)."""
    return stdout.split("\n", 1)[1] if "\n" in stdout else ""


def check_analyze(
    out: Outcome, runs: list[Proc], kept: int, parallel: bool
) -> None:
    """Exit 0, identical output across repetitions, and the expected row count."""
    if not runs:
        return
    first = runs[0]
    for i, proc in enumerate(runs):
        label = "analyze --workers 2" if parallel else "analyze"
        if proc.code != 0:
            out.op(False, f"{label} #{i} exited {proc.code}: {proc.stderr[-300:]}")
            continue
        if parallel:
            same = below_first_line(proc.stdout) == below_first_line(first.stdout)
            counted = records_kept(proc.stdout)
            ok = same and counted == kept
            problem = f"{label} #{i}: records kept {counted} vs {kept}, same output {same}"
        else:
            ok = bool(proc.stdout) and proc.stdout == first.stdout
            problem = f"{label} #{i} printed a different report"
        out.op(ok, problem)


# -- batch: fleet and season ------------------------------------------------


def run_batch(
    workload: str, sizes: Sizes, seed: int, seconds: float, work: Path
) -> Outcome:
    """Rounds of ``generate``, ``analyze`` and ``analyze --workers 2``.

    Each metric's samples are spread over the whole run (one of each per
    round) rather than taken back to back, so a few seconds of a slower
    host land in one sample of a metric and not in all of them.
    """
    from repro.cdr.store import write_sharded_cdrz
    from repro.core.preprocess import preprocess_lazy

    out = Outcome(workload)
    runner = Runner(work)
    cars, days = sizes.shape(workload)
    args = generate_args(cars, days, seed, sizes.shard_rows)
    dirs = [work / f"generate-{i}" for i in range(sizes.cold_starts)]
    trace = ["--trace", str(dirs[0]), "--days", str(days)]
    gens: list[Proc] = []
    serial: list[Proc] = []
    parallel: list[Proc] = []
    deadline = time.perf_counter() + seconds
    while (
        len(gens) < len(dirs)
        or len(serial) < sizes.min_reps
        or time.perf_counter() < deadline
    ):
        if len(gens) < len(dirs):
            gens.append(runner.cli(*args, "--out", str(dirs[len(gens)])))
        serial.append(runner.cli("analyze", *trace))
        parallel.append(runner.cli("analyze", *trace, "--workers", "2"))

    dataset = generated(cars, days, seed)
    library = work / "library"
    write_sharded_cdrz(library, dataset.batch.columnar(), shard_rows=sizes.shard_rows)
    kept = preprocess_lazy(dataset.batch).n_kept
    rows = len(dataset.batch)
    del dataset
    expected = digest(library)
    for i, (proc, d) in enumerate(zip(gens, dirs)):
        same = proc.code == 0 and digest(d) == expected
        out.op(same, f"generate #{i}: exit {proc.code}, shards differ from the library's")
    check_analyze(out, serial, kept, parallel=False)
    check_analyze(out, parallel, kept, parallel=True)

    out.put("setup_s", median([p.wall_s for p in gens]), "s")
    _timings(out, "primary", [p.wall_s for p in serial], "analyze")
    _timings(out, "secondary", [p.wall_s for p in parallel], "analyze --workers 2")
    out.put("peak_rss_mb", median([p.maxrss_mb for p in serial]), "MB")
    out.info.update(
        rows=rows,
        records_kept=kept,
        analyze_rows_per_s=rows / median([p.wall_s for p in serial]),
        analyze_parallel_peak_rss_mb=median([p.maxrss_mb for p in parallel]),
    )
    return out


# -- serve-read ---------------------------------------------------------------


def _fetcher(client: ServiceClient) -> Callable[[str], tuple[int, bytes]]:
    def fetch(path: str) -> tuple[int, bytes]:
        return client.request_bytes("GET", path)

    return fetch


def run_serve_read(sizes: Sizes, seed: int, seconds: float, work: Path) -> Outcome:
    """Closed loop of dashboards against three freshly started daemons."""
    from repro.service import ServiceClient

    out = Outcome("serve-read")
    runner = Runner(work)
    days = sizes.season_days
    data = work / "serve"
    cars, rows = serve_inputs(sizes.season_cars, days, seed, {data: (0, days)})
    expected = reference_responses(data, days, cars)

    def check(path: str, status: int, body: bytes) -> bool:
        return status == 200 and body == expected.get(path)

    colds: list[float] = []
    rss: list[float] = []
    samples: list[Sample] = []
    window = seconds / sizes.cold_starts
    for index in range(sizes.cold_starts):
        daemon = Daemon(runner, data, days)
        clients: list[ServiceClient] = []
        try:
            colds.append(daemon.start())
            clients = [ServiceClient("127.0.0.1", daemon.port) for _ in range(CLIENTS)]
            with apart(daemon):
                for path in PROJECTION_PATHS:
                    status, body = clients[0].request_bytes("GET", path)
                    out.op(check(path, status, body), f"warm-up {path} differs")
                plans = [
                    read_plan(
                        np.random.default_rng([seed, index, c]),
                        cars[c::CLIENTS],
                        sizes.timeline_every,
                    )
                    for c in range(CLIENTS)
                ]
                samples += closed_loop(
                    [_fetcher(client) for client in clients], plans, window, check
                )
            rss.append(daemon.vmhwm_mb())
        finally:
            for client in clients:
                client.close()
            daemon.stop()
    out.samples(samples, "serve-read")

    projection = [s.latency_s for s in samples if s.label == "projection"]
    timeline = [s.latency_s for s in samples if s.label == "timeline"]
    out.put("setup_s", median(colds), "s")
    _timings(out, "primary", projection, "projection query")
    _timings(out, "secondary", timeline, "timeline query")
    out.put("peak_rss_mb", median(rss), "MB")
    out.info.update(
        rows=rows,
        query_qps=len(samples) / seconds,
        clients=CLIENTS,
    )
    return out


# -- serve-ingest ----------------------------------------------------------


def append_days(
    client: ServiceClient, data: Path, pending: Path, days: list[int], done: threading.Event
) -> list[Sample]:
    """The writer: move each day's shard in and ``POST /ingest``, back to back.

    Sets ``done`` when it stops, so the reader beside it stops too.
    """
    samples: list[Sample] = []
    try:
        for day in days:
            os.replace(pending / day_shard(day), data / day_shard(day))
            began = time.perf_counter()
            try:
                status, body = client.request_bytes("POST", "/ingest")
            except (OSError, http.client.HTTPException):
                status, body = 0, b""
            reply = json_object(body) or {}
            ok = (
                status == 200
                and reply.get("changed") is True
                and reply.get("n_added") == 1
                and reply.get("n_shards") == day + 1
            )
            samples.append(Sample("ingest", time.perf_counter() - began, ok))
    finally:
        done.set()
    return samples


def run_serve_ingest(sizes: Sizes, seed: int, seconds: float, work: Path) -> Outcome:
    """Days appended one ``POST /ingest`` at a time beside an open-loop reader.

    Each cycle starts a fresh daemon over the first days, and a writer
    appends the rest back to back while the reader sends :data:`READER_RATE`
    requests per second; the reader stops when the writer does.  Cycles
    repeat until ``seconds`` have passed, at least ``cold_starts`` of them.
    """
    from concurrent.futures import ThreadPoolExecutor

    from repro.service import ServiceClient

    out = Outcome("serve-ingest")
    runner = Runner(work)
    days, start = sizes.season_days, sizes.ingest_start_day
    added = list(range(start, start + sizes.ingests))
    data, pending = work / "ingest", work / "pending"
    _, rows = serve_inputs(
        sizes.season_cars, days, seed, {data: (0, start), pending: (start, added[-1] + 1)}
    )

    def reader_check(path: str, status: int, body: bytes) -> bool:
        return status == 200 and json_object(body) is not None

    colds: list[float] = []
    rss: list[float] = []
    reads: list[Sample] = []
    ingests: list[Sample] = []
    finals: list[dict[str, tuple[int, bytes]]] = []
    began = time.perf_counter()
    while len(colds) < sizes.cold_starts or time.perf_counter() - began < seconds:
        for day in added:
            if (data / day_shard(day)).exists():
                os.replace(data / day_shard(day), pending / day_shard(day))
        daemon = Daemon(runner, data, days)
        try:
            colds.append(daemon.start())
            with ServiceClient("127.0.0.1", daemon.port) as reader, ServiceClient(
                "127.0.0.1", daemon.port
            ) as writing, apart(daemon), ThreadPoolExecutor(1, "e2e-writer") as pool:
                for path in PROJECTION_PATHS:
                    status, body = reader.request_bytes("GET", path)
                    out.op(reader_check(path, status, body), f"warm-up {path}")
                done = threading.Event()
                writer = pool.submit(append_days, writing, data, pending, added, done)
                reads += open_loop(
                    _fetcher(reader),
                    read_plan(np.random.default_rng([seed, 1, len(colds)]), (), 1),
                    READER_RATE,
                    lambda elapsed: done.is_set(),
                    reader_check,
                )
                ingests += writer.result()
                finals.append(
                    {path: reader.request_bytes("GET", path) for path in PROJECTION_PATHS}
                )
            rss.append(daemon.vmhwm_mb())
        finally:
            daemon.stop()
    out.samples(reads, "serve-ingest")
    out.samples(ingests, "serve-ingest")
    expected = reference_responses(data, days)
    for final in finals:
        for path, (status, body) in final.items():
            out.op(
                status == 200 and body == expected[path],
                f"after the last ingest {path} differs from a cold service",
            )

    # Each read waits for the fold in progress, so the daemon serves fewer
    # reads per second than the reader offers and the reader falls behind:
    # latency from the due time grows with the window.  The gated number is
    # the round trip from send to reply; the due-time view is printed beside.
    out.put("setup_s", median(colds), "s")
    _timings(
        out, "primary", [s.latency_s - s.late_s for s in reads],
        "projection query under ingest, send to reply",
    )
    _timings(out, "secondary", [s.latency_s for s in ingests], "POST /ingest")
    out.put("peak_rss_mb", median(rss), "MB")
    due = _ms([s.latency_s for s in reads])
    due_q, due_tail = tail(due)
    late_q, late = tail(_ms([s.late_s for s in reads]))
    out.info.update(
        rows=rows,
        cycles=len(colds),
        reads_per_s=len(reads) / sum(s.latency_s for s in ingests),
        read_from_due_ms=f"p50 {median(due):.3f}, p{due_q:g} {due_tail:.3f}",
        reader_late_ms=f"p{late_q:g} {late:.3f}",
    )
    return out


def run_untraced(
    workload: str, sizes: Sizes, seed: int, seconds: float, work: Path
) -> Outcome:
    """Measure one workload end to end."""
    if workload in ("fleet", "season"):
        return run_batch(workload, sizes, seed, seconds, work)
    if workload == "serve-read":
        return run_serve_read(sizes, seed, seconds, work)
    if workload == "serve-ingest":
        return run_serve_ingest(sizes, seed, seconds, work)
    raise ValueError(f"unknown workload {workload!r}")
