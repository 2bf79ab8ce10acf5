"""Long-lived analysis state behind the query daemon.

One :class:`ServiceState` owns everything a batch CLI run rebuilds from
scratch on every invocation — the scenario's topology, load model and
:class:`~repro.core.busy.BusySchedule`, the memory-mapped shard batches,
and, crucially, one pickled :class:`~repro.core.fused.FusedPartial` per
shard.  Queries are answered from the folded partial and the report
finalized from it, both only recomputed when the shard manifest changes,
and even then by *folding*:
a refresh sweeps only shards the service has never seen (dispatched
through :func:`repro.core.mapreduce.map_shards_fused` worker processes)
and folds partials in shard-index order through the one shard fold,
:func:`repro.core.mapreduce.fold_fused_partials`.  The state also holds
the folded partial of its current scan: when a refresh only appends
shards after the last one, the fold absorbs just the new partials into
it, in place; any removal, rewrite or out-of-order insert re-folds every
cached partial.  The fold checks shard start order before it absorbs
anything, and a refresh commits its partials, scan, fold and cache only
after the fold succeeds, so a refused ingest changes nothing.  Because
every partial is a pure function of its shard's bytes and the fold order
is canonical, the refreshed report is bit-identical to a cold full run no
matter how many ingests it took to get there — the parity suite in
``tests/service/`` asserts exactly that.

Scenario context (topology + load model + schedule) is shared process-wide
per ``(scenario, days)`` key: the busy-mask grid, built whole before the
first refresh, is the largest part of a cold start, and the masks are a
pure function of the scenario, so two states over the same scenario must
not pay for it twice.
"""

from __future__ import annotations

import json
import pickle
import threading
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from repro.algorithms.timebins import StudyClock
from repro.cdr.store import DEFAULT_CHUNK_ROWS, read_batch_cdrz
from repro.core.busy import BusySchedule
from repro.core.fused import (
    AnalysisReport,
    CellDirectory,
    FusedPartial,
    finalize_fused,
)
from repro.core.mapreduce import (
    FusedMapSpec,
    fold_fused_partials,
    map_shards_fused,
)
from repro.core.preprocess import NoUsableRecordsError, PreprocessConfig
from repro.cpus import available_cpus
from repro.network.load import CellLoadModel
from repro.network.topology import NetworkTopology, build_topology
from repro.service.cache import CacheStats, ResultCache, fingerprint, result_key
from repro.service.ingest import (
    ShardEntry,
    ShardKey,
    diff_manifest,
    scan_shards,
    trace_fingerprint,
)
from repro.simulate.scenarios import scenario

if TYPE_CHECKING:
    from repro.cdr.columnar import ColumnarCDRBatch


@dataclass(frozen=True)
class ServiceConfig:
    """Everything the daemon needs to serve one trace.

    ``workers`` follows the CLI convention shared by ``analyze`` and
    ``twin``: results are identical at any count, ``1`` sweeps shards in
    process, ``0`` uses one per CPU this process may run on.  Only fields
    that change *results* enter the config fingerprint — worker count,
    chunk size and cache budget affect speed, never bytes.
    """

    trace: str
    scenario: str = "default"
    days: int = 28
    workers: int = 1
    chunk_rows: int = DEFAULT_CHUNK_ROWS
    min_records: int = 2
    cache_bytes: int = 64 * 1024 * 1024

    def __post_init__(self) -> None:
        if self.days < 1:
            raise ValueError(f"days must be >= 1, got {self.days}")
        if self.workers < 0:
            raise ValueError(f"workers must be >= 0, got {self.workers}")

    def result_fingerprint(self) -> str:
        """Digest over the fields that determine response bytes."""
        payload = json.dumps(
            {
                "days": self.days,
                "min_records": self.min_records,
                "scenario": self.scenario,
            },
            sort_keys=True,
        )
        return fingerprint(payload)


@dataclass(frozen=True)
class IngestSummary:
    """What one refresh did, reported by ``POST /ingest``."""

    changed: bool
    n_shards: int
    n_added: int
    n_removed: int
    n_records: int
    n_ghosts: int
    trace_fingerprint: str


@dataclass(frozen=True)
class ScenarioContext:
    """Immutable per-(scenario, days) analysis inputs, shared across states."""

    clock: StudyClock
    topology: NetworkTopology
    load_model: CellLoadModel
    schedule: BusySchedule
    #: The topology's cells as every shard's handover kernel reads them.
    cells: CellDirectory


#: Process-wide scenario context registry; see :func:`scenario_context`.
_CONTEXTS: dict[tuple[str, int], ScenarioContext] = {}
_CONTEXTS_LOCK = threading.Lock()


def scenario_context(scenario_name: str, days: int) -> ScenarioContext:
    """The shared context for a ``(scenario, days)`` key, built once.

    The :class:`BusySchedule`'s whole calendar is built here, before the
    first refresh and so before any map pool forks: children inherit the
    grid instead of each building their shards' pairs, an ingest builds no
    masks, and request threads only ever read the schedule.  The grid and
    the cell directory survive for the process lifetime, so every service
    query, ingest and state over the same key reuses them.
    """
    key = (scenario_name, days)
    with _CONTEXTS_LOCK:
        context = _CONTEXTS.get(key)
        if context is None:
            config = scenario(scenario_name, n_cars=1, n_days=days)
            clock = StudyClock(n_days=days)
            topology = build_topology(config.topology)
            load_model = CellLoadModel(topology, clock, seed=config.load_seed)
            schedule = BusySchedule.from_load_model(load_model)
            schedule.mask_table()
            context = ScenarioContext(
                clock=clock,
                topology=topology,
                load_model=load_model,
                schedule=schedule,
                cells=CellDirectory.of(topology.cells),
            )
            _CONTEXTS[key] = context
        return context


def canonical_json(payload: Mapping[str, object]) -> bytes:
    """The one JSON encoding every response uses: sorted keys, no spaces.

    Identical payloads therefore serialize to identical bytes — the
    property the concurrency tests pin down — and ``repr``-exact float
    encoding keeps responses bit-faithful to the underlying doubles.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode(
        "utf-8"
    )


def canonical_params(params: Mapping[str, str]) -> str:
    """Sorted ``k=v`` rendering of query parameters, for cache keys."""
    return "&".join(f"{k}={params[k]}" for k in sorted(params))


class ServiceState:
    """The daemon's mutable core: partial cache, report, result cache.

    Thread model: queries run on executor threads while the event loop
    handles sockets.  One re-entrant lock serializes every mutation
    (refresh, fold, report access) and the compute side of cache misses;
    cache hits never take it.  Concurrent identical queries are therefore
    single-flight — the first computes and caches, the rest hit the cache
    — and all of them return byte-identical JSON either way, because the
    encoder is canonical.
    """

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self.context = scenario_context(config.scenario, config.days)
        self.cache = ResultCache(config.cache_bytes)
        self._workers = config.workers if config.workers > 0 else available_cpus()
        self._config_fp = config.result_fingerprint()
        self._partials: dict[ShardKey, bytes | None] = {}
        self._scan: list[ShardEntry] = []
        #: Fold of every partial in ``_scan`` (``None`` when all are empty).
        self._folded: FusedPartial | None = None
        #: The last shard of ``_scan`` that kept a row: what the fold's
        #: last start belongs to.
        self._last_kept = ""
        #: Its report (``None`` while the fold keeps no row).
        self._report: AnalysisReport | None = None
        self._trace_fp = ""
        self._batches: dict[ShardKey, ColumnarCDRBatch] = {}
        self._lock = threading.RLock()

    # -- ingest ------------------------------------------------------------

    def refresh(self) -> IngestSummary:
        """Rescan the trace, sweep only unseen shards, fold, re-finalize.

        A no-op scan (nothing added or removed) returns immediately and
        keeps every cached response valid.  Otherwise the result cache is
        cleared wholesale: the trace fingerprint rotates, so old entries
        could never be served again — clearing just returns their bytes.
        A shard that cannot be read, or that starts before the last start
        folded ahead of it, raises before anything is committed: the state
        keeps its previous fold, and the next refresh tries again.
        """
        with self._lock:
            scan = scan_shards(self.config.trace)
            diff = diff_manifest(self._partials.keys(), scan)
            if not diff.changed and self._scan:
                return self._summary(changed=False, n_added=0, n_removed=0)
            partials = {**self._partials, **self._map(scan, diff.added)}
            inputs = self._fold_inputs(scan, partials)
            last_kept = next(
                (name for name, p in reversed(inputs) if p is not None and p.n_records),
                "",
            )
            folded = fold_fused_partials(inputs)
            report = (
                finalize_fused(folded, self.context.clock)
                if folded is not None and folded.n_records
                else None
            )
            self._partials = {entry.key: partials[entry.key] for entry in scan}
            for key in diff.removed:
                self._batches.pop(key, None)
            self._scan = scan
            self._folded = folded
            self._last_kept = last_kept
            self._report = report
            self._trace_fp = trace_fingerprint(scan)
            self.cache.clear()
            return self._summary(
                changed=True,
                n_added=len(diff.added),
                n_removed=len(diff.removed),
            )

    def _map(
        self, scan: list[ShardEntry], added: Sequence[tuple[int, ShardEntry]]
    ) -> dict[ShardKey, bytes | None]:
        """Sweep the added shards; their pickled partials by identity."""
        if not added:
            return {}
        spec = FusedMapSpec(
            shards=tuple(Path(entry.path) for entry in scan),
            clock=self.context.clock,
            config=PreprocessConfig(),
            schedule=self.context.schedule,
            cells=self.context.cells,
            min_records=self.config.min_records,
            chunk_rows=self.config.chunk_rows,
        )
        mapped = map_shards_fused(
            spec, indices=[index for index, _ in added], workers=self._workers
        )
        return {
            entry.key: None
            if mapped[index] is None
            else pickle.dumps(mapped[index], protocol=pickle.HIGHEST_PROTOCOL)
            for index, entry in added
        }

    def _fold_inputs(
        self, scan: list[ShardEntry], partials: Mapping[ShardKey, bytes | None]
    ) -> list[tuple[str, FusedPartial | None]]:
        """``(shard, partial)`` pairs for the one fold, in shard-index order.

        When ``scan`` extends the previous scan at its end, the held fold
        stands for the previous scan, under the name of its last shard that
        kept a row, and only the new partials are unpickled after it;
        otherwise every partial is.  Either way the fold order is
        shard-index order, so the result, and a refusal's wording, are the
        same.
        """
        old = self._scan
        appended = bool(old) and [e.key for e in scan[: len(old)]] == [e.key for e in old]
        inputs: list[tuple[str, FusedPartial | None]] = []
        if appended:
            inputs.append((self._last_kept, self._folded))
        for entry in scan[len(old) :] if appended else scan:
            blob = partials[entry.key]
            inputs.append((entry.path, None if blob is None else pickle.loads(blob)))
        return inputs

    def _summary(self, changed: bool, n_added: int, n_removed: int) -> IngestSummary:
        return IngestSummary(
            changed=changed,
            n_shards=len(self._scan),
            n_added=n_added,
            n_removed=n_removed,
            n_records=self.n_records,
            n_ghosts=self.n_ghosts,
            trace_fingerprint=self._trace_fp,
        )

    # -- report access -----------------------------------------------------

    def report(self) -> AnalysisReport:
        """The current fused report, refreshing on first use.

        Raises :class:`~repro.core.preprocess.NoUsableRecordsError` while
        the fold keeps no row (an empty trace or ghosts only) — every
        Section 4 statistic would be undefined, and the routes layer turns
        this into an explicit HTTP error instead of a NaN-filled payload.
        """
        with self._lock:
            if not self._scan:
                self.refresh()
            if self._report is None:
                raise NoUsableRecordsError(self.n_ghosts)
            return self._report

    def partial(self) -> FusedPartial:
        """The held fold of every shard's partial, refreshing on first use.

        The report is finalized from it; the ``twin`` route reads its
        calibration statistics off it without another sweep.  Raises
        like :meth:`report`.  Callers must not mutate it.
        """
        with self._lock:
            if not self._scan:
                self.refresh()
            if self._folded is None or self._report is None:
                raise NoUsableRecordsError(self.n_ghosts)
            return self._folded

    @property
    def n_records(self) -> int:
        """Rows kept by the current fold (ghosts excluded)."""
        return 0 if self._folded is None else self._folded.n_records

    @property
    def n_ghosts(self) -> int:
        """Ghost rows dropped by the current fold."""
        return 0 if self._folded is None else self._folded.n_ghosts

    @property
    def n_shards(self) -> int:
        """Shards in the current manifest."""
        return len(self._scan)

    # -- queries -----------------------------------------------------------

    def query(self, kind: str, params: Mapping[str, str]) -> bytes:
        """One analysis response as canonical JSON bytes, cached by key.

        ``KeyError`` propagates for an unknown ``kind`` or car id (the app
        maps it to 404); ``NoUsableRecordsError`` for a trace without a
        kept row (mapped to 409).
        """
        from repro.service.routes import ANALYSIS_ROUTES

        route = ANALYSIS_ROUTES[kind]
        with self._lock:
            if not self._scan:
                self.refresh()
            key = result_key(
                kind, canonical_params(params), self._trace_fp, self._config_fp
            )
        cached = self.cache.get(key)
        if cached is not None:
            return cached
        with self._lock:
            cached = self.cache.peek(key)
            if cached is not None:
                return cached
            payload = route.build(self, params)
            data = canonical_json(payload)
            self.cache.put(key, data)
            return data

    def shard_batch(self, entry: ShardEntry) -> ColumnarCDRBatch:
        """The shard's columnar batch, memory-mapped once per lifetime."""
        with self._lock:
            batch = self._batches.get(entry.key)
            if batch is None:
                batch = read_batch_cdrz(entry.path)
                self._batches[entry.key] = batch
            return batch

    def manifest(self) -> list[ShardEntry]:
        """The current scan, in fold order."""
        with self._lock:
            return list(self._scan)

    def cache_stats(self) -> CacheStats:
        """Result-cache counters for ``/stats``."""
        return self.cache.stats()

    @property
    def trace_fingerprint(self) -> str:
        """Fingerprint of the manifest the current results describe."""
        return self._trace_fp

    @property
    def config_fingerprint(self) -> str:
        """Fingerprint of the result-determining configuration."""
        return self._config_fp
