"""Multi-process map-reduce analysis over ``.cdrz`` shard directories.

The paper's dataset — 1.1 billion CDRs from a million cars over 90 days —
is embarrassingly parallel on disk: :func:`repro.cdr.store.write_sharded_cdrz`
lays a trace out as ``shard-NNNNN.cdrz`` files that together form one
globally start-sorted row stream.  :func:`fold_shards_fused` fans the
fused engine (:class:`repro.core.fused.FusedEngine`) across worker
processes, one *shard* at a time, and :func:`analyze_shards_fused` closes
the fold into the paper report:

**Map.**  Workers claim shard indices from the pool queue.  Each shard is
consumed chunk by chunk under bounded memory (one chunk of memory-mapped
pages at a time) by a fresh engine — a shard out of record order is
sorted first — and the resulting :class:`~repro.core.fused.FusedPartial`,
a pure function of that shard's bytes, is shipped back to the parent.

**Reduce.**  The parent folds the partials with
:meth:`~repro.core.fused.FusedPartial.absorb_partial` in *shard index
order*, whatever order workers finished in, and refuses shards that are
not in global start order (:class:`ShardOrderError`): the kernels weld
per-car chains across a shard boundary only forward in time.  Because
every partial depends only on its shard and the fold order is fixed, the
reduced report is bit-identical for any worker count (including
``workers=1``, which runs the same per-shard fold inline with no pool).
The parity suites in ``tests/core/test_fused_parity.py`` and
``tests/core/test_mapreduce.py`` assert this.

Timing deliberately lives in ``benchmarks/`` (library code takes no
wall-clock readings); this module reports structural stats plus peak RSS.
"""

from __future__ import annotations

import math
import multiprocessing
import sys
from collections.abc import Callable, Sequence
from dataclasses import dataclass, replace
from pathlib import Path

from repro.algorithms.timebins import StudyClock
from repro.cdr.errors import ReproError
from repro.cdr.store import DEFAULT_CHUNK_ROWS, iter_cdrz_chunks, resolve_shards
from repro.core.busy import BusySchedule
from repro.core.fused import (
    AnalysisReport,
    FusedEngine,
    FusedPartial,
    finalize_fused,
)
from repro.core.preprocess import NoUsableRecordsError, PreprocessConfig
from repro.network.cells import Cell

try:  # pragma: no cover - absent only on non-POSIX platforms
    import resource
except ImportError:  # pragma: no cover
    resource = None  # type: ignore[assignment]


class ShardOrderError(ReproError):
    """A shard starts before the last start of the shard folded before it."""


@dataclass(frozen=True)
class MapReduceStats:
    """Run facts reported alongside a shard fold."""

    n_shards: int
    n_empty_shards: int
    n_records: int
    n_ghosts_dropped: int
    workers: int
    peak_rss_bytes: int


def peak_rss_bytes() -> int:
    """Max resident set size so far, over this process and reaped children.

    ``ru_maxrss`` is KiB on Linux and bytes on macOS; returns 0 where the
    ``resource`` module is unavailable.
    """
    if resource is None:  # pragma: no cover
        return 0
    scale = 1 if sys.platform == "darwin" else 1024
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return int(max(own, children)) * scale


@dataclass(frozen=True)
class FusedMapSpec:
    """Everything a fused map worker needs for one shard.

    Shipped to workers whole (inherited through fork, pickled under
    spawn), so the optional :class:`~repro.core.busy.BusySchedule`, cell
    directory and busy-cell list must be picklable — all are plain data.
    """

    shards: tuple[Path, ...]
    clock: StudyClock
    config: PreprocessConfig
    schedule: BusySchedule | None
    cells: dict[int, Cell] | None
    min_records: int
    chunk_rows: int
    busy_cells: tuple[int, ...] | None = None


#: Per-process map spec.  Under the fork start method the parent fills it
#: before the pool starts and children inherit it for free; under spawn
#: each worker fills its own copy in :func:`_init_fused_worker`.
_FUSED_SPEC: FusedMapSpec | None = None


def _init_fused_worker(spec: FusedMapSpec) -> None:
    """Spawn-path initializer: install the pickled fused map spec."""
    global _FUSED_SPEC
    _FUSED_SPEC = spec


def map_shard_fused(spec: FusedMapSpec, index: int) -> FusedPartial | None:
    """Map one shard through the fused engine (pure in the shard bytes).

    Returns ``None`` for a shard with no chunks at all — the engine never
    binds a vocabulary, and the reducer skips it as empty.
    """
    engine = FusedEngine(
        spec.clock,
        spec.config,
        schedule=spec.schedule,
        cells=spec.cells,
        min_records=spec.min_records,
        busy_cells=spec.busy_cells,
    )
    consumed = False
    for chunk in iter_cdrz_chunks(spec.shards[index], chunk_rows=spec.chunk_rows):
        engine.consume(chunk)
        consumed = True
    if not consumed:
        return None
    return engine.export_partial()


def _map_fused_indexed(index: int) -> tuple[int, FusedPartial | None]:
    """Fused worker body: claim one shard index, return its partial."""
    spec = _FUSED_SPEC
    if spec is None:
        raise RuntimeError("fused map worker used before initialization")
    return index, map_shard_fused(spec, index)


def _map_fused_parallel(
    spec: FusedMapSpec, n_workers: int, indices: Sequence[int]
) -> dict[int, FusedPartial | None]:
    """Fan the given shard indices over a pool; collect partials by index.

    ``imap_unordered`` lets fast shards return while slow ones run —
    completion order is nondeterministic, which is why callers fold by
    index, never by arrival.
    """
    global _FUSED_SPEC
    methods = multiprocessing.get_all_start_methods()
    use_fork = "fork" in methods
    ctx = multiprocessing.get_context("fork" if use_fork else "spawn")
    initializer: Callable[[FusedMapSpec], None] | None
    initargs: tuple[FusedMapSpec, ...]
    if use_fork:
        # Children inherit the parent's spec through fork; nothing pickled.
        _FUSED_SPEC = spec
        initializer, initargs = None, ()
    else:
        initializer, initargs = _init_fused_worker, (spec,)
    indexed: dict[int, FusedPartial | None] = {}
    try:
        with ctx.Pool(
            processes=n_workers, initializer=initializer, initargs=initargs
        ) as pool:
            for index, partial in pool.imap_unordered(
                _map_fused_indexed, indices, chunksize=1
            ):
                indexed[index] = partial
    finally:
        _FUSED_SPEC = None
    return indexed


def map_shards_fused(
    spec: FusedMapSpec,
    *,
    indices: Sequence[int] | None = None,
    workers: int = 1,
) -> dict[int, FusedPartial | None]:
    """Map shard indices to fused partials with ``workers`` processes.

    The subset entry point of the fused map phase: callers that already
    hold partials for most shards — the analysis service folding one new
    day of data into cached state — pass just the missing ``indices`` and
    pay only for those sweeps.  Each partial is a pure function of its
    shard's bytes, so a subset map composes bit-identically with cached
    partials under the usual index-ordered fold.  ``indices`` defaults to
    every shard; order does not matter (the result is keyed by index).
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    wanted = list(range(len(spec.shards))) if indices is None else list(indices)
    for index in wanted:
        if not 0 <= index < len(spec.shards):
            raise ValueError(
                f"shard index {index} out of range for {len(spec.shards)} shards"
            )
    n_workers = min(workers, len(wanted))
    if n_workers <= 1:
        return {i: map_shard_fused(spec, i) for i in wanted}
    return _map_fused_parallel(spec, n_workers, wanted)


def fold_shards_fused(
    source: str | Path | Sequence[str | Path],
    clock: StudyClock,
    *,
    schedule: BusySchedule | None = None,
    cells: dict[int, Cell] | None = None,
    busy_cells: Sequence[int] | None = None,
    workers: int = 1,
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
    config: PreprocessConfig | None = None,
    min_records: int = 2,
) -> tuple[FusedPartial, MapReduceStats]:
    """Fold every shard's :class:`FusedPartial` with ``workers`` processes.

    ``source`` is anything :func:`repro.cdr.store.resolve_shards` accepts —
    a shard directory, one ``.cdrz`` file, or an explicit path list (kept
    in the given order, which must be global start order).  Each shard runs
    through one :class:`~repro.core.fused.FusedEngine` (``schedule``,
    ``cells`` and ``busy_cells`` switch on its optional kernels), and the
    parent folds the partials in *shard index order*: bit-identical at any
    worker count and chunk size.  Empty shards fold as no-ops and are
    counted in the stats.  Raises :class:`ShardOrderError` when a shard's
    first kept start falls before the last kept start of the shard before
    it, and :class:`~repro.core.preprocess.NoUsableRecordsError` when no
    record is kept at all (no rows, or ghosts only).
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    shards = tuple(resolve_shards(source))
    spec = FusedMapSpec(
        shards=shards,
        clock=clock,
        config=config or PreprocessConfig(),
        schedule=schedule,
        cells=cells,
        min_records=min_records,
        chunk_rows=chunk_rows,
        busy_cells=None if busy_cells is None else tuple(busy_cells),
    )
    n_workers = min(workers, len(shards))
    indexed = map_shards_fused(spec, workers=n_workers)

    merged: FusedPartial | None = None
    n_empty = 0
    last_start, last_shard = -math.inf, ""
    for index, shard in enumerate(shards):
        partial = indexed[index]
        if partial is None:
            n_empty += 1
            continue
        if partial.n_records == 0 and partial.n_ghosts == 0:
            n_empty += 1
        if partial.first_start < last_start:
            raise ShardOrderError(
                f"{shard} starts at {partial.first_start:.3f} s, before the "
                f"last start of {last_shard} at {last_start:.3f} s; shards "
                "must be in global start order"
            )
        if partial.n_records:
            last_start, last_shard = partial.last_start, str(shard)
        if merged is None:
            merged = partial
        else:
            merged.absorb_partial(partial)
    if merged is None or merged.n_records == 0:
        raise NoUsableRecordsError(merged.n_ghosts if merged is not None else 0)
    stats = MapReduceStats(
        n_shards=len(shards),
        n_empty_shards=n_empty,
        n_records=merged.n_records,
        n_ghosts_dropped=merged.n_ghosts,
        workers=n_workers,
        peak_rss_bytes=peak_rss_bytes(),
    )
    return merged, stats


def analyze_shards_fused(
    source: str | Path | Sequence[str | Path],
    clock: StudyClock,
    *,
    schedule: BusySchedule | None = None,
    cells: dict[int, Cell] | None = None,
    busy_cells: Sequence[int] | None = None,
    workers: int = 1,
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
    config: PreprocessConfig | None = None,
    min_records: int = 2,
) -> tuple[AnalysisReport, MapReduceStats]:
    """Every Section 4 analysis over shards: the fold, finalized.

    Everything but the per-car busy tallies and the per-carrier and
    duration sums reduces *exactly* — bit-identical to one serial engine
    and to the record-based references — and those merge to reassociation
    precision.  ``exposure``/``segmentation``, ``handovers`` and
    ``clusters`` are ``None`` without ``schedule``, ``cells`` and
    ``busy_cells``.
    """
    partial, stats = fold_shards_fused(
        source,
        clock,
        schedule=schedule,
        cells=cells,
        busy_cells=busy_cells,
        workers=workers,
        chunk_rows=chunk_rows,
        config=config,
        min_records=min_records,
    )
    report = finalize_fused(partial, clock)
    return report, replace(stats, peak_rss_bytes=peak_rss_bytes())
