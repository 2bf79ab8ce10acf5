"""Spans around every call into a layer's public functions, and their tables.

The benchmark times each layer from outside: :func:`install` replaces the
public functions and methods the CLI and the daemon call (at the module
where the caller looks them up) with wrappers that record a span — name,
start, end, parent, workload and optional attributes such as a request id.
Nothing under ``src/`` changes.  Spans stay in memory and are written once,
when the traced process ends.

A span's *self time* is its duration minus the time its child spans cover;
the self times of everything under one replayed operation sum to that
operation's wall time, which is what the stage tables print.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
import types
from collections import defaultdict
from collections.abc import Callable, Iterable, Iterator, Mapping
from contextlib import contextmanager
from typing import Any

Span = dict[str, Any]
Attrs = Callable[[tuple[Any, ...], dict[str, Any], Any], dict[str, Any]]


class Tracer:
    """In-memory span recorder; spans nest per thread."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list[Callable[[], None]] = []

    def _stack(self) -> list[int]:
        stack: list[int] | None = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        """Record ``name`` around the block; yields the span for attributes."""
        stack = self._stack()
        record: Span = {
            "name": name,
            "parent": stack[-1] if stack else None,
            "workload": self.workload,
            "start": time.perf_counter(),
            "end": None,
            **attrs,
        }
        with self._lock:
            record["id"] = len(self.spans)
            self.spans.append(record)
        stack.append(record["id"])
        try:
            yield record
        finally:
            stack.pop()
            record["end"] = time.perf_counter()

    def wrap(
        self, fn: Callable[..., Any], name: str, attrs: Attrs | None = None
    ) -> Callable[..., Any]:
        """``fn`` with every call recorded as a span called ``name``."""

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name) as record:
                result = fn(*args, **kwargs)
                if attrs is not None:
                    record.update(attrs(args, kwargs, result))
                return result

        return traced

    def swap(self, owner: Any, attr: str, value: Any) -> Any:
        """Set ``owner.attr`` to ``value`` until :meth:`restore`; returns the original."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, value)
        self._undo.append(lambda: setattr(owner, attr, original))
        return original

    def patch(
        self, owner: Any, attr: str, name: str, attrs: Attrs | None = None
    ) -> None:
        """Replace ``owner.attr`` (function, method or property) by a traced one."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, property):
            if original.fget is None:
                raise TypeError(f"{owner}.{attr} has no getter")
            self.swap(owner, attr, property(self.wrap(original.fget, name, attrs)))
        else:
            self.swap(owner, attr, self.wrap(original, name, attrs))

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._undo:
            self._undo.pop()()


def _rows(args: tuple[Any, ...], kwargs: dict[str, Any], result: Any) -> dict[str, Any]:
    return {"rows": len(args[1])}


def _kept(args: tuple[Any, ...], kwargs: dict[str, Any], result: Any) -> dict[str, Any]:
    return {"kept": int(result.n_kept)}


def _workers(args: tuple[Any, ...], kwargs: dict[str, Any], result: Any) -> dict[str, Any]:
    return {"workers": int(kwargs.get("workers", 1)), "shards": len(result)}


def _grid(args: tuple[Any, ...], kwargs: dict[str, Any], result: Any) -> dict[str, Any]:
    cells, _, grid = result
    return {"cells": len(cells), "bins": int(grid.shape[1])}


def _nbytes(args: tuple[Any, ...], kwargs: dict[str, Any], result: Any) -> dict[str, Any]:
    return {"bytes": len(result)}


#: ``(module, attribute, span name, attributes)`` for every public call into
#: a layer that ``repro-cars generate/analyze/serve`` make.  Names imported
#: with ``from ... import`` are patched where the caller looks them up.
LAYER_CALLS: tuple[tuple[str, str, str, Attrs | None], ...] = (
    ("repro.simulate.generator", "build_substrates", "simulate.build_substrates", None),
    ("repro.simulate.generator", "build_population", "simulate.build_population", None),
    ("repro.simulate.generator", "records_for_cars", "simulate.records_for_cars", None),
    ("repro.simulate.generator", "finalize_dataset", "simulate.finalize_dataset", None),
    ("repro.simulate.generator", "build_topology", "network.topology", None),
    ("repro.simulate.generator", "CellLoadModel", "network.load_model", None),
    ("repro.cli", "build_topology", "network.topology", None),
    ("repro.cli", "CellLoadModel", "network.load_model", None),
    ("repro.service.state", "build_topology", "network.topology", None),
    ("repro.service.state", "CellLoadModel", "network.load_model", None),
    ("repro.cdr.records", "CDRBatch.columnar", "cdr.columnar", None),
    ("repro.cdr.store", "write_sharded_cdrz", "cdr.write_shards", None),
    ("repro.cdr.store", "write_batch_cdrz", "cdr.write_shards", None),
    ("repro.cdr.store", "read_batch_cdrz", "cdr.read_chunks", None),
    ("repro.service.state", "read_batch_cdrz", "cdr.read_chunks", None),
    ("repro.cdr.store", "shard_manifest", "cdr.manifest", None),
    ("repro.cli", "load_trace", "cdr.load_trace", None),
    ("repro.cdr.columnar", "ColumnarCDRBatch.to_batch", "cdr.to_batch", None),
    ("repro.core.busy", "BusySchedule.mask_table", "core.busy.mask_table", _grid),
    ("repro.core.pipeline", "AnalysisPipeline.run", "core.pipeline", None),
    ("repro.core.pipeline", "preprocess_lazy", "core.preprocess", _kept),
    ("repro.core.preprocess", "PreprocessResult.truncated", "core.records", None),
    ("repro.core.pipeline", "cluster_busy_cells", "core.clustering", None),
    ("repro.cli", "format_report", "core.report", None),
    ("repro.core.fused", "FusedEngine.consume", "core.fused.consume", _rows),
    ("repro.core.fused", "FusedEngine.finalize", "core.fused.finalize", None),
    ("repro.core.fused", "FusedEngine.export_partial", "core.fused.export", None),
    ("repro.core.mapreduce", "finalize_fused", "core.fused.finalize", None),
    ("repro.service.state", "finalize_fused", "core.fused.finalize", None),
    ("repro.core.fused", "FusedPartial.absorb_partial", "core.mapreduce.fold", None),
    ("repro.service.state", "fold_fused_partials", "core.mapreduce.fold", None),
    ("repro.core.mapreduce", "analyze_shards_fused", "core.mapreduce.analyze", None),
    ("repro.core.mapreduce", "map_shards_fused", "core.mapreduce.map", _workers),
    ("repro.service.state", "map_shards_fused", "core.mapreduce.map", _workers),
    ("repro.service.state", "scenario_context", "service.scenario_context", None),
    ("repro.service.state", "scan_shards", "service.scan", None),
    ("repro.service.state", "ServiceState.refresh", "service.refresh", None),
    ("repro.service.state", "ServiceState.query", "service.query", None),
    ("repro.service.state", "ServiceState.shard_batch", "service.shard_batch", None),
)


def install(tracer: Tracer) -> None:
    """Patch every entry of :data:`LAYER_CALLS`, plus the daemon's pickling.

    ``ServiceState`` pickles each shard partial once and unpickles every
    held partial on each refresh; its module-level ``pickle`` is swapped for
    a namespace whose ``dumps``/``loads`` record ``service.pickle`` (with
    the byte count) and ``service.unpickle`` spans.
    """
    for module_name, path, name, attrs in LAYER_CALLS:
        owner: Any = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for parent in parents:
            owner = getattr(owner, parent)
        tracer.patch(owner, attr, name, attrs)
    state = importlib.import_module("repro.service.state")
    real = state.pickle
    tracer.swap(
        state,
        "pickle",
        types.SimpleNamespace(
            HIGHEST_PROTOCOL=real.HIGHEST_PROTOCOL,
            dumps=tracer.wrap(real.dumps, "service.pickle", _nbytes),
            loads=tracer.wrap(real.loads, "service.unpickle"),
        ),
    )


# -- analysis ---------------------------------------------------------------


def duration(span: Span) -> float:
    """Wall time a span covers."""
    return float(span["end"] - span["start"])


def children(spans: list[Span]) -> dict[int | None, list[Span]]:
    """Spans grouped by parent id (``None`` for roots)."""
    tree: dict[int | None, list[Span]] = defaultdict(list)
    for span in spans:
        tree[span["parent"]].append(span)
    return tree


def self_time(span: Span, tree: Mapping[int | None, list[Span]]) -> float:
    """Duration minus the time covered by the span's children."""
    return duration(span) - sum(duration(child) for child in tree.get(span["id"], ()))


def descendants(root: Span, tree: Mapping[int | None, list[Span]]) -> Iterator[Span]:
    """Every span under ``root`` (excluding it), depth first."""
    pending = list(tree.get(root["id"], ()))
    while pending:
        span = pending.pop()
        yield span
        pending.extend(tree.get(span["id"], ()))


def stage_table(
    roots: Iterable[Span], tree: Mapping[int | None, list[Span]]
) -> tuple[float, list[tuple[str, float]]]:
    """``(wall, rows)``: self time per span name under ``roots``.

    The root spans' own self time appears as ``(unattributed)``, so the rows
    always sum to the roots' total wall time.
    """
    wall = 0.0
    rows: dict[str, float] = defaultdict(float)
    for root in roots:
        wall += duration(root)
        rows["(unattributed)"] += self_time(root, tree)
        for span in descendants(root, tree):
            rows[span["name"]] += self_time(span, tree)
    ordered = sorted(rows.items(), key=lambda item: -item[1])
    return wall, ordered


def inclusive(
    roots: Iterable[Span],
    tree: Mapping[int | None, list[Span]],
    names: Iterable[str],
    where: Callable[[Span], bool] = lambda span: True,
) -> float:
    """Wall time of the outermost spans named in ``names`` under ``roots``.

    A span nested inside another span of the set is already covered by its
    ancestor and is not counted twice.
    """
    wanted = set(names)
    total = 0.0
    pending = [(child, False) for root in roots for child in tree.get(root["id"], ())]
    while pending:
        span, covered = pending.pop()
        hit = span["name"] in wanted and where(span)
        if hit and not covered:
            total += duration(span)
        pending.extend((child, covered or hit) for child in tree.get(span["id"], ()))
    return total


def matching(
    roots: Iterable[Span], tree: Mapping[int | None, list[Span]], name: str
) -> list[Span]:
    """Every span called ``name`` under ``roots``."""
    return [span for root in roots for span in descendants(root, tree) if span["name"] == name]
