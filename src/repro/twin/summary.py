"""Calibration-target summaries: one :class:`TraceSummary` per trace.

A trace — ours or foreign, a text file or a `.cdrz` shard directory — is
reduced to the statistics the twinning loop calibrates against: the
diurnal load shape, the session-duration CDF, inter-arrival quantiles
(through :mod:`repro.prediction.interarrival`, Section 4.7's layer),
handover rate, per-carrier shares, and the presence/connect-time/busy
headline numbers of the remaining Section 4 analyses.

Extraction runs the fused engine: shard directories go through
:func:`repro.core.mapreduce.analyze_shards_fused` (bit-identical at any
worker count) plus one in-process :class:`~repro.core.twinstats.
TwinStatsKernel` sweep folding per-shard partials in shard order; in-
memory batches run one engine and one kernel over a single chunk.  Both
paths end in :func:`summary_from_parts`.  Statistics carried by exact
structures — counts, histograms, the welded session table and everything
derived from them — are bit-identical between the two paths; plain float
accumulations (carrier time shares) depend on chunk boundaries and agree
only to rounding error.  Within one path every number is deterministic:
``summarize_source`` is bit-identical at any worker count.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass, fields
from pathlib import Path

from repro.algorithms.intervals import Interval
from repro.algorithms.timebins import StudyClock
from repro.cdr.columnar import ColumnarCDRBatch
from repro.cdr.io import read_columnar_auto
from repro.cdr.store import DEFAULT_CHUNK_ROWS, read_batch_cdrz, resolve_shards
from repro.core.busy import BusySchedule
from repro.core.fused import ChunkIntermediates, FusedEngine, FusedReport
from repro.core.preprocess import PreprocessConfig
from repro.core.twinstats import (
    TwinStatsKernel,
    TwinStatsPartial,
    diurnal_shape,
    duration_quantile,
)
from repro.cpus import available_cpus
from repro.network.cells import Cell
from repro.network.load import CellLoadModel
from repro.network.topology import build_topology
from repro.simulate.scenarios import scenario

#: Quantiles pinning the session-duration CDF (Figure 4).
DURATION_QS: tuple[float, ...] = (0.1, 0.25, 0.5, 0.75, 0.9)

#: Quantiles pinning the inter-arrival gap distribution (Section 4.7).
GAP_QS: tuple[float, ...] = (0.25, 0.5, 0.75, 0.9)


@dataclass(frozen=True)
class TwinContext:
    """Scenario inputs a summary extraction needs.

    ``cells`` enables the handover statistic and ``schedule`` the busy-
    exposure one; either may be ``None`` for a foreign trace whose
    topology is unknown, and the corresponding summary fields become
    ``None`` (the divergence metric then skips them).
    """

    clock: StudyClock
    cells: dict[int, Cell] | None = None
    schedule: BusySchedule | None = None


def twin_context(scenario_name: str, days: int) -> TwinContext:
    """The full extraction context for a named scenario.

    Rebuilds the scenario's topology and load model exactly as
    ``repro-cars analyze`` does — a trace must be summarized against the
    same cell inventory and busy schedule it was generated with.
    """
    config = scenario(scenario_name, n_cars=1, n_days=days)
    clock = StudyClock(n_days=days)
    topology = build_topology(config.topology)
    load_model = CellLoadModel(topology, clock, seed=config.load_seed)
    return TwinContext(
        clock=clock,
        cells=topology.cells,
        schedule=BusySchedule.from_load_model(load_model),
    )


@dataclass(frozen=True)
class TraceSummary:
    """The calibration targets of one trace.

    Every field is a plain Python scalar, tuple or dict so the summary
    round-trips through JSON losslessly (``to_json_dict`` /
    ``from_json_dict``) and serves directly as a service payload.
    Fractions and rates are scale-free: a 100-car twin is comparable with
    a million-car target.
    """

    n_records: int
    n_cars: int
    n_days: int
    #: Hour-of-day start fractions, 24 entries summing to 1 (or all zero).
    diurnal_shape: tuple[float, ...]
    #: Truncated session-duration quantiles at :data:`DURATION_QS`.
    duration_quantiles: tuple[float, ...]
    #: Fleet inter-session gap quantiles at :data:`GAP_QS`, seconds.
    interarrival_quantiles: tuple[float, ...]
    #: Observed fleet gaps behind the quantiles (0 means no gap stats).
    n_gaps: int
    #: Handovers per network session; ``None`` without a cell directory.
    handover_rate: float | None
    #: Per-carrier share of connected time (Table 3).
    carrier_time_share: dict[str, float]
    #: Per-carrier share of cars ever using the carrier (Table 3).
    carrier_car_share: dict[str, float]
    #: Mean over days of the daily present-car fraction (Figure 2).
    mean_daily_car_fraction: float
    #: OLS slope of the daily car fraction (Figure 2's trend).
    car_trend_slope: float
    #: Mean days-on-network per car (Figure 6).
    mean_days_on_network: float
    #: Mean truncated connected-time share (Figure 3).
    mean_connect_share: float
    #: Mean busy-cell exposure share; ``None`` without a busy schedule.
    mean_busy_share: float | None

    def to_json_dict(self) -> dict[str, object]:
        """A JSON-safe dict; ``from_json_dict`` inverts it exactly."""
        return {
            "car_trend_slope": self.car_trend_slope,
            "carrier_car_share": dict(self.carrier_car_share),
            "carrier_time_share": dict(self.carrier_time_share),
            "diurnal_shape": list(self.diurnal_shape),
            "duration_quantiles": list(self.duration_quantiles),
            "handover_rate": self.handover_rate,
            "interarrival_quantiles": list(self.interarrival_quantiles),
            "mean_busy_share": self.mean_busy_share,
            "mean_connect_share": self.mean_connect_share,
            "mean_daily_car_fraction": self.mean_daily_car_fraction,
            "mean_days_on_network": self.mean_days_on_network,
            "n_cars": self.n_cars,
            "n_days": self.n_days,
            "n_gaps": self.n_gaps,
            "n_records": self.n_records,
        }

    @staticmethod
    def from_json_dict(obj: Mapping[str, object]) -> "TraceSummary":
        """Rebuild a summary from :meth:`to_json_dict` output."""
        missing = {f.name for f in fields(TraceSummary)} - set(obj)
        if missing:
            raise ValueError(f"summary dict missing fields: {sorted(missing)}")
        return TraceSummary(
            n_records=int(_num(obj, "n_records")),
            n_cars=int(_num(obj, "n_cars")),
            n_days=int(_num(obj, "n_days")),
            diurnal_shape=_floats(obj, "diurnal_shape"),
            duration_quantiles=_floats(obj, "duration_quantiles"),
            interarrival_quantiles=_floats(obj, "interarrival_quantiles"),
            n_gaps=int(_num(obj, "n_gaps")),
            handover_rate=_opt_num(obj, "handover_rate"),
            carrier_time_share=_share_map(obj, "carrier_time_share"),
            carrier_car_share=_share_map(obj, "carrier_car_share"),
            mean_daily_car_fraction=_num(obj, "mean_daily_car_fraction"),
            car_trend_slope=_num(obj, "car_trend_slope"),
            mean_days_on_network=_num(obj, "mean_days_on_network"),
            mean_connect_share=_num(obj, "mean_connect_share"),
            mean_busy_share=_opt_num(obj, "mean_busy_share"),
        )


def _num(obj: Mapping[str, object], key: str) -> float:
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"summary field {key!r} is not a number: {value!r}")
    return float(value)


def _opt_num(obj: Mapping[str, object], key: str) -> float | None:
    if obj[key] is None:
        return None
    return _num(obj, key)


def _floats(obj: Mapping[str, object], key: str) -> tuple[float, ...]:
    value = obj[key]
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"summary field {key!r} is not a list: {value!r}")
    out: list[float] = []
    for item in value:
        if isinstance(item, bool) or not isinstance(item, (int, float)):
            raise ValueError(f"summary field {key!r} holds non-number {item!r}")
        out.append(float(item))
    return tuple(out)


def _share_map(obj: Mapping[str, object], key: str) -> dict[str, float]:
    value = obj[key]
    if not isinstance(value, Mapping):
        raise ValueError(f"summary field {key!r} is not a mapping: {value!r}")
    out: dict[str, float] = {}
    for name, share in value.items():
        if not isinstance(name, str):
            raise ValueError(f"summary field {key!r} has non-string key {name!r}")
        if isinstance(share, bool) or not isinstance(share, (int, float)):
            raise ValueError(f"summary field {key!r} holds non-number {share!r}")
        out[name] = float(share)
    return out


def _sessions_by_car(partial: TwinStatsPartial) -> dict[str, list[Interval]]:
    """The aggregate-session table as per-car interval lists.

    The chain table is grouped by car and chronological within car, so
    each car's list arrives already sorted — exactly what
    :func:`repro.prediction.interarrival.gaps_from_sessions` expects.
    """
    sessions = partial.sessions
    ids = sessions.car_ids
    out: dict[str, list[Interval]] = {}
    for code, start, end in zip(
        sessions.car.tolist(), sessions.start.tolist(), sessions.cm.tolist()
    ):
        out.setdefault(ids[int(code)], []).append(Interval(start, end))
    return out


def summary_from_parts(
    report: FusedReport, partial: TwinStatsPartial, clock: StudyClock
) -> TraceSummary:
    """Fold a fused report and a twin-stat partial into one summary.

    The single closing step every extraction path shares — disk or
    memory, serial or map-reduce — which is what keeps their numbers
    identical.
    """
    from repro.prediction.interarrival import fit_gap_models

    _per_car, fleet = fit_gap_models(_sessions_by_car(partial))
    if fleet.n_gaps:
        gap_qs = tuple(fleet.quantile(q) for q in GAP_QS)
    else:
        gap_qs = tuple(0.0 for _ in GAP_QS)
    handovers = report.handovers
    handover_rate: float | None = None
    if handovers is not None:
        handover_rate = (
            handovers.total_handovers / handovers.n_sessions
            if handovers.n_sessions
            else 0.0
        )
    exposure = report.exposure
    busy_share: float | None = None
    if exposure is not None:
        busy_share = (
            float(exposure.busy_share.mean()) if exposure.busy_share.size else 0.0
        )
    presence = report.presence
    car_fraction = presence.car_fraction
    trunc_share = report.connect_time.truncated_share
    days_per_car = list(report.days.values())
    return TraceSummary(
        n_records=partial.n_records,
        n_cars=int(presence.n_cars_total),
        n_days=int(clock.n_days),
        diurnal_shape=tuple(diurnal_shape(partial).tolist()),
        duration_quantiles=tuple(
            duration_quantile(partial, q) for q in DURATION_QS
        ),
        interarrival_quantiles=gap_qs,
        n_gaps=fleet.n_gaps,
        handover_rate=handover_rate,
        carrier_time_share={
            c: float(v) for c, v in report.carriers.time_fraction.items()
        },
        carrier_car_share={
            c: float(v) for c, v in report.carriers.cars_fraction.items()
        },
        mean_daily_car_fraction=(
            float(car_fraction.mean()) if car_fraction.size else 0.0
        ),
        car_trend_slope=float(presence.car_trend.slope),
        mean_days_on_network=(
            float(sum(days_per_car)) / len(days_per_car) if days_per_car else 0.0
        ),
        mean_connect_share=(
            float(trunc_share.mean()) if trunc_share.size else 0.0
        ),
        mean_busy_share=busy_share,
    )


def summarize_batch(col: ColumnarCDRBatch, ctx: TwinContext) -> TraceSummary:
    """Summarize an in-memory columnar batch (the candidate-trace path)."""
    engine = FusedEngine(
        ctx.clock, schedule=ctx.schedule, cells=ctx.cells
    )
    engine.consume(col)
    kernel = TwinStatsKernel(col.car_ids, ctx.clock)
    kernel.consume(
        ChunkIntermediates(col, ctx.clock, PreprocessConfig().truncate_s)
    )
    return summary_from_parts(
        engine.finalize(), kernel.export_partial(), ctx.clock
    )


def twin_stats_for_batches(
    batches: Iterable[ColumnarCDRBatch],
    clock: StudyClock,
    *,
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
) -> TwinStatsPartial | None:
    """Twin-stat partial of shard batches, folded in the order given.

    One kernel per shard (shards may carry different vocabularies), chunk
    consumption within each shard, partials folded in shard order — the
    same structure as the fused map-reduce, run in process.  The result
    is bit-identical at any ``chunk_rows``; ``None`` when there is no
    batch.
    """
    truncate_s = PreprocessConfig().truncate_s
    merged: TwinStatsPartial | None = None
    for batch in batches:
        kernel = TwinStatsKernel(batch.car_ids, clock)
        for lo in range(0, len(batch), chunk_rows):
            chunk = batch.rows(lo, min(lo + chunk_rows, len(batch)))
            kernel.consume(ChunkIntermediates(chunk, clock, truncate_s))
        partial = kernel.export_partial()
        if merged is None:
            merged = partial
        else:
            merged.absorb_partial(partial)
    return merged


def twin_stats_for_source(
    source: str | Path,
    clock: StudyClock,
    *,
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
) -> TwinStatsPartial:
    """Twin-stat partial of a `.cdrz` file or shard directory."""
    merged = twin_stats_for_batches(
        (read_batch_cdrz(shard) for shard in resolve_shards(source)),
        clock,
        chunk_rows=chunk_rows,
    )
    if merged is None:
        raise ValueError(f"no shards to summarize under {source}")
    return merged


def summarize_source(
    source: str | Path, ctx: TwinContext, *, workers: int = 1
) -> TraceSummary:
    """Summarize any trace: csv/jsonl/cdrz file or `.cdrz` shard directory.

    Shard directories run the fused map-reduce with ``workers`` processes
    (0 = one per CPU); the result does not depend on the count.  Text
    traces load in one batch and take the in-memory path.
    """
    from repro.core.mapreduce import analyze_shards_fused

    path = Path(source)
    if not path.is_dir() and path.suffix != ".cdrz":
        return summarize_batch(read_columnar_auto(source), ctx)
    n_workers = workers if workers > 0 else available_cpus()
    report, _stats = analyze_shards_fused(
        source,
        ctx.clock,
        schedule=ctx.schedule,
        cells=ctx.cells,
        workers=n_workers,
    )
    partial = twin_stats_for_source(source, ctx.clock)
    return summary_from_parts(report, partial, ctx.clock)
