"""Calibration-target summaries: one :class:`TraceSummary` per trace.

A trace — ours or foreign, a text file or a `.cdrz` shard directory — is
reduced to the statistics the twinning loop calibrates against: the
diurnal load shape, the session-duration CDF, the quantiles of the gaps
between a car's aggregate sessions (Section 4.7's inter-arrivals),
handover rate, per-carrier shares, and the presence/connect-time/busy
headline numbers of the remaining Section 4 analyses.

Extraction runs the fused engine and reads its partial: shard directories
go through :func:`repro.core.mapreduce.fold_shards_fused` (bit-identical
at any worker count), in-memory batches through one engine over a single
chunk, and the analysis daemon hands over the fold it already holds.
Every path ends in :func:`summary_from_partial`, which closes the partial
into the analysis report and reads the twin statistics
(:mod:`repro.core.twinstats`) off the same partial.  Statistics carried by
exact structures — counts, histograms, the welded session table and
everything derived from them — are bit-identical between the paths; plain
float accumulations (carrier time shares) depend on chunk boundaries and
agree only to rounding error.  Within one path every number is
deterministic: ``summarize_source`` is bit-identical at any worker count.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from repro.algorithms.timebins import StudyClock
from repro.cdr.columnar import ColumnarCDRBatch
from repro.cdr.io import read_columnar_auto, trace_format
from repro.cdr.store import is_record_sorted
from repro.core.busy import BusySchedule
from repro.core.fused import FusedEngine, FusedPartial, finalize_fused
from repro.core.twinstats import (
    aggregate_sessions,
    diurnal_shape,
    duration_quantile,
    session_gaps,
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


def summary_from_partial(partial: FusedPartial, clock: StudyClock) -> TraceSummary:
    """Close a fused partial into one summary.

    The single closing step every extraction path shares — disk or
    memory, serial, map-reduce or the daemon's held fold — which is what
    keeps their numbers identical.  The Section 4 headline numbers come
    from :func:`~repro.core.fused.finalize_fused`, the twin statistics
    from read-outs of the same partial.
    """
    report = finalize_fused(partial, clock)
    _cars, gaps = session_gaps(aggregate_sessions(partial.connect_trunc))
    if gaps.size:
        gap_qs = tuple(float(np.quantile(gaps, q)) for q in GAP_QS)
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
        n_records=partial.n_records + partial.n_ghosts,
        n_cars=int(presence.n_cars_total),
        n_days=int(clock.n_days),
        diurnal_shape=tuple(diurnal_shape(partial.presence).tolist()),
        duration_quantiles=tuple(
            duration_quantile(partial.durations, q) for q in DURATION_QS
        ),
        interarrival_quantiles=gap_qs,
        n_gaps=int(gaps.size),
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
    """Summarize an in-memory columnar batch (the candidate-trace path).

    The engine needs rows in record order, so a batch out of it is sorted
    first.
    """
    if not is_record_sorted(col):
        col = col.sorted()
    engine = FusedEngine(ctx.clock, schedule=ctx.schedule, cells=ctx.cells)
    engine.consume(col)
    return summary_from_partial(engine.export_partial(), ctx.clock)


def summarize_source(
    source: str | Path, ctx: TwinContext, *, workers: int = 1
) -> TraceSummary:
    """Summarize any trace: csv/jsonl/cdrz file or `.cdrz` shard directory.

    A `.cdrz` file or shard directory runs the fused shard fold with
    ``workers`` processes (0 = one per CPU); the result does not depend on
    the count, and shards out of start order raise
    :class:`~repro.core.mapreduce.ShardOrderError`.  Text traces load in
    one batch and take the in-memory path.
    """
    from repro.core.mapreduce import fold_shards_fused

    path = Path(source)
    if not path.is_dir() and trace_format(path) != "cdrz":
        return summarize_batch(read_columnar_auto(source), ctx)
    n_workers = workers if workers > 0 else available_cpus()
    partial, _stats = fold_shards_fused(
        source,
        ctx.clock,
        schedule=ctx.schedule,
        cells=ctx.cells,
        workers=n_workers,
    )
    return summary_from_partial(partial, ctx.clock)
