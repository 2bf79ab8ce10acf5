"""Section 4 query routes: fused-report fields -> JSON-safe payloads.

Each route turns one slice of the service's
:class:`~repro.core.fused.AnalysisReport` (or, for timelines, the
memmapped shard batches) into a plain ``dict`` of Python
scalars, lists and strings.  The dict is then encoded by
``state.canonical_json`` — sorted keys, no whitespace — so a payload built
twice from the same report serializes to the same bytes.  Routes therefore
must only emit deterministic structures: numpy scalars are converted with
``float()``/``int()``, arrays with ``tolist()``, and every mapping is
keyed by strings whose order the encoder normalizes.

Routes never compute analyses — the fused engine already did during
ingest.  A route is a cheap projection, which is what makes warm queries a
cache lookup and cold queries a serialization, never a data sweep (the
exception is ``timeline``, which scans the memmapped columns for one car;
``twin`` reads its calibration statistics off the held fold).  Every
route lands in the same keyed cache, so each runs once per trace version.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.algorithms.stats import TrendLine
from repro.core.handover import HandoverType
from repro.twin.summary import summary_from_partial

if TYPE_CHECKING:
    from repro.service.state import ServiceState

#: A route body: project the state's report into a JSON-safe payload.
RouteBuilder = Callable[["ServiceState", Mapping[str, str]], dict[str, object]]


class QueryError(Exception):
    """A request-level failure with an HTTP status the app can forward."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


def _float_param(
    params: Mapping[str, str], name: str, default: float, lo: float, hi: float
) -> float:
    """One validated float query parameter in ``[lo, hi]``."""
    raw = params.get(name)
    if raw is None:
        return default
    try:
        value = float(raw)
    except ValueError:
        raise QueryError(400, f"parameter {name!r} is not a number: {raw!r}") from None
    if not lo <= value <= hi:
        raise QueryError(400, f"parameter {name!r} must be in [{lo}, {hi}], got {value}")
    return value


def _trend(trend: TrendLine) -> dict[str, object]:
    return {
        "intercept": trend.intercept,
        "r_squared": trend.r_squared,
        "slope": trend.slope,
    }


def build_summary(state: ServiceState, params: Mapping[str, str]) -> dict[str, object]:
    """Trace-level totals: the ``analyze`` command's headline numbers."""
    report = state.report()
    return {
        "n_cars": int(report.presence.n_cars_total),
        "n_cells": int(report.presence.n_cells_total),
        "n_days": int(state.context.clock.n_days),
        "n_ghosts": int(report.n_ghosts),
        "n_records": int(state.n_records),
        "n_shards": int(state.n_shards),
    }


def build_presence(state: ServiceState, params: Mapping[str, str]) -> dict[str, object]:
    """Figure 2: daily car/cell presence series with OLS trends."""
    presence = state.report().presence
    # A one-day study has no trend line; both are reported as null.
    trends = presence.has_trends
    return {
        "car_fraction": presence.car_fraction.tolist(),
        "car_trend": _trend(presence.car_trend) if trends else None,
        "cell_fraction": presence.cell_fraction.tolist(),
        "cell_trend": _trend(presence.cell_trend) if trends else None,
        "n_cars_total": int(presence.n_cars_total),
        "n_cells_total": int(presence.n_cells_total),
    }


def build_connect_time(
    state: ServiceState, params: Mapping[str, str]
) -> dict[str, object]:
    """Figure 3: connected-time shares; ``q`` selects the tail percentile."""
    q = _float_param(params, "q", 99.5, 0.0, 100.0)
    result = state.report().connect_time
    tail_full, tail_trunc = result.tail(q) if result.full_share.size else (0.0, 0.0)
    hours_full, hours_trunc = result.hours_per_day(state.context.clock)
    return {
        "hours_per_day_full": hours_full,
        "hours_per_day_truncated": hours_trunc,
        "mean_full": result.mean_full,
        "mean_truncated": result.mean_truncated,
        "n_cars": len(result.car_ids),
        "tail_percentile": q,
        "tail_share_full": tail_full,
        "tail_share_truncated": tail_trunc,
    }


def build_carriers(state: ServiceState, params: Mapping[str, str]) -> dict[str, object]:
    """Table 3: per-carrier reach and time share."""
    usage = state.report().carriers
    return {
        "cars_fraction": {c: float(v) for c, v in usage.cars_fraction.items()},
        "n_cars": int(usage.n_cars),
        "time_fraction": {c: float(v) for c, v in usage.time_fraction.items()},
        "top_by_time": usage.top_carriers_by_time(),
        "total_time_s": float(usage.total_time_s),
    }


def build_busy(state: ServiceState, params: Mapping[str, str]) -> dict[str, object]:
    """Figure 7: busy-cell exposure; ``floor`` zooms the tail panel."""
    floor = _float_param(params, "floor", 0.5, 0.0, 0.999)
    exposure = state.report().exposure
    if exposure is None:
        raise QueryError(409, "busy exposure was not computed for this trace")
    return {
        "fraction_above_floor": exposure.fraction_above(floor),
        "fraction_all_busy": exposure.fraction_all_busy(),
        "floor": floor,
        "n_cars": len(exposure.car_ids),
        "share_distribution": exposure.share_distribution().tolist(),
        "share_distribution_above": exposure.share_distribution_above(floor).tolist(),
    }


def build_segmentation(
    state: ServiceState, params: Mapping[str, str]
) -> dict[str, object]:
    """Table 2: rare/common x busy/non-busy car segments."""
    segmentation = state.report().segmentation
    if segmentation is None:
        raise QueryError(409, "segmentation was not computed for this trace")
    return {
        "n_cars": int(segmentation.n_cars),
        "rows": [
            {
                "both": float(row.both),
                "busy": float(row.busy),
                "label": row.label,
                "non_busy": float(row.non_busy),
                "total": float(row.total),
            }
            for row in segmentation.rows
        ],
    }


def build_handovers(
    state: ServiceState, params: Mapping[str, str]
) -> dict[str, object]:
    """Figure 8 / Table 4: handovers per session and the type breakdown."""
    q = _float_param(params, "q", 90.0, 0.0, 100.0)
    stats = state.report().handovers
    if stats is None:
        raise QueryError(409, "handovers were not computed for this trace")
    has_sessions = stats.n_sessions > 0
    return {
        "median": stats.median if has_sessions else None,
        "n_sessions": stats.n_sessions,
        "percentile": stats.percentile(q) if has_sessions else None,
        "percentile_q": q,
        "total_handovers": stats.total_handovers,
        "type_fractions": {
            kind.value: stats.type_fraction(kind) for kind in HandoverType
        },
    }


def build_timeline(state: ServiceState, params: Mapping[str, str]) -> dict[str, object]:
    """One car's full session log, scanned from the memmapped shards.

    Rows are gathered shard by shard in fold order and then sorted by the
    canonical record order (start, cell, carrier, technology, duration), so
    the same car yields the same timeline regardless of how its records are
    distributed across shards.
    """
    car = params.get("car")
    if not car:
        raise QueryError(400, "parameter 'car' is required")
    rows: list[tuple[float, int, str, str, float]] = []
    seen = False
    for entry in state.manifest():
        batch = state.shard_batch(entry)
        try:
            code = batch.car_ids.index(car)
        except ValueError:
            continue
        seen = True
        for i in (batch.car_code == code).nonzero()[0]:
            rows.append(
                (
                    float(batch.start[i]),
                    int(batch.cell_id[i]),
                    batch.carriers[batch.carrier_code[i]],
                    batch.technologies[batch.tech_code[i]],
                    float(batch.duration[i]),
                )
            )
    if not seen:
        raise KeyError(car)
    rows.sort()
    return {
        "car": car,
        "n_sessions": len(rows),
        "sessions": [
            {
                "carrier": carrier,
                "cell_id": cell,
                "duration_s": duration,
                "start_s": start,
                "technology": technology,
            }
            for start, cell, carrier, technology, duration in rows
        ],
        "total_duration_s": sum(row[4] for row in rows),
    }


def build_twin(state: ServiceState, params: Mapping[str, str]) -> dict[str, object]:
    """The served trace's calibration-target summary (``repro.twin``).

    Closes the state's held fold with
    :func:`repro.twin.summary.summary_from_partial` — the step an offline
    :func:`repro.twin.summary.summarize_source` ends in — so the payload
    is bit-identical to that offline summary of the same directory, with
    no sweep over the shards.  The client feeds this straight into
    ``TraceSummary.from_json_dict`` as a calibration target.
    """
    return summary_from_partial(state.partial(), state.context.clock).to_json_dict()


@dataclass(frozen=True)
class Route:
    """One query kind the service answers."""

    kind: str
    description: str
    build: RouteBuilder


#: Every analysis the service serves, keyed by the ``/query/<kind>`` path.
ANALYSIS_ROUTES: dict[str, Route] = {
    route.kind: route
    for route in (
        Route("summary", "trace totals: records, cars, cells, shards", build_summary),
        Route("presence", "daily car/cell presence with trends (Fig. 2)", build_presence),
        Route(
            "connect_time",
            "per-car connected-time shares (Fig. 3)",
            build_connect_time,
        ),
        Route("carriers", "per-carrier reach and time share (Table 3)", build_carriers),
        Route("busy", "busy-cell exposure distribution (Fig. 7)", build_busy),
        Route(
            "segmentation",
            "rare/common x busy/non-busy segments (Table 2)",
            build_segmentation,
        ),
        Route(
            "handovers",
            "handovers per session and types (Fig. 8, Table 4)",
            build_handovers,
        ),
        Route("timeline", "one car's session log across all shards", build_timeline),
        Route(
            "twin",
            "calibration-target summary for trace twinning",
            build_twin,
        ),
    )
}
