"""Comparing two analysis reports.

Operators run the paper's analysis repeatedly — month over month, region
against region, before and after a policy — and care about the deltas: did
connected time grow, did the busy-exposed tail move, did a new band take
traffic.  This module extracts the comparable headline metrics from two
:class:`~repro.core.fused.AnalysisReport` objects and renders the diff.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.fused import AnalysisReport


@dataclass(frozen=True)
class MetricDelta:
    """One compared metric."""

    name: str
    a: float
    b: float
    #: Python format spec for rendering the values, e.g. ``".1%"``.
    fmt: str = ".3f"

    @property
    def delta(self) -> float:
        """Absolute change from A to B."""
        return self.b - self.a

    @property
    def relative(self) -> float | None:
        """Relative change, or ``None`` when A is zero."""
        if self.a == 0:
            return None
        return self.delta / self.a


def extract_metrics(report: AnalysisReport) -> dict[str, tuple[float, str]]:
    """The comparable headline metrics of one report, name -> (value, fmt).

    Needs a report of :meth:`~repro.core.pipeline.AnalysisPipeline.run`:
    the session median is exact over its cleaned batch.
    """
    pre, exposure, segmentation = report.pre, report.exposure, report.segmentation
    if pre is None or exposure is None or segmentation is None:
        raise ValueError("comparison needs an AnalysisPipeline report")
    durations = pre.columnar_truncated().duration
    rows = {r.weekday: r for r in report.weekday_rows}
    metrics: dict[str, tuple[float, str]] = {
        "cars observed": (float(report.presence.n_cars_total), ",.0f"),
        "cells ever used": (float(report.presence.n_cells_total), ",.0f"),
        "mean % cars per day": (rows["Overall"].car_mean, ".1%"),
        "Saturday % cars": (rows["Saturday"].car_mean, ".1%"),
        "connect share (full)": (report.connect_time.mean_full, ".2%"),
        "connect share (truncated)": (report.connect_time.mean_truncated, ".2%"),
        "cell-session median (s)": (float(np.median(durations)), ".0f"),
        "cars >50% busy time": (exposure.fraction_above(0.5), ".1%"),
        "rare cars (<=10 days)": (
            segmentation.row("Rare (<= 10 days)").total,
            ".1%",
        ),
        "C3+C4 time share": (
            report.carriers.combined_time_share(("C3", "C4")),
            ".1%",
        ),
    }
    if report.handovers is not None:
        metrics["handovers/session (median)"] = (report.handovers.median, ".0f")
        metrics["handovers/session (p90)"] = (
            report.handovers.percentile(90),
            ".0f",
        )
    return metrics


def compare_reports(a: AnalysisReport, b: AnalysisReport) -> list[MetricDelta]:
    """Deltas over the metrics both reports expose."""
    metrics_a = extract_metrics(a)
    metrics_b = extract_metrics(b)
    deltas: list[MetricDelta] = []
    for name, (value_a, fmt) in metrics_a.items():
        if name not in metrics_b:
            continue
        deltas.append(MetricDelta(name=name, a=value_a, b=metrics_b[name][0], fmt=fmt))
    return deltas


def format_comparison(
    deltas: list[MetricDelta], labels: tuple[str, str] = ("A", "B")
) -> str:
    """Text table of a report comparison."""
    name_width = max((len(d.name) for d in deltas), default=6)
    header = (
        f"{'metric':<{name_width}} | {labels[0]:>12} | {labels[1]:>12} | {'change':>8}"
    )
    lines = [header, "-" * len(header)]
    for d in deltas:
        rel = f"{d.relative:+.0%}" if d.relative is not None else "n/a"
        lines.append(
            f"{d.name:<{name_width}} | {format(d.a, d.fmt):>12} "
            f"| {format(d.b, d.fmt):>12} | {rel:>8}"
        )
    return "\n".join(lines)
