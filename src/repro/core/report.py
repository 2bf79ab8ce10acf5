"""Paper-style text rendering of analysis results.

Benchmarks and examples print the same rows and series the paper reports;
these helpers keep that formatting in one place.
"""

from __future__ import annotations

from repro.core.carriers import CARRIER_ORDER, CarrierUsage
from repro.core.connect_time import DurationStats
from repro.core.fused import AnalysisReport
from repro.core.handover import HandoverStats, HandoverType
from repro.core.presence import DailyPresence, WeekdayRow
from repro.core.segmentation import CarSegmentation


def format_weekday_table(rows: list[WeekdayRow]) -> str:
    """Table 1: usage of cells by cars and occurrence of cars per day."""
    lines = [
        "Day        | % cells mean | StDev | % cars mean | StDev",
        "-----------+--------------+-------+-------------+------",
    ]
    for row in rows:
        lines.append(
            f"{row.weekday:<10} | {row.cell_mean:>11.1%} | {row.cell_std:>5.1%} "
            f"| {row.car_mean:>10.1%} | {row.car_std:>5.1%}"
        )
    return "\n".join(lines)


def format_segmentation(seg: CarSegmentation) -> str:
    """Table 2: car segmentation by rarity and busy-hour affinity."""
    lines = [
        "Segment              |  Busy | Non-Busy |  Both | Total",
        "---------------------+-------+----------+-------+------",
    ]
    for row in seg.rows:
        lines.append(
            f"{row.label:<20} | {row.busy:>5.1%} | {row.non_busy:>8.1%} "
            f"| {row.both:>5.1%} | {row.total:>5.1%}"
        )
    return "\n".join(lines)


def format_carrier_table(usage: CarrierUsage) -> str:
    """Table 3: carrier use of connected cars."""
    header = "Carrier  | " + " | ".join(f"{c:>7}" for c in CARRIER_ORDER)
    cars = "Cars (%) | " + " | ".join(
        f"{usage.cars_fraction.get(c, 0.0):>7.1%}" for c in CARRIER_ORDER
    )
    time = "Time (%) | " + " | ".join(
        f"{usage.time_fraction.get(c, 0.0):>7.1%}" for c in CARRIER_ORDER
    )
    return "\n".join([header, cars, time])


def format_handover_stats(stats: HandoverStats) -> str:
    """Section 4.5: handover percentiles and type shares."""
    lines = [
        f"network sessions analyzed: {stats.n_sessions}",
        f"handovers per session: median {stats.median:.0f}, "
        f"p70 {stats.percentile(70):.0f}, p90 {stats.percentile(90):.0f}",
    ]
    for kind in HandoverType:
        lines.append(f"  {kind.value:<18}: {stats.type_fraction(kind):6.2%}")
    return "\n".join(lines)


def format_car_trend(presence: DailyPresence) -> str:
    """Figure 2's car trend line, or ``n/a`` when the study is one day long."""
    if not presence.has_trends:
        return "car trend: n/a (needs at least two study days)"
    trend = presence.car_trend
    return (
        f"car trend: y = {trend.slope:.5f}x + {trend.intercept:.4f} "
        f"(R^2 = {trend.r_squared:.4f})"
    )


def format_durations(stats: DurationStats) -> str:
    """Figure 9: the cell-connection duration summary line."""
    return (
        f"duration: median {stats.median:.1f} s, p73 {stats.p73:.1f} s, "
        f"mean {stats.mean_full:.1f} s (truncated {stats.mean_truncated:.1f} s), "
        f">600 s: {stats.fraction_over_cutoff:.1%}"
    )


def format_report(report: AnalysisReport) -> str:
    """Full multi-section text report of an analysis run."""
    sections = [
        "== Daily presence (Fig 2) ==",
        f"records kept {report.n_kept:,}",
        f"cars: {report.presence.n_cars_total}, cells ever used: "
        f"{report.presence.n_cells_total}",
        format_car_trend(report.presence),
        "",
        "== Table 1 ==",
        format_weekday_table(report.weekday_rows),
        "",
        "== Connected time (Fig 3) ==",
        f"mean share full: {report.connect_time.mean_full:.1%}, "
        f"truncated: {report.connect_time.mean_truncated:.1%}",
    ]
    if report.durations is not None:
        sections.append(format_durations(report.durations))
    if report.segmentation is not None:
        sections += ["", "== Table 2 ==", format_segmentation(report.segmentation)]
    if report.exposure is not None:
        sections += [
            "",
            "== Busy exposure (Fig 7) ==",
            f">50% busy time: {report.exposure.fraction_above(0.5):.1%} of cars; "
            f"all busy: {report.exposure.fraction_all_busy():.1%}",
        ]
    sections += ["", "== Table 3 ==", format_carrier_table(report.carriers)]
    if report.handovers is not None:
        sections += ["", "== Handovers (Sec 4.5) ==", format_handover_stats(report.handovers)]
    if report.clusters is not None:
        sections += [
            "",
            "== Busy-cell clusters (Fig 11) ==",
            f"{report.clusters.k} clusters over {len(report.clusters.cell_ids)} busy cells; "
            f"level ratio {report.clusters.level_ratio():.1f}x, "
            f"size ratio {report.clusters.size_ratio():.1f}x, "
            f"shape correlation {report.clusters.shape_correlation():.2f}",
        ]
    if report.notes:
        sections += ["", "== Notes =="] + [f"- {n}" for n in report.notes]
    return "\n".join(sections)


def format_report_markdown(report: AnalysisReport) -> str:
    """Markdown rendering of a full analysis run, for notebooks and READMEs."""
    lines = [
        "## Connected-car analysis report",
        "",
        f"- cars: **{report.presence.n_cars_total}**, cells ever used: "
        f"**{report.presence.n_cells_total}**",
        f"- records kept: **{report.n_kept:,}** "
        f"({report.n_ghosts} ghost rows dropped)",
        f"- mean connected share: **{report.connect_time.mean_full:.1%}** full / "
        f"**{report.connect_time.mean_truncated:.1%}** truncated",
    ]
    if report.durations is not None:
        lines.append(f"- {format_durations(report.durations)}")
    lines += [
        "",
        "### Table 1 — weekday presence",
        "",
        "| Day | % cells (mean) | σ | % cars (mean) | σ |",
        "|---|---|---|---|---|",
    ]
    for row in report.weekday_rows:
        lines.append(
            f"| {row.weekday} | {row.cell_mean:.1%} | {row.cell_std:.1%} "
            f"| {row.car_mean:.1%} | {row.car_std:.1%} |"
        )
    if report.segmentation is not None:
        lines += [
            "",
            "### Table 2 — segmentation",
            "",
            "| Segment | Busy | Non-Busy | Both | Total |",
            "|---|---|---|---|---|",
        ]
        for row in report.segmentation.rows:
            lines.append(
                f"| {row.label} | {row.busy:.1%} | {row.non_busy:.1%} "
                f"| {row.both:.1%} | {row.total:.1%} |"
            )
    usage = report.carriers
    lines += [
        "",
        "### Table 3 — carrier use",
        "",
        "| | " + " | ".join(CARRIER_ORDER) + " |",
        "|---|" + "---|" * len(CARRIER_ORDER),
        "| Cars | "
        + " | ".join(f"{usage.cars_fraction.get(c, 0):.1%}" for c in CARRIER_ORDER)
        + " |",
        "| Time | "
        + " | ".join(f"{usage.time_fraction.get(c, 0):.1%}" for c in CARRIER_ORDER)
        + " |",
    ]
    if report.handovers is not None:
        h = report.handovers
        lines += [
            "",
            "### Handovers (Section 4.5)",
            "",
            f"median **{h.median:.0f}**, p70 **{h.percentile(70):.0f}**, "
            f"p90 **{h.percentile(90):.0f}** per network session; "
            f"inter-base-station share "
            f"**{h.type_fraction(HandoverType.INTER_BASE_STATION):.1%}**",
        ]
    if report.clusters is not None:
        c = report.clusters
        lines += [
            "",
            "### Busy-cell clusters (Figure 11)",
            "",
            f"{c.k} clusters over {len(c.cell_ids)} busy cells — level ratio "
            f"**{c.level_ratio():.1f}×**, size ratio **{c.size_ratio():.1f}×**, "
            f"shape correlation **{c.shape_correlation():.2f}**",
        ]
    return "\n".join(lines)
