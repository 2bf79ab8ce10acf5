"""Terminal visualization helpers.

The paper communicates through plots; a library reproduction that runs in a
terminal needs readable text renderings of the same shapes.  These helpers
cover what the CLI, the examples and the benchmarks print: sparklines (a
cell's day of PRB utilization, departures by hour), horizontal bar charts
and per-row interval timelines (Fig 8).  All return plain strings; none
import plotting libraries.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.algorithms.intervals import Interval

#: Eight-level block characters for sparklines.
SPARK_BLOCKS = "▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float], width: int | None = None) -> str:
    """One-line block rendering of a numeric series.

    Values are min-max scaled; a constant series renders at the lowest
    level.  When ``width`` is given the series is mean-pooled down to it.
    """
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return ""
    if width is not None and width > 0 and arr.size > width:
        step = arr.size / width
        arr = np.asarray(
            [arr[int(i * step) : max(int((i + 1) * step), int(i * step) + 1)].mean()
             for i in range(width)]
        )
    lo, hi = float(arr.min()), float(arr.max())
    if hi == lo:
        return SPARK_BLOCKS[0] * arr.size
    scaled = (arr - lo) / (hi - lo)
    return "".join(
        SPARK_BLOCKS[min(int(v * len(SPARK_BLOCKS)), len(SPARK_BLOCKS) - 1)]
        for v in scaled
    )


def hbar_chart(
    labels: Sequence[str],
    values: Sequence[float],
    width: int = 50,
    fmt: str = "{:.2f}",
) -> str:
    """Horizontal bar chart, one row per (label, value)."""
    if len(labels) != len(values):
        raise ValueError(
            f"labels and values differ in length: {len(labels)} vs {len(values)}"
        )
    if not labels:
        return ""
    peak = max(max(values), 1e-12)
    label_width = max(len(str(label)) for label in labels)
    lines = []
    for label, value in zip(labels, values):
        bar = "#" * int(round(width * value / peak))
        lines.append(f"{str(label):>{label_width}} | {fmt.format(value):>8} {bar}")
    return "\n".join(lines)


def interval_timeline(
    rows: dict[str, list[Interval]],
    window_start: float,
    window_end: float,
    width: int = 96,
    max_rows: int = 40,
) -> str:
    """Figure 8-style timeline: one row per key, ticks where intervals sit.

    Rows beyond ``max_rows`` are summarized with a trailing count.
    """
    if window_end <= window_start:
        raise ValueError("window must have positive extent")
    span = window_end - window_start
    lines = []
    for i, (key, intervals) in enumerate(sorted(rows.items())):
        if i >= max_rows:
            lines.append(f"... and {len(rows) - max_rows} more rows")
            break
        cells = [" "] * width
        for iv in intervals:
            first = int((max(iv.start, window_start) - window_start) / span * width)
            last = int(
                (min(iv.end, window_end) - window_start - 1e-9) / span * width
            )
            for c in range(max(first, 0), min(last, width - 1) + 1):
                cells[c] = "-"
        lines.append(f"{key:>14} |{''.join(cells)}|")
    return "\n".join(lines)
