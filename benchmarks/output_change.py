"""Score an output change one statistic at a time, against the seed spread.

    python benchmarks/output_change.py PARENT CHANGE --scenario default --days 14

PARENT and CHANGE each hold one trace per seed under the same names (a
``.cdrz`` file, a shard directory or a text trace each), written by the
parent commit's ``repro-cars generate`` and by the change's.  Every trace is
summarised with :func:`repro.twin.summary.summarize_source` against the
scenario's cells and busy schedule, and each statistic of
:func:`repro.twin.divergence.divergence` is scored on its own:

* *change*: the distance from the parent's trace to the change's, per seed;
* *spread*: the distance between the parent's traces of two seeds, per pair.

A statistic passes when the change's median is at most the spread's median
and the change's maximum at most the spread's maximum: the change moves it
no further than drawing another seed would.  A statistic the parent's
traces never score between seeds has no spread, so any change to it fails.
The exit status is 0 when every statistic passes and 1 otherwise.
"""

from __future__ import annotations

import argparse
import sys
from collections import defaultdict
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from statistics import median

from repro.simulate.scenarios import SCENARIOS
from repro.twin.divergence import divergence
from repro.twin.summary import TraceSummary, TwinContext, summarize_source, twin_context


@dataclass(frozen=True)
class StatRow:
    """One statistic's change distances against the parent's seed spread."""

    name: str
    change_median: float
    change_max: float
    spread_median: float
    spread_max: float

    @property
    def passed(self) -> bool:
        return (
            self.change_median <= self.spread_median
            and self.change_max <= self.spread_max
        )


def summaries(directory: Path, ctx: TwinContext) -> dict[str, TraceSummary]:
    """Each per-seed trace under ``directory``, summarised, by name."""
    return {path.name: summarize_source(path, ctx) for path in sorted(directory.iterdir())}


def distances(pairs: Iterable[tuple[TraceSummary, TraceSummary]]) -> dict[str, list[float]]:
    """Every statistic's distance over ``pairs``, by statistic."""
    out: dict[str, list[float]] = defaultdict(list)
    for a, b in pairs:
        for stat in divergence(a, b).stats:
            out[stat.name].append(stat.distance)
    return out


def compare(
    parent: dict[str, TraceSummary], change: dict[str, TraceSummary]
) -> list[StatRow]:
    """Score each statistic of ``change`` against ``parent``'s seed spread."""
    if sorted(parent) != sorted(change):
        raise ValueError(
            f"trace names differ: {sorted(parent)} against {sorted(change)}"
        )
    if len(parent) < 2:
        raise ValueError("the seed spread needs at least two traces per side")
    names = sorted(parent)
    moved = distances((parent[n], change[n]) for n in names)
    spread = distances(combinations([parent[n] for n in names], 2))
    rows = []
    for stat, values in moved.items():
        base = spread.get(stat) or [0.0]
        rows.append(StatRow(stat, median(values), max(values), median(base), max(base)))
    return rows


def render(rows: list[StatRow], n_seeds: int) -> str:
    lines = [
        "statistic        change median   change max   spread median   spread max"
        f"   ({n_seeds} seeds)",
    ]
    for row in rows:
        lines.append(
            f"{row.name:<16} {row.change_median:>13.4f} {row.change_max:>12.4f}"
            f" {row.spread_median:>15.4f} {row.spread_max:>12.4f}"
            f"   {'ok' if row.passed else 'MOVED'}"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="per-seed traces of the parent")
    parser.add_argument("change", type=Path, help="per-seed traces of the change")
    parser.add_argument("--scenario", required=True, choices=sorted(SCENARIOS))
    parser.add_argument("--days", type=int, required=True)
    args = parser.parse_args(argv)
    ctx = twin_context(args.scenario, args.days)
    parent = summaries(args.parent, ctx)
    rows = compare(parent, summaries(args.change, ctx))
    print(render(rows, len(parent)))
    return 0 if all(row.passed for row in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
