"""Score an output change one statistic at a time, against a seed spread.

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

A change to the load model or the summariser leaves the traces alone and
moves their summaries instead, so it is scored on fixed traces, with each
side's own code writing the summaries::

    PYTHONPATH=parent/src python benchmarks/output_change.py TRACES \
        --scenario default --days 14 --write parent.json
    PYTHONPATH=src python benchmarks/output_change.py TRACES \
        --scenario default --days 14 --write change.json
    python benchmarks/output_change.py parent.json change.json

``--write`` summarises every trace under the scenario's load seed and
each of the four after it and writes the :meth:`TraceSummary.to_json_dict`
payloads.  Given two such files, *change* is the distance from the
parent's summary of a trace to the change's, both at the scenario's load
seed, and *spread* is the distance between the parent's summaries of one
trace at two load seeds: the change must move each statistic no further
than re-seeding the parent's load model does.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from statistics import median

from repro.algorithms.timebins import StudyClock
from repro.core.busy import BusySchedule
from repro.network.load import CellLoadModel
from repro.network.topology import build_topology
from repro.simulate.scenarios import SCENARIOS, scenario
from repro.twin.divergence import divergence
from repro.twin.summary import TraceSummary, TwinContext, summarize_source, twin_context

#: Summaries by load seed, then by trace name.
LoadSeedSummaries = dict[int, dict[str, TraceSummary]]


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


def load_seed_summaries(
    directory: Path, scenario_name: str, days: int
) -> LoadSeedSummaries:
    """Each per-seed trace under ``directory``, summarised under each load seed.

    The load seeds are the scenario's and the four after it.  The topology
    is the scenario's; only the load model's seed varies.
    """
    config = scenario(scenario_name, n_cars=1, n_days=days)
    clock = StudyClock(n_days=days)
    topology = build_topology(config.topology)
    out: LoadSeedSummaries = {}
    for load_seed in range(config.load_seed, config.load_seed + 5):
        model = CellLoadModel(topology, clock, seed=load_seed)
        ctx = TwinContext(
            clock=clock,
            cells=topology.cells,
            schedule=BusySchedule.from_load_model(model),
        )
        out[load_seed] = summaries(directory, ctx)
    return out


def write_summaries(
    path: Path, scenario_name: str, days: int, by_seed: LoadSeedSummaries
) -> None:
    """One JSON file: the scenario, its load seed and every summary."""
    payload = {
        "scenario": scenario_name,
        "days": days,
        "load_seed": scenario(scenario_name, n_cars=1, n_days=days).load_seed,
        "summaries": {
            str(load_seed): {name: s.to_json_dict() for name, s in named.items()}
            for load_seed, named in by_seed.items()
        },
    }
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


def read_summaries(path: Path) -> tuple[tuple[str, int, int], LoadSeedSummaries]:
    """``((scenario, days, load seed), summaries)`` of a ``--write`` file."""
    payload = json.loads(path.read_text())
    key = (payload["scenario"], payload["days"], payload["load_seed"])
    by_seed = {
        int(load_seed): {
            name: TraceSummary.from_json_dict(obj) for name, obj in named.items()
        }
        for load_seed, named in payload["summaries"].items()
    }
    return key, by_seed


def _rows(
    moved: dict[str, list[float]], spread: dict[str, list[float]]
) -> list[StatRow]:
    rows = []
    for stat, values in moved.items():
        base = spread.get(stat) or [0.0]
        rows.append(StatRow(stat, median(values), max(values), median(base), max(base)))
    return rows


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
    return _rows(moved, spread)


def compare_load_seeds(
    parent: LoadSeedSummaries, change: LoadSeedSummaries, load_seed: int
) -> list[StatRow]:
    """Score ``change`` at ``load_seed`` against ``parent``'s load-seed spread."""
    if load_seed not in parent or load_seed not in change:
        raise ValueError(f"both sides need summaries at load seed {load_seed}")
    if len(parent) < 2:
        raise ValueError("the load-seed spread needs at least two load seeds")
    names = sorted(parent[load_seed])
    for named in (*parent.values(), change[load_seed]):
        if sorted(named) != names:
            raise ValueError(f"trace names differ: {sorted(named)} against {names}")
    moved = distances((parent[load_seed][n], change[load_seed][n]) for n in names)
    spread = distances(
        (parent[a][n], parent[b][n])
        for n in names
        for a, b in combinations(sorted(parent), 2)
    )
    return _rows(moved, spread)


def render(rows: list[StatRow], spread_of: str) -> str:
    lines = [
        "statistic        change median   change max   spread median   spread max"
        f"   ({spread_of})",
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
    parser.add_argument(
        "parent", type=Path, help="per-seed traces, or the parent's --write file"
    )
    parser.add_argument(
        "change",
        type=Path,
        nargs="?",
        help="per-seed traces, or the change's --write file",
    )
    parser.add_argument("--scenario", choices=sorted(SCENARIOS))
    parser.add_argument("--days", type=int)
    parser.add_argument(
        "--write", type=Path, help="summarise PARENT's traces into this JSON file"
    )
    args = parser.parse_args(argv)
    files = args.change is not None and args.parent.is_file() and args.change.is_file()
    if args.write is None and args.change is None:
        parser.error("give CHANGE, or --write to summarise PARENT")
    if not files and (args.scenario is None or args.days is None):
        parser.error("--scenario and --days are required for traces")
    if args.write is not None:
        by_seed = load_seed_summaries(args.parent, args.scenario, args.days)
        write_summaries(args.write, args.scenario, args.days, by_seed)
        return 0
    if files:
        parent_key, parent_by_seed = read_summaries(args.parent)
        change_key, change_by_seed = read_summaries(args.change)
        if parent_key != change_key:
            parser.error(
                f"the files summarise different studies: {parent_key} and {change_key}"
            )
        try:
            rows = compare_load_seeds(parent_by_seed, change_by_seed, parent_key[2])
        except ValueError as exc:
            parser.error(str(exc))
        n_traces = len(parent_by_seed[parent_key[2]])
        spread_of = f"{n_traces} traces x {len(parent_by_seed)} load seeds"
    else:
        ctx = twin_context(args.scenario, args.days)
        parent = summaries(args.parent, ctx)
        rows = compare(parent, summaries(args.change, ctx))
        spread_of = f"{len(parent)} seeds"
    print(render(rows, spread_of))
    return 0 if all(row.passed for row in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
