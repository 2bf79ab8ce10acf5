"""Compare two sets of benchmark runs metric by metric.

    python benchmarks/e2e/compare.py A.json B.json

``A.json`` and ``B.json`` are results files that ``run.py --out`` appended
runs to (for instance ten seeds of the parent commit and ten of a change,
run in alternating order).  Runs that failed a check (``correct`` false)
are left out of the numbers; each side's runs left out and operations
failed are printed first.  For each workload and metric the script prints
the median and quartiles of each side, the change of the median, and a
verdict against the metric's bound in ``BENCHMARK.json``:

* ``same``: the medians differ by no more than the bound;
* ``worse`` / ``better``: they differ by more than the bound;
* ``unresolved``: a side's inter-quartile spread exceeds the bound, so the
  sets cannot show a difference that small (unless every run of B is
  better than every run of A, which reads ``better``);
* ``missing in A`` / ``missing in B``: no correct run of that side
  reported the metric for that workload.

Metrics without a bound (the per-layer ones of traced runs) are printed
without a verdict.  The exit code is 0 only when no run failed, no metric
is missing and every bounded metric reads ``same``: 1 means the two sets
are not shown to agree.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from stats import quartiles, spread

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"

Values = dict[tuple[str, str], list[float]]


@dataclass
class Side:
    """One results file: metric values of its correct runs, and its failures."""

    values: Values = field(default_factory=lambda: defaultdict(list))
    units: dict[str, str] = field(default_factory=dict)
    runs: int = 0
    incorrect: int = 0
    attempted: int = 0
    failed: int = 0


def load(path: Path) -> Side:
    """Every run of a results file; values only from runs that were correct."""
    side = Side()
    for run in json.loads(path.read_text(encoding="utf-8"))["runs"]:
        side.runs += 1
        side.attempted += int(run["attempted"])
        side.failed += int(run["failed"])
        if not run["correct"]:
            side.incorrect += 1
            continue
        for name, metric in run["metrics"].items():
            side.values[(run["workload"], name)].append(float(metric["value"]))
            side.units[name] = metric["unit"]
    return side


def verdict(a: list[float], b: list[float], bound: float, lower_is_better: bool) -> str:
    """``same``, ``worse``, ``better`` or ``unresolved`` (B against A)."""
    sign = 1.0 if lower_is_better else -1.0
    unanimous = max(sign * x for x in b) < min(sign * x for x in a)
    if spread(a) > bound or spread(b) > bound:
        return "better" if unanimous else "unresolved"
    change = sign * (quartiles(b)[1] - quartiles(a)[1]) / quartiles(a)[1]
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "same"


def _summary(values: list[float]) -> str:
    q1, q2, q3 = quartiles(values)
    return f"{q2:.4g} [{q1:.4g}, {q3:.4g}] {len(values)}"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    a, b = load(Path(argv[0])), load(Path(argv[1]))
    agree = True
    for label, side in (("A", a), ("B", b)):
        print(
            f"{label}: {side.runs} runs, {side.incorrect} left out as incorrect; "
            f"{side.failed} of {side.attempted} operations failed"
        )
        agree = agree and side.incorrect == 0 and side.failed == 0
    print(
        f"{'workload':<13} {'metric':<30} {'A median [Q1, Q3] n':>36} "
        f"{'B median [Q1, Q3] n':>36} {'change':>8} {'bound':>6}  verdict"
    )
    units = {**a.units, **b.units}
    for key in sorted(set(a.values) | set(b.values)):
        workload, name = key
        metric = bounds.get(name)
        label = f"{name} [{units[name]}]"
        bound_text = f"{float(metric['bound']):.0%}" if metric else "-"
        if key not in a.values or key not in b.values:
            agree = False
            side_a = _summary(a.values[key]) if key in a.values else "-"
            side_b = _summary(b.values[key]) if key in b.values else "-"
            missing = "missing in A" if key not in a.values else "missing in B"
            print(
                f"{workload:<13} {label:<30} {side_a:>36} {side_b:>36} "
                f"{'':>8} {bound_text:>6}  {missing}"
            )
            continue
        qa, qb = quartiles(a.values[key]), quartiles(b.values[key])
        change = (qb[1] - qa[1]) / qa[1] if qa[1] else float("nan")
        result = ""
        if metric is not None:
            result = verdict(
                a.values[key], b.values[key], float(metric["bound"]), metric["better"] == "lower"
            )
            agree = agree and result == "same"
        print(
            f"{workload:<13} {label:<30} {_summary(a.values[key]):>36} "
            f"{_summary(b.values[key]):>36} {change:+8.1%} {bound_text:>6}  {result}"
        )
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
