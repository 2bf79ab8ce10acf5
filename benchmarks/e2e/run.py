"""End-to-end benchmark of the CLI and the daemon: one command, every metric.

    python benchmarks/e2e/run.py --seed 1 --out benchmarks/e2e/out/results.json
    python benchmarks/e2e/run.py --workload season --seed 3 --seconds 20 --trace 1

Runs the seeded workloads (all four by default) against ``repro-cars`` and
its daemon in fresh processes, checks every output, and prints each metric
by name with its unit.  ``--trace`` replays the same operations with every
layer call in a span and prints per-layer metrics and self-time tables
instead; spans are written next to ``--out`` (or under ``out/``).  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--out`` appends the runs, with their sample
counts and extra facts, to a results file that ``compare.py`` reads.

The exit code is 0 only when every operation succeeded and every check
passed.  Run from a checkout: the benchmark needs the repository's
``src/``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import sys
import tempfile
import traceback
from pathlib import Path

from traced import run_traced
from workloads import FULL, WORKLOADS, Outcome, run_untraced

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
OUT = HERE / "out"

#: One workload must finish well inside the three minutes a run may take.
WATCHDOG_S = 170


def _overtime(signum: int, frame: object) -> None:
    raise TimeoutError(f"workload ran longer than {WATCHDOG_S} s")


def _terminated(signum: int, frame: object) -> None:
    # Unwind through every ``finally``, which stops the children.
    sys.exit(128 + signum)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload",
        default="all",
        choices=("all", *WORKLOADS),
    )
    parser.add_argument("--seed", type=int, default=1, help="input seed")
    parser.add_argument(
        "--seconds", type=float, default=20.0, help="measurement window of one run"
    )
    parser.add_argument(
        "--trace",
        type=int,
        default=0,
        choices=(0, 1),
        help="1: traced replay with per-layer metrics",
    )
    parser.add_argument("--out", type=Path, default=None, help="results file to append to")
    return parser.parse_args(argv)


def metrics_json(outcome: Outcome) -> dict[str, dict[str, object]]:
    return {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in outcome.metrics.items()
    }


def print_report(outcome: Outcome, seed: int, seconds: float, trace: int) -> None:
    mode = "traced" if trace else "untraced"
    print(f"== {outcome.workload} (seed {seed}, {seconds:g} s, {mode}) ==")
    for name, (value, unit) in outcome.metrics.items():
        print(f"  {name:<32} {value:14.4f} {unit}")
    for key, value in outcome.info.items():
        shown = f"{value:.4f}" if isinstance(value, float) else value
        print(f"  . {key}: {shown}")
    for line in outcome.report:
        print(line)
    print(f"  operations: {outcome.attempted} attempted, {outcome.failed} failed")
    for problem in outcome.errors:
        print(f"  FAILED: {problem}")


def append_results(path: Path, runs: list[dict[str, object]]) -> None:
    doc: dict[str, list[dict[str, object]]] = {"runs": []}
    if path.exists():
        doc = json.loads(path.read_text(encoding="utf-8"))
    doc["runs"].extend(runs)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def measure(name: str, args: argparse.Namespace) -> Outcome:
    """One workload's outcome; a crash or an overrun is a failed operation."""
    work = Path(tempfile.mkdtemp(prefix=f"work-{name}-", dir=OUT))
    previous = signal.signal(signal.SIGALRM, _overtime)
    signal.alarm(WATCHDOG_S)
    try:
        if args.trace:
            stem = args.out.with_suffix("") if args.out else OUT / "spans"
            spans = stem.parent / f"{stem.name}-{name}-seed{args.seed}.spans.json"
            return run_traced(name, FULL, args.seed, work, spans)
        return run_untraced(name, FULL, args.seed, args.seconds, work)
    except Exception as exc:  # reported in the result line, not raised
        traceback.print_exc()
        outcome = Outcome(name)
        outcome.op(False, f"{type(exc).__name__}: {exc}")
        return outcome
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
        shutil.rmtree(work, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"cannot benchmark: no repro sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    outcomes = []
    # A caught signal resets to the default in an exec'd child, an ignored
    # one stays ignored: catching SIGINT here keeps every daemon stoppable
    # by SIGINT even when this process was started with SIGINT ignored.
    previous = (
        signal.signal(signal.SIGTERM, _terminated),
        signal.signal(signal.SIGINT, signal.default_int_handler),
    )
    try:
        for name in WORKLOADS if args.workload == "all" else (args.workload,):
            outcome = measure(name, args)
            print_report(outcome, args.seed, args.seconds, args.trace)
            outcomes.append(outcome)
    finally:
        signal.signal(signal.SIGTERM, previous[0])
        signal.signal(signal.SIGINT, previous[1])

    if args.out is not None:
        append_results(
            args.out,
            [
                {
                    "workload": o.workload,
                    "seed": args.seed,
                    "seconds": args.seconds,
                    "trace": args.trace,
                    "correct": o.correct,
                    "attempted": o.attempted,
                    "failed": o.failed,
                    "metrics": metrics_json(o),
                    "info": o.info,
                    "errors": o.errors,
                }
                for o in outcomes
            ],
        )
    if len(outcomes) == 1:
        metrics = metrics_json(outcomes[0])
    else:
        metrics = {
            f"{o.workload}/{name}": value
            for o in outcomes
            for name, value in metrics_json(o).items()
        }
    correct = all(o.correct for o in outcomes)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(o.attempted for o in outcomes),
                "failed": sum(o.failed for o in outcomes),
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
