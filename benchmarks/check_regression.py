"""Compare fresh benchmark runs against the committed repo-root baselines.

The committed ``BENCH_analysis.json`` / ``BENCH_scale.json`` /
``BENCH_service.json`` / ``BENCH_twin.json`` at the repo root pin the
performance story each PR
ships with.  Absolute wall times are machine-specific, so the comparison
uses the *ratios* the benches already compute — the fused-vs-reference
pipeline speedup, the map-reduce worker scaling, the service's warm-cache
and incremental-ingest speedups, and the twin search's convergence gain —
which transfer across hosts.  A fresh run must stay above both the hard
floors the benches assert and a fraction of the committed baseline, so a
silent slide from, say, 18x fused down to 13x fails CI even though 13x
would still clear the 12.5x hard floor.

Usage (after running the benches)::

    python benchmarks/check_regression.py
    python benchmarks/check_regression.py --allowed-drop 0.3

Exit status: 0 when every ratio holds, 1 on any regression, 2 when a fresh
benchmark file is missing (the benches did not run).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
FRESH_DIR = REPO_ROOT / "benchmarks" / "out"

#: (file, dotted path to the ratio, hard floor or None, track baseline)
#: The warm-cache ratio spans four orders of magnitude (a sub-millisecond
#: cache hit against a minutes-long cold sweep), so proportional drift
#: against the committed baseline is pure noise there — only its generous
#: hard floor gates it.
RATIOS = (
    ("BENCH_analysis.json", "pipeline_run.fused_speedup_vs_reference", 12.5, True),
    ("BENCH_scale.json", "speedup_at_4_workers", None, True),
    ("BENCH_service.json", "warm_speedup_vs_cold_cli", 50.0, False),
    ("BENCH_service.json", "ingest_speedup_vs_full", 4.0, True),
    # Seeded and single-process: the gain is bit-deterministic, so any
    # drop below baseline means the search or its statistics changed.
    ("BENCH_twin.json", "convergence_gain", 1.5, True),
)


def dig(payload: dict, dotted: str) -> float | None:
    node = payload
    for key in dotted.split("."):
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    return float(node) if isinstance(node, (int, float)) else None


def check(baseline_dir: Path, fresh_dir: Path, allowed_drop: float) -> int:
    failures: list[str] = []
    missing_fresh = False
    for filename, dotted, hard_floor, track_baseline in RATIOS:
        fresh_path = fresh_dir / filename
        if not fresh_path.exists():
            print(f"MISSING fresh {fresh_path} — run the benches first")
            missing_fresh = True
            continue
        fresh_payload = json.loads(fresh_path.read_text())
        fresh = dig(fresh_payload, dotted)
        if fresh is None:
            failures.append(f"{filename}: fresh run lacks `{dotted}`")
            continue
        if filename == "BENCH_scale.json" and not fresh_payload.get(
            "speedup_floor_asserted", False
        ):
            # The scale bench only vouches for its ratio on hosts with
            # enough cores; mirror that gate here.
            print(f"skip  {dotted}: host too small to assert scaling")
            continue

        floor = hard_floor
        baseline_path = baseline_dir / filename
        baseline = None
        if track_baseline and baseline_path.exists():
            baseline = dig(json.loads(baseline_path.read_text()), dotted)
        if baseline is not None:
            relative_floor = baseline * (1.0 - allowed_drop)
            floor = max(floor, relative_floor) if floor else relative_floor
        if floor is None:
            print(f"skip  {dotted}: no baseline and no hard floor")
            continue
        status = "ok   " if fresh >= floor else "FAIL "
        print(
            f"{status}{dotted}: fresh {fresh:.2f} vs floor {floor:.2f}"
            + (f" (baseline {baseline:.2f})" if baseline is not None else "")
        )
        if fresh < floor:
            failures.append(
                f"{filename}: `{dotted}` regressed to {fresh:.2f} "
                f"(floor {floor:.2f})"
            )
    if missing_fresh:
        return 2
    if failures:
        print("\nperformance regression detected:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("\nall benchmark ratios within bounds")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline-dir",
        type=Path,
        default=REPO_ROOT,
        help="directory holding the committed BENCH_*.json baselines",
    )
    parser.add_argument(
        "--fresh-dir",
        type=Path,
        default=FRESH_DIR,
        help="directory holding the freshly produced BENCH_*.json files",
    )
    parser.add_argument(
        "--allowed-drop",
        type=float,
        default=0.4,
        help="tolerated fractional drop below the committed ratio "
        "(0.4 = fresh may be as low as 60%% of baseline)",
    )
    args = parser.parse_args()
    if not 0.0 <= args.allowed_drop < 1.0:
        parser.error("--allowed-drop must be in [0, 1)")
    return check(args.baseline_dir, args.fresh_dir, args.allowed_drop)


if __name__ == "__main__":
    sys.exit(main())
