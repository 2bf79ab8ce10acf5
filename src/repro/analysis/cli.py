"""The ``repro-lint`` command.

Usage::

    repro-lint [PATHS ...]            # lint (default: src, per pyproject)
    repro-lint --jobs 0 src/          # pooled scan, one worker per CPU
    repro-lint --format json src/     # CI artifact output
    repro-lint --format sarif src/    # code-scanning upload format
    repro-lint --write-baseline src/  # grandfather current findings
    repro-lint --list-rules           # rule ids, severities, rationales

Exit codes: 0 clean (warnings allowed unless ``--strict``), 1 findings at
error severity, 2 unanalyzable input or bad invocation.  Reports on stdout
are byte-identical at any ``--jobs`` value; the wall-time summary goes to
stderr so timing noise never touches the diffable artifact.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

from repro.analysis.baseline import Baseline
from repro.analysis.config import LintConfig, load_config
from repro.analysis.registry import all_rules
from repro.analysis.reporting import render_json, render_sarif, render_text
from repro.analysis.runner import lint_paths
from repro.cpus import available_cpus


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "Determinism- and correctness-focused static analysis for the "
            "connected-cars reproduction."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: from pyproject / 'src')",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for the per-file pass "
        "(0 = one per CPU this process may use; default: 1, serial)",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        help="baseline file path (default: from pyproject / "
        ".repro-lint-baseline.json)",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore the baseline file entirely",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="write all current findings to the baseline file and exit 0",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="treat every finding as an error regardless of path",
    )
    parser.add_argument(
        "--ignore",
        action="append",
        default=[],
        metavar="RULE_ID",
        help="disable a rule (repeatable)",
    )
    parser.add_argument(
        "--root",
        default=None,
        help="project root for relative paths and pyproject discovery "
        "(default: cwd)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print every registered rule and exit",
    )
    return parser


def _list_rules(ignore: tuple[str, ...]) -> str:
    lines = []
    for rule in all_rules(ignore=ignore):
        lines.append(
            f"{rule.rule_id}  {rule.name}  [{rule.default_severity}]"
        )
        lines.append(f"    {rule.rationale}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    root = Path(args.root) if args.root else Path.cwd()
    try:
        cfg: LintConfig = load_config(root)
    except ValueError as exc:
        print(f"repro-lint: {exc}", file=sys.stderr)
        return 2
    cfg = replace(
        cfg,
        strict=args.strict or cfg.strict,
        ignore=tuple(args.ignore) + cfg.ignore,
    )
    if args.baseline:
        cfg = replace(cfg, baseline_path=args.baseline)

    if args.list_rules:
        print(_list_rules(cfg.ignore))
        return 0

    paths = tuple(args.paths) if args.paths else cfg.paths
    baseline_file = root / cfg.baseline_path
    if args.jobs < 0:
        print(f"repro-lint: --jobs must be >= 0, got {args.jobs}", file=sys.stderr)
        return 2
    jobs = args.jobs or available_cpus()

    if args.write_baseline:
        result = lint_paths(paths, cfg, baseline=Baseline(), jobs=jobs)
        if result.failures:
            print(render_text(result), file=sys.stderr)
            return 2
        Baseline.from_findings(result.findings).write(baseline_file)
        print(
            f"wrote {len(result.findings)} findings to {baseline_file}",
            file=sys.stderr,
        )
        return 0

    try:
        baseline = (
            Baseline() if args.no_baseline else Baseline.load(baseline_file)
        )
    except ValueError as exc:
        print(f"repro-lint: {exc}", file=sys.stderr)
        return 2

    start = time.perf_counter()
    result = lint_paths(paths, cfg, baseline=baseline, jobs=jobs)
    elapsed = time.perf_counter() - start
    if args.format == "json":
        print(render_json(result))
    elif args.format == "sarif":
        print(render_sarif(result))
    else:
        print(render_text(result))
    # Timing is observational, never part of the diffable report (RL003's
    # carve-out for perf_counter): stderr only.
    print(
        f"repro-lint: {result.files_checked} files in {elapsed:.2f}s "
        f"({jobs} job{'s' if jobs != 1 else ''})",
        file=sys.stderr,
    )
    return result.exit_code()


if __name__ == "__main__":
    try:
        code = main()
    except BrokenPipeError:
        # Output was piped into something that stopped reading (head, less);
        # redirect stdout at the fd level so interpreter shutdown does not
        # raise a second time on flush.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 0
    sys.exit(code)
