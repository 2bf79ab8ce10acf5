"""Lint runner: discovery, per-file pass, whole-program pass, baseline split.

Discovery is sorted — the linter obeys its own RL004 — so two runs over
the same tree report findings in the same order byte for byte, which the
CI artifact diffing relies on.  ``jobs > 1`` fans the per-file pass over a
process pool (:mod:`repro.analysis.parallel`) whose ordered ``imap`` keeps
that guarantee at any worker count.

After the per-file pass the runner builds one
:class:`~repro.analysis.project.ProjectContext` from every successfully
parsed file (plus the configured test tree) and runs the cross-module
rules (RL010+) over it.  Project findings flow through the same severity
scoping, fingerprinting and baseline machinery as per-file findings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.baseline import Baseline
from repro.analysis.config import LintConfig
from repro.analysis.context import FileContext, parse_file_context
from repro.analysis.findings import (
    Finding,
    Severity,
    fingerprint_findings,
    sort_key,
)
from repro.analysis.parallel import FileScan, ScanSpec, scan_file, scan_parallel
from repro.analysis.project import ProjectContext
from repro.analysis.registry import all_rules, project_rules


@dataclass(frozen=True)
class ParseFailure:
    """A file the runner could not analyze (syntax or IO error)."""

    path: str
    error: str


@dataclass
class LintResult:
    """Outcome of one run: active findings, suppressed findings, failures."""

    findings: list[Finding] = field(default_factory=list)
    baselined: list[Finding] = field(default_factory=list)
    failures: list[ParseFailure] = field(default_factory=list)
    files_checked: int = 0

    @property
    def errors(self) -> list[Finding]:
        return [f for f in self.findings if f.severity is Severity.ERROR]

    @property
    def warnings(self) -> list[Finding]:
        return [f for f in self.findings if f.severity is Severity.WARNING]

    def exit_code(self) -> int:
        """0 clean, 1 findings at error severity, 2 unanalyzable files."""
        if self.failures:
            return 2
        return 1 if self.errors else 0


def discover_files(paths: tuple[str, ...], cfg: LintConfig) -> list[Path]:
    """Python files under ``paths``, sorted, exclusions applied.

    Explicitly named files are always linted, even under an excluded
    directory — that is how the fixture tests exercise rules on snippets
    living in an excluded ``fixtures/`` tree.
    """
    out: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if not path.is_absolute():
            path = cfg.root / path
        if path.is_file():
            out.append(path)
        elif path.is_dir():
            out.extend(
                p
                for p in sorted(path.rglob("*.py"))
                if not cfg.is_excluded(p.relative_to(path))
            )
    unique = sorted(set(out))
    return unique


def _relpath(path: Path, root: Path) -> str:
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def _scan_files(files: list[Path], cfg: LintConfig, jobs: int) -> list[FileScan]:
    """Per-file pass over ``files``, serial or pooled, in path order."""
    spec = ScanSpec(
        files=tuple(str(f) for f in files),
        relpaths=tuple(_relpath(f, cfg.root) for f in files),
        cfg=cfg,
    )
    n_workers = min(jobs, len(files))
    if n_workers <= 1:
        return [scan_file(spec, i) for i in range(len(files))]
    return scan_parallel(spec, n_workers)


def _test_contexts(cfg: LintConfig) -> list[FileContext]:
    """Parsed test-tree files for the parity-contract index.

    Unreadable or unparsable test files are skipped silently here: the
    test tree is evidence for RL017, not a lint target, and the test suite
    itself fails loudly on its own syntax errors.
    """
    contexts: list[FileContext] = []
    for path in discover_files(cfg.test_paths, cfg):
        relpath = _relpath(path, cfg.root)
        try:
            contexts.append(parse_file_context(relpath, path.read_text()))
        except (OSError, SyntaxError, UnicodeDecodeError):
            continue
    return contexts


def _project_findings(
    contexts: list[FileContext], cfg: LintConfig
) -> list[Finding]:
    """Cross-module findings, severity-scoped and fingerprinted."""
    rules = project_rules(ignore=cfg.ignore)
    if not rules:
        return []
    project = ProjectContext(contexts, cfg, test_contexts=_test_contexts(cfg))
    raw: list[Finding] = []
    for rule in rules:
        for finding in rule.check_project(project):
            raw.append(
                finding.with_severity(
                    cfg.severity_for(finding.severity, finding.path)
                )
            )
    lines_by_path = {ctx.path: ctx.lines for ctx in contexts}
    by_path: dict[str, list[Finding]] = {}
    for finding in raw:
        by_path.setdefault(finding.path, []).append(finding)
    out: list[Finding] = []
    for path in sorted(by_path):
        out.extend(
            fingerprint_findings(by_path[path], lines_by_path.get(path, []))
        )
    return out


def lint_paths(
    paths: tuple[str, ...],
    cfg: LintConfig,
    baseline: Baseline | None = None,
    jobs: int = 1,
) -> LintResult:
    """Run every registered rule — per-file then cross-module — over ``paths``."""
    all_rules(ignore=cfg.ignore)  # fail fast on a malformed registry
    baseline = baseline if baseline is not None else Baseline()
    result = LintResult()
    files = discover_files(paths, cfg)
    contexts: list[FileContext] = []
    collected: list[Finding] = []
    for scan in _scan_files(files, cfg, jobs):
        result.files_checked += 1
        if scan.error is not None or scan.tree is None:
            result.failures.append(
                ParseFailure(path=scan.relpath, error=scan.error or "")
            )
            continue
        contexts.append(
            FileContext(path=scan.relpath, source=scan.source, tree=scan.tree)
        )
        collected.extend(scan.findings)
    collected.extend(_project_findings(contexts, cfg))
    for finding in collected:
        if finding.fingerprint in baseline:
            result.baselined.append(finding)
        else:
            result.findings.append(finding)
    result.findings.sort(key=sort_key)
    result.baselined.sort(key=sort_key)
    result.failures.sort(key=lambda f: f.path)
    return result
