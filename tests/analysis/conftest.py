"""Helpers for the repro-lint test suite."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.config import LintConfig
from repro.analysis.findings import Finding
from repro.analysis.parallel import ScanSpec, scan_file

FIXTURES = Path(__file__).parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="session")
def fixture_findings():
    """Callable linting one fixture file with every per-file rule."""

    def _lint(name: str) -> list[Finding]:
        spec = ScanSpec(
            files=(str(FIXTURES / name),),
            relpaths=(name,),
            cfg=LintConfig(root=FIXTURES),
        )
        scan = scan_file(spec, 0)
        if scan.error is not None:
            raise AssertionError(f"fixture {name} failed to parse: {scan.error}")
        return list(scan.findings)

    return _lint
