"""``benchmarks/output_change.py`` scores each statistic against the seed spread."""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main

REPO = Path(__file__).resolve().parents[2]
SCRIPT = REPO / "benchmarks" / "output_change.py"
SEEDS = (1, 2, 3)


def trace_set(directory: Path, scenario: str) -> Path:
    """One small ``.cdrz`` trace per seed under ``directory``."""
    directory.mkdir()
    for seed in SEEDS:
        out = directory / f"seed-{seed}.cdrz"
        argv = ["generate", "--scenario", scenario, "--cars", "12", "--days", "3",
                "--seed", str(seed), "--out", str(out)]
        assert main(argv) == 0
    return directory


@pytest.fixture(scope="module")
def traces(tmp_path_factory) -> dict[str, Path]:
    root = tmp_path_factory.mktemp("output-change")
    parent = trace_set(root / "parent", "smoke")
    same = root / "same"
    shutil.copytree(parent, same)
    return {"parent": parent, "same": same, "other": trace_set(root / "other", "rural-sprawl")}


def run_script(parent: Path, change: Path) -> subprocess.CompletedProcess[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), os.environ.get("PYTHONPATH", "")) if p
    )
    return subprocess.run(
        [sys.executable, str(SCRIPT), str(parent), str(change),
         "--scenario", "smoke", "--days", "3"],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


def verdicts(stdout: str) -> dict[str, str]:
    rows = stdout.splitlines()[1:]
    return {row.split()[0]: row.split()[-1] for row in rows}


def test_identical_trace_sets_pass(traces):
    proc = run_script(traces["parent"], traces["same"])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    statistics = verdicts(proc.stdout)
    assert "handover_rate" in statistics and "busy_share" in statistics
    assert set(statistics.values()) == {"ok"}


def test_another_scenario_fails(traces):
    proc = run_script(traces["parent"], traces["other"])
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert verdicts(proc.stdout)["handover_rate"] == "MOVED"
