"""``benchmarks/output_change.py`` scores each statistic against the seed spread."""

from __future__ import annotations

import json
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


def run_args(*args: str) -> subprocess.CompletedProcess[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), os.environ.get("PYTHONPATH", "")) if p
    )
    return subprocess.run(
        [sys.executable, str(SCRIPT), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


def run_script(parent: Path, change: Path) -> subprocess.CompletedProcess[str]:
    return run_args(str(parent), str(change), "--scenario", "smoke", "--days", "3")


def write_summaries(traces: Path, out: Path) -> Path:
    proc = run_args(str(traces), "--scenario", "smoke", "--days", "3",
                    "--write", str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return out


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


def test_load_seed_summaries_score_a_change_on_fixed_traces(traces, tmp_path):
    parent = write_summaries(traces["parent"], tmp_path / "parent.json")
    payload = json.loads(parent.read_text())
    assert payload["load_seed"] == 11
    assert sorted(payload["summaries"]) == ["11", "12", "13", "14", "15"]
    assert sorted(payload["summaries"]["12"]) == [f"seed-{s}.cdrz" for s in SEEDS]
    # The same code summarises the same traces the same way: nothing moves.
    same = write_summaries(traces["same"], tmp_path / "same.json")
    proc = run_args(str(parent), str(same))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "(3 traces x 5 load seeds)" in proc.stdout.splitlines()[0]
    statistics = verdicts(proc.stdout)
    assert "busy_share" in statistics
    assert set(statistics.values()) == {"ok"}
    # Other traces under the same names move further than re-seeding does.
    other = write_summaries(traces["other"], tmp_path / "other.json")
    proc = run_args(str(parent), str(other))
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert verdicts(proc.stdout)["handover_rate"] == "MOVED"


def test_load_seed_scoring_needs_a_spread(traces, tmp_path):
    written = write_summaries(traces["parent"], tmp_path / "parent.json")
    payload = json.loads(written.read_text())
    payload["summaries"] = {"11": payload["summaries"]["11"]}
    single = tmp_path / "single.json"
    single.write_text(json.dumps(payload))
    proc = run_args(str(single), str(single))
    assert proc.returncode == 2
    assert "at least two load seeds" in proc.stderr
    assert "Traceback" not in proc.stderr
