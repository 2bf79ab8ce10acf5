"""The benchmark's own checks, at smoke size.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

Runs every workload once untraced and once traced through ``run.main`` on a
30-car, 7-day trace (``--days 1`` would crash the generator), and checks the
tail rule, the open-loop accounting and that a corrupted reply is counted.
"""

from __future__ import annotations

import json
import math
from itertools import repeat
from pathlib import Path

import compare
import pytest
import run
import workloads
from loadgen import open_loop
from stats import tail, tail_percentile

SMOKE = workloads.Sizes(
    fleet_cars=30,
    fleet_days=7,
    season_cars=30,
    season_days=7,
    shard_rows=500,
    ingest_start_day=3,
    ingests=3,
    cold_starts=1,
    min_reps=1,
    timeline_every=5,
    hit_samples=100,
)
SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def run_smoke(
    monkeypatch: pytest.MonkeyPatch,
    capsys: pytest.CaptureFixture[str],
    tmp_path: Path,
    workload: str,
    trace: int,
) -> tuple[int, dict[str, object], dict[str, object]]:
    """``(exit code, last stdout line, results-file run)`` of one smoke run."""
    monkeypatch.setattr(run, "FULL", SMOKE)
    out = tmp_path / "results.json"
    code = run.main(
        ["--workload", workload, "--seed", "5", "--seconds", "1",
         "--trace", str(trace), "--out", str(out)]
    )
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    return code, last, json.loads(out.read_text())["runs"][-1]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_emitted_with_its_unit(monkeypatch, capsys, tmp_path, workload, trace):
    code, last, saved = run_smoke(monkeypatch, capsys, tmp_path, workload, trace)
    assert code == 0, saved["errors"]
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(last["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        emitted = last["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert math.isfinite(emitted["value"]), metric["name"]
        if not trace:
            assert emitted["value"] > 0, metric["name"]


def test_tail_needs_ten_samples_beyond():
    assert tail_percentile(1000) == 99.0
    assert tail_percentile(999) == 98.0
    assert tail_percentile(500) == 98.0
    assert tail_percentile(150) == 90.0
    assert tail_percentile(149) == 90.0
    assert tail_percentile(99) == 80.0
    assert tail_percentile(30) == 66.0
    assert tail_percentile(29) is None
    values = [float(v) for v in range(1, 151)]
    q, value = tail(values)
    assert q == 90.0 and sum(v > value for v in values) >= 10
    assert tail([3.0, 1.0, 2.0]) == (100.0, 3.0)


def test_open_loop_counts_a_stall_against_the_requests_behind_it():
    now = [0.0]
    sent: list[str] = []

    def fetch(path: str) -> tuple[int, bytes]:
        now[0] += 0.2 if len(sent) == 2 else 0.001
        sent.append(path)
        return 200, b"{}"

    def sleep(seconds: float) -> None:
        now[0] += seconds

    samples = open_loop(
        fetch,
        repeat(("projection", "/query/summary")),
        rate=100.0,
        done=lambda elapsed: elapsed >= 0.5,
        check=lambda path, status, body: True,
        clock=lambda: now[0],
        sleep=sleep,
    )
    assert len(samples) == 50
    stall_end = 0.02 + 0.2
    # Requests due while request 2 stalled were sent late, and their
    # latency runs from when they were due, not from when they were sent.
    for index in range(3, 22):
        due = index / 100.0
        assert samples[index].late_s >= stall_end - due - 1e-9
        assert samples[index].latency_s >= stall_end - due
    assert samples[1].latency_s == pytest.approx(0.001)


def _results(path: Path, *runs: dict[str, object]) -> str:
    path.write_text(json.dumps({"runs": list(runs)}))
    return str(path)


def _run(workload: str, value: float, correct: bool = True) -> dict[str, object]:
    return {
        "workload": workload,
        "correct": correct,
        "attempted": 9,
        "failed": 0 if correct else 1,
        "metrics": {
            m["name"]: {"value": value, "unit": m["unit"]} for m in SPEC["end_to_end"]
        },
    }


def test_compare_counts_failed_runs_and_missing_metrics(tmp_path, capsys):
    a = _results(tmp_path / "a.json", *(_run("fleet", v) for v in (1.0, 1.01, 0.99)))
    same = _results(tmp_path / "same.json", *(_run("fleet", v) for v in (1.0, 1.02, 0.98)))
    assert compare.main([a, same]) == 0

    # A run that crashed fast is left out of the numbers and fails the comparison.
    crashed = _results(
        tmp_path / "crashed.json",
        *(_run("fleet", v) for v in (1.0, 1.02, 0.98)),
        _run("fleet", 0.01, correct=False),
    )
    side = compare.load(Path(crashed))
    assert side.values[("fleet", "setup_s")] == [1.0, 1.02, 0.98]
    assert (side.incorrect, side.attempted, side.failed) == (1, 36, 1)
    capsys.readouterr()
    assert compare.main([a, crashed]) == 1
    assert "1 left out as incorrect; 1 of 36 operations failed" in capsys.readouterr().out

    # A workload whose runs all failed reports no metric: that is not agreement.
    empty = {**_run("fleet", 1.0, correct=False), "metrics": {}}
    gone = _results(tmp_path / "gone.json", empty)
    assert compare.main([a, gone]) == 1
    assert "missing in B" in capsys.readouterr().out
    extra = _results(tmp_path / "extra.json", *(_run(w, 1.0) for w in ("fleet", "season")))
    assert compare.main([extra, same]) == 1
    assert "missing in B" in capsys.readouterr().out


def test_a_corrupted_reply_counts_as_a_failure(monkeypatch, capsys, tmp_path):
    from repro.service.client import ServiceClient

    real = ServiceClient.request_bytes
    replies = [0]

    def corrupting(self, method: str, path: str) -> tuple[int, bytes]:
        status, body = real(self, method, path)
        replies[0] += 1
        if replies[0] == 40:
            body = body[:-1] + b" "
        return status, body

    monkeypatch.setattr(ServiceClient, "request_bytes", corrupting)
    code, last, saved = run_smoke(monkeypatch, capsys, tmp_path, "serve-read", 0)
    assert code == 1
    assert last["correct"] is False and last["failed"] == 1
    assert saved["errors"]
