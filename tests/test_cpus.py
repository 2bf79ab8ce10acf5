"""``--workers 0`` sizes pools to the CPUs in the process's affinity mask."""

import os

import pytest

from repro.cdr.columnar import ColumnarCDRBatch
from repro.cdr.records import ConnectionRecord
from repro.cdr.store import write_sharded_cdrz
from repro.cli import main
from repro.cpus import available_cpus
from repro.service import ServiceConfig, ServiceState
from repro.service.state import map_shards_fused
from repro.simulate.config import SimulationConfig
from repro.simulate.generator import TraceGenerator


@pytest.fixture()
def one_cpu_mask(monkeypatch):
    """A process pinned to CPU 0 on a machine reporting 64 CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)


@pytest.fixture()
def shards(tmp_path):
    """Three small shards, so a pool could use up to three workers."""
    records = [
        ConnectionRecord(50_000.0 + 4000.0 * i, f"car-{i % 4}", i % 9, "C2", "4G", 120.0)
        for i in range(60)
    ]
    directory = tmp_path / "shards"
    write_sharded_cdrz(directory, ColumnarCDRBatch.from_records(records), shard_rows=20)
    return directory


def test_affinity_mask_bounds_the_count(one_cpu_mask):
    assert available_cpus() == 1


def test_workers_zero_call_sites_follow_the_mask(
    one_cpu_mask, shards, monkeypatch, capsys
):
    assert TraceGenerator(SimulationConfig(n_cars=2), workers=0).workers == 1

    argv = ["analyze", "--trace", str(shards), "--scenario", "smoke", "--days", "7"]
    assert main([*argv, "--workers", "0"]) == 0
    assert "3 shard(s), 60 rows, 1 worker(s)" in capsys.readouterr().out

    requested = []

    def spy(spec, *, indices=None, workers=1):
        requested.append(workers)
        return map_shards_fused(spec, indices=indices, workers=workers)

    monkeypatch.setattr("repro.service.state.map_shards_fused", spy)
    config = ServiceConfig(trace=str(shards), scenario="smoke", days=7, workers=0)
    ServiceState(config).refresh()
    assert requested == [1]


def test_falls_back_to_cpu_count_without_affinity(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert available_cpus() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert available_cpus() == 1
