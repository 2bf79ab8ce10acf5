"""Traces out of record order: every entry point answers as if sorted.

The fused kernels weld per-car chains and network sessions forward in
time, so they need rows in record order.  Each entry point holds one
guarantee: in-memory callers sort a batch that is out of order, a map task
sorts such a shard, :func:`write_sharded_cdrz` sorts before it splits, and
the offline fold refuses shards out of start order — ``twin`` then exits 2
and ``analyze`` runs the trace in process instead.
"""

import shutil

import numpy as np
import pytest

from repro.cdr.io import write_records_csv
from repro.cdr.store import (
    read_batch_cdrz,
    read_cdrz_header,
    resolve_shards,
    write_batch_cdrz,
    write_sharded_cdrz,
)
from repro.cli import main
from repro.core.mapreduce import ShardOrderError, fold_shards_fused
from repro.simulate.generator import TraceGenerator
from repro.simulate.scenarios import scenario
from repro.twin.summary import summarize_batch, summarize_source, twin_context

DAYS = 8
SHARD_ROWS = 1000
ANALYZE = ["--scenario", "smoke", "--days", str(DAYS)]


@pytest.fixture(scope="module")
def columns():
    config = scenario("smoke", n_cars=20, n_days=DAYS)
    ordered = TraceGenerator(config).generate().batch.columnar()
    shuffled = ordered.take(np.random.default_rng(0).permutation(len(ordered)))
    return ordered, shuffled


@pytest.fixture(scope="module")
def traces(tmp_path_factory, columns):
    """The same rows sorted and shuffled, as CSV, one .cdrz and shards."""
    ordered, shuffled = columns
    root = tmp_path_factory.mktemp("unsorted")
    paths = {}
    for name, col in (("sorted", ordered), ("shuffled", shuffled)):
        write_records_csv(str(root / f"{name}.csv"), col.to_records())
        write_batch_cdrz(root / f"{name}.cdrz", col)
        paths[f"{name}.csv"] = root / f"{name}.csv"
        paths[f"{name}.cdrz"] = root / f"{name}.cdrz"
    write_sharded_cdrz(root / "sorted_dir", ordered, shard_rows=SHARD_ROWS)
    assert main(
        ["convert", str(paths["shuffled.csv"]), str(root / "shuffled_dir"),
         "--shard-rows", str(SHARD_ROWS)]
    ) == 0
    paths["sorted_dir"] = root / "sorted_dir"
    paths["shuffled_dir"] = root / "shuffled_dir"
    # Every shard sorted, but the first two in swapped file order.
    swapped = root / "swapped_dir"
    swapped.mkdir()
    shards = resolve_shards(paths["sorted_dir"])
    for index, shard in enumerate(shards):
        target = {0: 1, 1: 0}.get(index, index)
        shutil.copy(shard, swapped / f"shard-{target:05d}.cdrz")
    paths["swapped_dir"] = swapped
    return paths


def analyze(trace, workers, capsys):
    """``analyze`` stdout and stderr, without the shard fold's fan-out line."""
    assert main(["analyze", "--trace", str(trace), *ANALYZE, "--workers", workers]) == 0
    captured = capsys.readouterr()
    out = captured.out
    if out.startswith("fused map-reduce over "):
        out = out.split("\n", 1)[1]
    return out, captured.err


def test_the_shuffled_trace_is_out_of_order(traces, columns):
    assert not read_cdrz_header(traces["shuffled.cdrz"]).sorted
    assert len(resolve_shards(traces["shuffled_dir"])) > 1


def test_sharded_writer_sorts_before_it_splits(traces, columns):
    ordered, _ = columns
    shards = resolve_shards(traces["shuffled_dir"])
    assert all(read_cdrz_header(shard).sorted for shard in shards)
    start = np.concatenate([read_batch_cdrz(shard).start for shard in shards])
    assert np.array_equal(start, ordered.start)


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("name", ["shuffled.csv", "shuffled.cdrz", "shuffled_dir"])
def test_analyze_reports_the_sorted_answer(traces, capsys, name, workers):
    expected, _ = analyze(traces["sorted.csv"], "1", capsys)
    got, err = analyze(traces[name], workers, capsys)
    assert got == expected
    assert err == ""


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", ["csv", "cdrz", "_dir"])
def test_twin_summarizes_the_sorted_answer(traces, name, workers):
    ctx = twin_context("smoke", DAYS)
    dot = "" if name.startswith("_") else "."
    expected = summarize_source(traces[f"sorted{dot}{name}"], ctx)
    assert summarize_source(traces[f"shuffled{dot}{name}"], ctx, workers=workers) == expected


def test_summarize_batch_sorts_its_input(columns):
    ordered, shuffled = columns
    ctx = twin_context("smoke", DAYS)
    assert summarize_batch(shuffled, ctx) == summarize_batch(ordered, ctx)


class TestShardsOutOfStartOrder:
    def test_the_fold_refuses_them(self, traces):
        clock = twin_context("smoke", DAYS).clock
        with pytest.raises(ShardOrderError, match="shard-00001.cdrz starts at"):
            fold_shards_fused(traces["swapped_dir"], clock)

    def test_twin_exits_2_naming_both_shards(self, traces, tmp_path, capsys):
        code = main(
            ["twin", str(traces["swapped_dir"]), "--scenario", "smoke",
             "--days", str(DAYS), "--cars", "5", "--rounds", "1",
             "--out", str(tmp_path / "twin.json")]
        )
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1
        assert "shard-00001.cdrz starts at" in err[0]
        assert "last start of " in err[0] and "shard-00000.cdrz" in err[0]
        assert not (tmp_path / "twin.json").exists()

    def test_analyze_runs_them_in_process(self, traces, capsys):
        expected, _ = analyze(traces["swapped_dir"], "1", capsys)
        got, err = analyze(traces["swapped_dir"], "2", capsys)
        assert got == expected
        assert "global start order; analyzing in process" in err
