"""CLI surface of the service: serve/query commands, inspect aggregates,
and the shared ``--workers`` contract."""

import argparse

from repro.cdr.columnar import ColumnarCDRBatch
from repro.cdr.records import ConnectionRecord
from repro.cdr.store import write_batch_cdrz, write_sharded_cdrz
from repro.cli import build_parser, main


def workers_help(parser: argparse.ArgumentParser, command: str) -> str:
    subparsers = next(
        action
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    sub = subparsers.choices[command]
    action = next(a for a in sub._actions if "--workers" in a.option_strings)
    assert action.default == 1
    assert action.help is not None
    return action.help


class TestWorkersAlignment:
    def test_analyze_serve_twin_document_workers_identically(self):
        """One semantics, one help string: 0 = all CPUs, everywhere."""
        parser = build_parser()
        texts = {
            command: workers_help(parser, command)
            for command in ("analyze", "serve", "twin")
        }
        assert len(set(texts.values())) == 1, texts
        assert "0 = one per CPU" in texts["analyze"]


def make_batch(n=60):
    records = [
        ConnectionRecord(
            50_000.0 + 4000.0 * i, f"car-{i % 4}", i % 9, "C2", "4G", 120.0
        )
        for i in range(n)
    ]
    return ColumnarCDRBatch.from_records(records)


class TestInspectDirectory:
    def test_prints_aggregate_totals_and_day_span(self, tmp_path, capsys):
        trace = tmp_path / "trace"
        write_sharded_cdrz(trace, make_batch(), shard_rows=25)
        assert main(["inspect", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "3 shard(s), 60 rows" in out
        # Rows run from t=50000 (day 0) to t=286120 (day 3).
        assert "day span 0..3 (4 day(s))" in out
        # Header-only: no per-member array listing for directories.
        assert "car_code" not in out

    def test_single_file_keeps_the_member_listing(self, tmp_path, capsys):
        path = tmp_path / "trace.cdrz"
        write_batch_cdrz(path, make_batch())
        assert main(["inspect", str(path)]) == 0
        out = capsys.readouterr().out
        assert "car_code" in out
        assert "cdrz schema v1" in out

    def test_empty_directory_reports_zero_totals(self, tmp_path, capsys):
        trace = tmp_path / "trace"
        write_sharded_cdrz(trace, ColumnarCDRBatch.from_records([]), shard_rows=10)
        assert main(["inspect", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "1 shard(s), 0 rows" in out
        assert "day span" not in out


class TestServeCommand:
    def test_rejects_missing_trace(self, tmp_path, capsys):
        code = main(
            [
                "serve",
                "--trace",
                str(tmp_path / "does-not-exist"),
                "--days",
                "6",
            ]
        )
        assert code == 2
        assert "cdrz trace" in capsys.readouterr().err


class TestQueryCommand:
    def test_unreachable_service_fails_cleanly(self, capsys):
        code = main(["query", "summary", "--port", "1"])
        assert code == 2
        assert "cannot reach service" in capsys.readouterr().err

    def test_malformed_param_is_rejected(self, capsys):
        code = main(["query", "summary", "--param", "no-equals-sign"])
        assert code == 2
        assert "KEY=VALUE" in capsys.readouterr().err

    def test_unresolvable_host_fails_cleanly(self, capsys):
        # Regression: a bad hostname raises socket.gaierror — an OSError
        # that is *not* a ConnectionError — and used to escape as a
        # traceback instead of the one-line connection error.
        code = main(
            ["query", "summary", "--host", "no-such-host.invalid", "--port", "1"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "cannot reach service" in err
        assert "Traceback" not in err
