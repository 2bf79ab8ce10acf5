"""CLI surface of the service: serve/query commands, inspect aggregates,
and the shared ``--workers`` contract."""

import argparse

import pytest

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

    @pytest.mark.parametrize(
        "argv",
        [
            ["generate", "--out", "unused.csv", "--workers", "-2"],
            ["analyze", "--trace", "unused", "--workers", "-3"],
            ["serve", "--trace", "unused", "--workers", "-1"],
            ["twin", "unused", "--out", "unused.json", "--workers", "-1"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_negative_workers_exit_2_with_usage(self, argv, capsys):
        """A negative count is a usage error, never "every CPU"."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: repro {argv[0]} ")
        assert "argument --workers: must be 0 (one per CPU)" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["generate", "--out", "unused.csv", "--days", "0"],
            ["generate", "--out", "unused.csv", "--cars", "0"],
            ["generate", "--out", "unused", "--shard-rows", "0"],
            ["convert", "unused.csv", "unused", "--shard-rows", "-5"],
            ["analyze", "--trace", "unused", "--days", "0"],
            ["quality", "--trace", "unused", "--days", "-1"],
            ["fota", "--trace", "unused", "--days", "0"],
            ["journeys", "--trace", "unused", "--days", "0"],
            ["serve", "--trace", "unused", "--days", "0"],
            ["twin", "unused", "--out", "unused.json", "--days", "0"],
            ["twin", "unused", "--out", "unused.json", "--cars", "0"],
            ["fota", "--trace", "unused", "--max-concurrent", "0"],
            ["fota", "--trace", "unused", "--max-concurrent", "-1"],
        ],
        ids=lambda argv: f"{argv[0]}{argv[-2]}",
    )
    def test_non_positive_count_exit_2_with_usage(self, argv, capsys):
        """Zero or fewer days, cars, shard rows or downloads is a usage error."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: repro {argv[0]} ")
        assert f"argument {argv[-2]}: must be a positive count" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["serve", "--trace", "unused", "--cache-mb", "-1"], "must be 0 or more"),
            (["serve", "--trace", "unused", "--cache-mb", "nan"], "invalid float"),
            (["saturate", "--duration-hours", "-1"], "must be positive"),
            (["saturate", "--duration-hours", "0"], "must be positive"),
            (["saturate", "--duration-hours", "inf"], "invalid float"),
            (["saturate", "--duration-hours", "soon"], "invalid float"),
        ],
        ids=[
            "cache-mb-negative",
            "cache-mb-nan",
            "duration-negative",
            "duration-zero",
            "duration-inf",
            "duration-text",
        ],
    )
    def test_out_of_range_amount_exit_2_with_usage(self, argv, message, capsys):
        """A negative cache or a non-positive test length is a usage error."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: repro {argv[0]} ")
        assert f"argument {argv[-2]}: {message}" in err
        assert "Traceback" not in err


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
