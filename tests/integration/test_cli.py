"""Integration tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import build_parser, main

#: argv of each trace-reading command besides ``analyze``, for a trace path
#: and a temporary directory.
TRACE_COMMANDS = {
    "quality": lambda trace, tmp: ["quality", "--trace", trace, "--days", "7"],
    "fota": lambda trace, tmp: ["fota", "--trace", trace, "--scenario", "smoke",
                                "--days", "7"],
    "journeys": lambda trace, tmp: ["journeys", "--trace", trace, "--scenario",
                                    "smoke", "--days", "7"],
    "inspect": lambda trace, tmp: ["inspect", trace],
    "convert": lambda trace, tmp: ["convert", trace, str(tmp / "out.cdrz")],
}


def assert_missing_trace_line(code, captured, command, trace):
    """Exit 2, nothing on stdout, one ``<command>: <trace>: ...`` line."""
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"{command}: {trace}: ")
    assert "No such file or directory" in lines[0]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_requires_out(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["generate"])

    def test_unknown_scenario_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["generate", "--scenario", "nope", "--out", "x"])


class TestWorkflows:
    @pytest.fixture(scope="class")
    def trace_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("cli") / "trace.csv"
        code = main(
            [
                "generate",
                "--scenario",
                "smoke",
                "--cars",
                "25",
                "--days",
                "7",
                "--out",
                str(path),
            ]
        )
        assert code == 0
        return path

    def test_generate_writes_csv(self, trace_path, capsys):
        assert trace_path.exists()
        header = trace_path.read_text().splitlines()[0]
        assert header == "start,car_id,cell_id,carrier,technology,duration"

    def test_generate_anonymized(self, tmp_path, capsys):
        path = tmp_path / "anon.csv"
        code = main(
            [
                "generate",
                "--scenario",
                "smoke",
                "--cars",
                "5",
                "--days",
                "7",
                "--out",
                str(path),
                "--anonymize-key",
                "k1",
            ]
        )
        assert code == 0
        body = path.read_text()
        assert "anon-" in body
        assert "car-0" not in body

    def test_generate_one_day_study(self, tmp_path, capsys):
        path = tmp_path / "one-day.csv"
        code = main(
            ["generate", "--cars", "10", "--days", "1", "--out", str(path)]
        )
        assert code == 0
        assert "(10 cars, 1 days," in capsys.readouterr().out
        assert len(path.read_text().splitlines()) > 1

    def test_analyze_one_day_study(self, tmp_path, capsys):
        path = tmp_path / "one-day.cdrz"
        assert main(["generate", "--cars", "10", "--days", "1", "--out", str(path)]) == 0
        capsys.readouterr()
        code = main(["analyze", "--trace", str(path), "--days", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "car trend: n/a (needs at least two study days)" in out
        assert "clustering skipped: study shorter than one week" in out

    def test_analyze_prints_report(self, trace_path, capsys):
        code = main(
            [
                "analyze",
                "--trace",
                str(trace_path),
                "--scenario",
                "smoke",
                "--days",
                "7",
                "--no-clustering",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Table 1" in out
        assert "Table 3" in out

    def test_quality_flags_artifacts(self, trace_path, capsys):
        code = main(["quality", "--trace", str(trace_path), "--days", "7"])
        out = capsys.readouterr().out
        assert "records examined" in out
        # The generator injects artifacts, so quality exits non-zero.
        assert code == 2

    def test_saturate_reports_saturation(self, capsys):
        code = main(["saturate", "--duration-hours", "1.0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "mean U_PRB during test" in out
        assert "GB" in out

    def test_fota_compares_policies(self, trace_path, capsys):
        code = main(
            [
                "fota",
                "--trace",
                str(trace_path),
                "--scenario",
                "smoke",
                "--days",
                "7",
                "--update-mb",
                "50",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        for name in ("naive", "off-peak", "rare-first", "busy-aware"):
            assert name in out

    def test_fota_throttled(self, trace_path, capsys):
        code = main(
            [
                "fota",
                "--trace",
                str(trace_path),
                "--scenario",
                "smoke",
                "--days",
                "7",
                "--max-concurrent",
                "2",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "naive-throttled" in out

    def test_journeys_summary(self, trace_path, capsys):
        code = main(
            [
                "journeys",
                "--trace",
                str(trace_path),
                "--scenario",
                "smoke",
                "--days",
                "7",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "journeys:" in out
        assert "median distance" in out

    @pytest.fixture(scope="class")
    def shard_dir(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("cli-stream") / "shards"
        code = main(
            [
                "generate",
                "--scenario",
                "smoke",
                "--cars",
                "25",
                "--days",
                "7",
                "--out",
                str(directory),
                "--format",
                "cdrz",
                "--shard-rows",
                "400",
            ]
        )
        assert code == 0
        return directory

    def test_analyze_shards_report_identically_at_any_worker_count(
        self, shard_dir, capsys
    ):
        outputs = []
        for workers in ("2", "3"):
            code = main(
                [
                    "analyze",
                    "--trace",
                    str(shard_dir),
                    "--scenario",
                    "smoke",
                    "--days",
                    "7",
                    "--workers",
                    workers,
                ]
            )
            out = capsys.readouterr().out
            assert code == 0
            assert "duration: median" in out
            # Everything below the run header is derived from the reduced
            # report, which must not depend on the worker count.
            outputs.append(out.split("\n", 1)[1])
        assert outputs[0] == outputs[1]

    def test_analyze_workers_routes_to_fused_mapreduce(self, shard_dir, capsys):
        # The shard fold prints one fan-out line, then exactly the report
        # the in-process run prints, Figure 9 and Figure 11 included, in
        # either format.
        for fmt in ([], ["--markdown"]):
            argv = ["analyze", "--trace", str(shard_dir), "--days", "7", *fmt]
            assert main(argv) == 0
            serial = capsys.readouterr().out
            assert main(argv + ["--workers", "2"]) == 0
            header, body = capsys.readouterr().out.split("\n", 1)
            assert header.startswith("fused map-reduce over ")
            assert "2 worker(s); peak RSS" in header
            assert body == serial
            assert "duration: median" in serial
            assert "clusters over" in serial

    @pytest.mark.parametrize(
        "argv",
        [
            ["stream", "--trace", "x", "--days", "7"],
            ["analyze", "--trace", "x", "--engine", "fused"],
        ],
    )
    def test_removed_stream_command_and_engine_flag(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "error:" in capsys.readouterr().err

    def test_analyze_text_trace_is_the_same_at_any_workers(self, trace_path, capsys):
        argv = ["analyze", "--trace", str(trace_path), "--scenario", "smoke",
                "--days", "7", "--no-clustering"]
        assert main(argv) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["--workers", "2"]) == 0
        assert capsys.readouterr().out == serial
        assert serial.startswith("== Daily presence (Fig 2) ==\nrecords kept ")

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize(
        "durations, ghosts",
        [((), 0), ((3600.0, 3600.0, 3600.0), 3)],
        ids=["zero-rows", "ghosts-only"],
    )
    def test_analyze_without_usable_rows_exits_cleanly(
        self, tmp_path, capsys, workers, durations, ghosts
    ):
        from repro.cdr.columnar import ColumnarCDRBatch
        from repro.cdr.records import ConnectionRecord
        from repro.cdr.store import write_sharded_cdrz

        shards = tmp_path / "shards"
        records = [
            ConnectionRecord(100.0 * i, "car-a", 1, "C3", "4G", d)
            for i, d in enumerate(durations)
        ]
        write_sharded_cdrz(
            shards, ColumnarCDRBatch.from_records(records), shard_rows=2
        )
        code = main(
            ["analyze", "--trace", str(shards), "--days", "7", "--workers", workers]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert "no usable records" in lines[0]
        assert f"{ghosts} rows read, {ghosts} ghost records dropped" in lines[0]

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("name", ["missing.csv", "missing.cdrz", "missing/"])
    def test_analyze_missing_trace_exits_cleanly(self, tmp_path, capsys, name, workers):
        trace = str(tmp_path / name)
        code = main(["analyze", "--trace", trace, "--days", "7", "--workers", workers])
        assert_missing_trace_line(code, capsys.readouterr(), "analyze", trace)

    @pytest.mark.parametrize("name", ["missing.csv", "missing.cdrz", "missing/"])
    @pytest.mark.parametrize("command", sorted(TRACE_COMMANDS))
    def test_missing_trace_exits_cleanly(self, tmp_path, capsys, command, name):
        trace = str(tmp_path / name)
        code = main(TRACE_COMMANDS[command](trace, tmp_path))
        assert_missing_trace_line(code, capsys.readouterr(), command, trace)

    def test_generate_writes_the_same_shards_at_one_and_two_workers(
        self, tmp_path, capsys
    ):
        # A small fleet: on large ones tied routes can differ by worker
        # count (see test_routing's call-history xfail).
        shards = []
        for workers in ("1", "2"):
            out = tmp_path / f"workers-{workers}"
            code = main(
                ["generate", "--scenario", "smoke", "--cars", "12", "--days", "3",
                 "--seed", "3", "--format", "cdrz", "--shard-rows", "500",
                 "--workers", workers, "--out", str(out)]
            )
            assert code == 0
            shards.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert len(shards[0]) > 1
        assert shards[0] == shards[1]

    @pytest.mark.parametrize("command", ["fota", "journeys"])
    def test_records_are_built_for_kept_rows_only(self, shard_dir, capsys, command):
        """One record per kept row plus one capped copy per row over 600 s:
        ghost rows are dropped on the columns, before any record exists."""
        from repro.cdr.io import read_columnar_auto
        from repro.cdr.records import count_record_constructions

        duration = read_columnar_auto(shard_dir).duration
        ghost = np.abs(duration - 3600.0) <= 0.5
        n_kept = int(np.count_nonzero(~ghost))
        n_over = int(np.count_nonzero(duration[~ghost] > 600.0))
        assert np.count_nonzero(ghost) and n_over
        with count_record_constructions() as counter:
            code = main(TRACE_COMMANDS[command](str(shard_dir), None))
        capsys.readouterr()
        assert code == 0
        assert counter.count == n_kept + n_over

    def test_analyze_markdown(self, trace_path, capsys):
        code = main(
            [
                "analyze",
                "--trace",
                str(trace_path),
                "--scenario",
                "smoke",
                "--days",
                "7",
                "--no-clustering",
                "--markdown",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "## Connected-car analysis report" in out
        assert "| Monday |" in out


class TestAnalyzeBuildsNoRecords:
    """Serial ``analyze`` runs on columns end to end: loading, every Section 4
    analysis, Figure 11's clustering and both report formats build no
    ``ConnectionRecord``, whatever the trace format."""

    @pytest.fixture(scope="class")
    def traces(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("columnar")
        csv = root / "trace.csv"
        args = ["--scenario", "smoke", "--cars", "25", "--days", "7"]
        assert main(["generate", *args, "--out", str(csv)]) == 0
        assert main(["convert", str(csv), str(root / "trace.cdrz")]) == 0
        assert main(
            ["convert", str(csv), str(root / "shards"), "--shard-rows", "400"]
        ) == 0
        return {
            "csv": csv,
            "cdrz": root / "trace.cdrz",
            "shards": root / "shards",
        }

    @pytest.mark.parametrize("markdown", [False, True], ids=["text", "markdown"])
    @pytest.mark.parametrize("fmt", ["shards", "cdrz", "csv"])
    def test_zero_record_constructions(self, traces, capsys, fmt, markdown):
        from repro.cdr.records import count_record_constructions

        argv = ["analyze", "--trace", str(traces[fmt]), "--scenario", "smoke",
                "--days", "7"]
        with count_record_constructions() as counter:
            code = main(argv + (["--markdown"] if markdown else []))
        out = capsys.readouterr().out
        assert code == 0
        assert counter.count == 0
        assert "clusters over" in out

    @pytest.mark.parametrize("fmt", ["shards", "csv"])
    def test_busy_masks_built_are_exactly_the_pairs_read(
        self, traces, capsys, monkeypatch, fmt
    ):
        """Each (cell, study day) mask the trace reads is built once; the
        rest of the calendar is never synthesized."""
        from repro.algorithms.timebins import BIN_SECONDS, BINS_PER_DAY
        from repro.cdr.io import load_trace
        from repro.core.preprocess import preprocess
        from repro.network.load import CellLoadModel
        from repro.network.topology import build_topology
        from repro.simulate.scenarios import scenario

        built = []
        series_block = CellLoadModel.series_block

        def spy(model, cell_ids, days):
            built.extend(zip(cell_ids.tolist(), days.tolist()))
            return series_block(model, cell_ids, days)

        monkeypatch.setattr(CellLoadModel, "series_block", spy)
        argv = ["analyze", "--trace", str(traces[fmt]), "--scenario", "smoke",
                "--days", "7"]
        assert main(argv) == 0
        capsys.readouterr()

        cells = build_topology(scenario("smoke", n_cars=1, n_days=7).topology).cells
        read = {
            (rec.cell_id, b // BINS_PER_DAY)
            for rec in preprocess(load_trace(str(traces["csv"]))).truncated
            if rec.cell_id in cells
            for b in rec.interval.bins_straddled(BIN_SECONDS)
            if 0 <= b < 7 * BINS_PER_DAY
        }
        assert len(built) == len(set(built))
        assert set(built) == read
        assert len(read) < len(cells) * 7


class TestDegenerateClusters:
    """Figure 11 over a trace with no rows on busy cells: one k-means
    cluster is empty, and the report says so instead of printing ``inf``."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_empty_cluster_ratios_print_na_without_warnings(
        self, tmp_path, capsys, workers
    ):
        import warnings

        from repro.cdr.columnar import ColumnarCDRBatch
        from repro.cdr.records import ConnectionRecord
        from repro.cdr.store import write_sharded_cdrz

        records = [
            ConnectionRecord(50_000.0 + 4000.0 * i, f"car-{i % 4}", i % 9, "C2", "4G", 120.0)
            for i in range(60)
        ]
        shards = tmp_path / "shards"
        write_sharded_cdrz(shards, ColumnarCDRBatch.from_records(records), shard_rows=20)
        argv = ["analyze", "--trace", str(shards), "--scenario", "smoke", "--days", "7"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([*argv, "--workers", str(workers)]) == 0
        assert "level ratio n/a, size ratio n/a" in capsys.readouterr().out
