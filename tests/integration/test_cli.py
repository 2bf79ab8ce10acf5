"""Integration tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


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
        # The fused map-reduce path prints the full Section 4 statistics
        # plus Figure 9's duration summary.
        code = main(
            [
                "analyze",
                "--trace",
                str(shard_dir),
                "--days",
                "7",
                "--workers",
                "2",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "fused map-reduce over" in out
        assert "connect time: mean share" in out
        assert "duration: median" in out
        assert ">600 s:" in out
        assert "carrier time shares" in out

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

    def test_analyze_workers_rejects_text_traces(self, trace_path, capsys):
        code = main(
            ["analyze", "--trace", str(trace_path), "--days", "7", "--workers", "2"]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "needs a cdrz trace" in err

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
