"""Tests for the end-to-end analysis pipeline and report rendering."""

import pytest

from repro.core.pipeline import AnalysisPipeline
from repro.core.report import (
    format_carrier_table,
    format_handover_stats,
    format_report,
    format_segmentation,
    format_weekday_table,
)


@pytest.fixture(scope="module")
def report(dataset):
    pipeline = AnalysisPipeline(
        dataset.clock, dataset.load_model, dataset.topology.cells
    )
    return pipeline.run(dataset.batch)


class TestPipeline:
    def test_all_sections_present(self, report):
        assert report.presence is not None
        assert len(report.weekday_rows) == 8
        assert report.connect_time.full_share.size > 0
        assert report.days
        assert report.segmentation.rows
        assert report.carriers.n_cars > 0
        assert report.handovers is not None
        assert report.clusters is not None

    def test_ghosts_dropped_noted(self, report):
        assert report.pre.n_dropped_ghosts > 0
        assert any("ghost" in n for n in report.notes)

    def test_truncation_applied(self, report):
        assert max(r.duration for r in report.pre.truncated) <= 600.0

    def test_full_ge_truncated_shares(self, report):
        assert (report.connect_time.full_share >= report.connect_time.truncated_share - 1e-12).all()

    def test_presence_fractions_bounded(self, report):
        assert (report.presence.car_fraction <= 1.0).all()
        assert (report.presence.car_fraction >= 0.0).all()

    def test_segmentation_consistent_with_days(self, report):
        n_rare = sum(1 for d in report.days.values() if d <= 10)
        row = report.segmentation.row("Rare (<= 10 days)")
        assert row.total == pytest.approx(n_rare / report.segmentation.n_cars)

    def test_handover_skipped_without_cells(self, dataset):
        pipeline = AnalysisPipeline(dataset.clock, dataset.load_model, cells=None)
        report = pipeline.run(dataset.batch, with_clustering=False)
        assert report.handovers is None
        assert report.clusters is None

    def test_clustering_failure_noted_not_fatal(self, dataset):
        pipeline = AnalysisPipeline(
            dataset.clock, dataset.load_model, dataset.topology.cells
        )
        report = pipeline.run(dataset.batch, cluster_k=10**6)
        assert report.clusters is None
        assert any("clustering skipped" in n for n in report.notes)


class TestReportRendering:
    def test_weekday_table_has_rows(self, report):
        text = format_weekday_table(report.weekday_rows)
        assert "Monday" in text and "Overall" in text

    def test_segmentation_table(self, report):
        text = format_segmentation(report.segmentation)
        assert "Rare (<= 10 days)" in text

    def test_carrier_table_lists_all(self, report):
        text = format_carrier_table(report.carriers)
        for name in ("C1", "C2", "C3", "C4", "C5"):
            assert name in text

    def test_handover_block(self, report):
        text = format_handover_stats(report.handovers)
        assert "median" in text
        assert "inter-base-station" in text

    def test_full_report_sections(self, report):
        text = format_report(report)
        for heading in (
            "Daily presence",
            "Table 1",
            "Connected time",
            "Table 2",
            "Busy exposure",
            "Table 3",
            "Handovers",
            "Busy-cell clusters",
        ):
            assert heading in text


class TestMarkdownReport:
    def test_markdown_sections(self, report):
        from repro.core.report import format_report_markdown

        text = format_report_markdown(report)
        for heading in (
            "## Connected-car analysis report",
            "### Table 1",
            "### Table 2",
            "### Table 3",
            "### Handovers",
            "### Busy-cell clusters",
        ):
            assert heading in text

    def test_markdown_tables_well_formed(self, report):
        from repro.core.report import format_report_markdown

        lines = format_report_markdown(report).splitlines()
        table_rows = [l for l in lines if l.startswith("|")]
        assert table_rows
        for row in table_rows:
            assert row.endswith("|")


class TestLossDayExclusion:
    def test_loss_days_excluded_from_table1(self):
        from repro.algorithms.timebins import StudyClock
        from repro.simulate.artifacts import ArtifactConfig
        from repro.simulate.config import SimulationConfig
        from repro.simulate.generator import TraceGenerator

        # Loss-day detection compares each day against the same-weekday
        # median, which needs at least three occurrences of the weekday.
        config = SimulationConfig(
            n_cars=50,
            seed=31,
            clock=StudyClock(start_weekday=0, n_days=21),
            artifacts=ArtifactConfig(data_loss_days=(9,), data_loss_fraction=0.7),
        )
        ds = TraceGenerator(config).generate()
        pipeline = AnalysisPipeline(ds.clock, ds.load_model)
        plain = pipeline.run(ds.batch, with_clustering=False)
        cleaned = pipeline.run(
            ds.batch, with_clustering=False, exclude_loss_days=True
        )
        assert any("data-loss days" in n for n in cleaned.notes)
        # Day 9 is a Wednesday (clock starts Monday); excluding it raises
        # the Wednesday mean.
        wd = {r.weekday: r for r in plain.weekday_rows}
        wd_clean = {r.weekday: r for r in cleaned.weekday_rows}
        assert wd_clean["Wednesday"].car_mean > wd["Wednesday"].car_mean
        # The detector counts days from the start column: a columnar input
        # gets the same report and builds no records.
        from repro.cdr.records import count_record_constructions

        with count_record_constructions() as counter:
            columnar = pipeline.run(
                ds.batch.columnar(), with_clustering=False, exclude_loss_days=True
            )
        assert counter.count == 0
        assert columnar.notes == cleaned.notes
        assert columnar.weekday_rows == cleaned.weekday_rows

    def test_no_loss_days_no_note(self, report):
        assert not any("data-loss days" in n for n in report.notes)
