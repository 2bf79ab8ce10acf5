"""Tests for report comparison."""

import numpy as np
import pytest

from repro.cdr.records import count_record_constructions
from repro.core.compare import (
    MetricDelta,
    compare_reports,
    extract_metrics,
    format_comparison,
)
from repro.core.pipeline import AnalysisPipeline
from repro.simulate.config import SimulationConfig
from repro.simulate.generator import TraceGenerator


class TestMetricDelta:
    def test_delta_and_relative(self):
        d = MetricDelta("x", a=2.0, b=3.0)
        assert d.delta == 1.0
        assert d.relative == pytest.approx(0.5)

    def test_relative_none_at_zero(self):
        assert MetricDelta("x", a=0.0, b=3.0).relative is None


class TestCompareReports:
    @pytest.fixture(scope="class")
    def two_reports(self, dataset, clock):
        pipeline = AnalysisPipeline(
            dataset.clock, dataset.load_model, dataset.topology.cells
        )
        report_a = pipeline.run(dataset.batch, with_clustering=False)
        other = TraceGenerator(
            SimulationConfig(n_cars=40, seed=555, clock=clock)
        ).generate()
        pipeline_b = AnalysisPipeline(
            other.clock, other.load_model, other.topology.cells
        )
        report_b = pipeline_b.run(other.batch, with_clustering=False)
        return report_a, report_b

    def test_extract_metrics_complete(self, two_reports):
        report_a, _ = two_reports
        metrics = extract_metrics(report_a)
        assert "connect share (truncated)" in metrics
        assert "handovers/session (median)" in metrics
        for value, fmt in metrics.values():
            format(value, fmt)  # every fmt renders

    def test_extract_metrics_builds_no_records(self, dataset):
        pipeline = AnalysisPipeline(
            dataset.clock, dataset.load_model, dataset.topology.cells
        )
        report = pipeline.run(dataset.batch.columnar(), with_clustering=False)
        with count_record_constructions() as counter:
            metrics = extract_metrics(report)
        assert counter.count == 0
        durations = [r.duration for r in report.pre.truncated]
        assert metrics["cell-session median (s)"][0] == float(np.median(durations))

    def test_compare_same_report_zero_delta(self, two_reports):
        report_a, _ = two_reports
        deltas = compare_reports(report_a, report_a)
        assert deltas
        for d in deltas:
            assert d.delta == 0.0

    def test_compare_different_fleets(self, two_reports):
        report_a, report_b = two_reports
        deltas = {d.name: d for d in compare_reports(report_a, report_b)}
        assert deltas["cars observed"].a != deltas["cars observed"].b

    def test_format_comparison(self, two_reports):
        report_a, report_b = two_reports
        text = format_comparison(
            compare_reports(report_a, report_b), labels=("jan", "feb")
        )
        assert "jan" in text and "feb" in text
        assert "connect share" in text
        assert "change" in text

    def test_format_empty(self):
        text = format_comparison([])
        assert "metric" in text
