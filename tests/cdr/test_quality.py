"""Tests for the CDR data-quality diagnostics."""

import numpy as np
import pytest

from repro.algorithms.timebins import DAY, StudyClock
from repro.cdr.quality import (
    assess_quality,
    detect_duration_spikes,
    detect_loss_days,
    long_tail_fraction,
)
from repro.cdr.records import CDRBatch, ConnectionRecord, count_record_constructions


def rec(start, dur, car="car-a", cell=1):
    return ConnectionRecord(
        start=start, car_id=car, cell_id=cell, carrier="C3", technology="4G", duration=dur
    )


def organic_records(n=2000, seed=0, n_days=28):
    rng = np.random.default_rng(seed)
    return [
        rec(float(rng.uniform(0, n_days * DAY)), float(rng.lognormal(4.5, 1.0)))
        for _ in range(n)
    ]


class TestDurationSpikes:
    def test_detects_ghost_hour(self):
        records = organic_records() + [rec(i * 100.0, 3600.0) for i in range(50)]
        spikes = detect_duration_spikes(CDRBatch(records))
        assert any(s.duration == 3600.0 for s in spikes)
        top = spikes[0]
        assert top.count >= 50
        assert top.excess_factor >= 10

    def test_no_spikes_in_organic_data(self):
        spikes = detect_duration_spikes(CDRBatch(organic_records()))
        assert spikes == []

    def test_min_count_respected(self):
        records = organic_records() + [rec(i * 100.0, 3600.0) for i in range(5)]
        spikes = detect_duration_spikes(CDRBatch(records), min_count=20)
        assert spikes == []

    def test_empty_batch(self):
        assert detect_duration_spikes(CDRBatch([])) == []


class TestLongTail:
    def test_fraction(self):
        records = [rec(0, 100.0)] * 3 + [rec(0, 1000.0)]
        assert long_tail_fraction(CDRBatch(records)) == pytest.approx(0.25)

    def test_empty(self):
        assert long_tail_fraction(CDRBatch([])) == 0.0


class TestLossDays:
    def _batch_with_loss(self, loss_day=9, keep=0.3, n_days=28):
        rng = np.random.default_rng(1)
        records = []
        for day in range(n_days):
            n = 100
            for i in range(n):
                if day == loss_day and rng.random() > keep:
                    continue
                records.append(rec(day * DAY + i * 60.0, 50.0, car=f"car-{i}"))
        return CDRBatch(records)

    def test_detects_loss_day(self):
        clock = StudyClock(n_days=28)
        findings, per_day = detect_loss_days(self._batch_with_loss(), clock)
        assert [f.day for f in findings] == [9]
        assert findings[0].deficit > 0.5
        assert per_day.shape == (28,)

    def test_weekend_dip_not_flagged(self):
        # Consistent weekend dips are normal weekly structure, not loss.
        clock = StudyClock(start_weekday=0, n_days=28)
        records = []
        for day in range(28):
            n = 40 if day % 7 >= 5 else 100
            for i in range(n):
                records.append(rec(day * DAY + i * 60.0, 50.0, car=f"car-{i}"))
        findings, _ = detect_loss_days(CDRBatch(records), clock)
        assert findings == []

    def test_columnar_batch_counts_the_same_days(self):
        batch = self._batch_with_loss()
        # Rows before the study and after its last day are not counted.
        extra = [rec(-5.0, 1.0), rec(28 * DAY, 1.0), rec(28 * DAY - 0.5, 1.0)]
        batch = CDRBatch(list(batch) + extra)
        clock = StudyClock(n_days=28)
        findings, per_day = detect_loss_days(batch, clock)
        with count_record_constructions() as counter:
            col_findings, col_per_day = detect_loss_days(batch.columnar(), clock)
        assert counter.count == 0
        assert col_findings == findings
        assert col_per_day.tolist() == per_day.tolist()
        assert per_day.sum() == len(batch) - 2

    def test_empty_batch_no_findings(self):
        findings, per_day = detect_loss_days(CDRBatch([]), StudyClock(n_days=14))
        assert findings == []
        assert per_day.sum() == 0


class TestAssessQuality:
    def test_on_generated_trace_finds_injected_artifacts(self, dataset):
        report = assess_quality(dataset.batch, dataset.clock, spike_min_count=10)
        # The generator injects exactly-one-hour ghosts and a stuck tail.
        assert any(s.duration == 3600.0 for s in report.duration_spikes)
        assert report.long_tail_fraction > 0.05
        assert not report.clean

    def test_clean_data_reports_clean(self):
        clock = StudyClock(n_days=28)
        records = [
            rec(day * DAY + i * 60.0, 50.0 + i, car=f"car-{i}")
            for day in range(28)
            for i in range(50)
        ]
        report = assess_quality(CDRBatch(records), clock)
        assert report.clean

    def test_render_contains_sections(self, dataset):
        report = assess_quality(dataset.batch, dataset.clock, spike_min_count=10)
        text = report.render()
        assert "duration spikes" in text
        assert "stuck-modem tail" in text
        assert "data-loss days" in text
