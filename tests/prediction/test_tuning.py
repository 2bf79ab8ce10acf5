"""Tests for predictor threshold tuning."""

import numpy as np
import pytest

from repro.core.preprocess import preprocess
from repro.prediction.evaluate import train_test_split_weeks
from repro.prediction.tuning import (
    best_by_f1,
    format_sweep,
    threshold_sweep,
)


def week_vec(hours):
    v = np.zeros(168, dtype=bool)
    v[list(hours)] = True
    return v


@pytest.fixture()
def toy_split():
    # A car present at hour 8 in all weeks and hour 17 in two-thirds of them.
    train = {"a": [week_vec({8, 17}), week_vec({8, 17}), week_vec({8})]}
    test = {"a": [week_vec({8, 17})]}
    return train, test


class TestSweep:
    def test_rejects_empty_thresholds(self, toy_split):
        with pytest.raises(ValueError):
            threshold_sweep(*toy_split, thresholds=())

    def test_points_per_threshold(self, toy_split):
        points = threshold_sweep(*toy_split, thresholds=(0.5, 0.9))
        assert [p.threshold for p in points] == [0.5, 0.9]

    def test_low_threshold_higher_recall(self, toy_split):
        points = threshold_sweep(*toy_split, thresholds=(0.5, 0.9))
        low, high = points
        assert low.result.recall >= high.result.recall
        # At 0.5 the model also predicts hour 17 (2/3 of weeks): recall 1.
        assert low.result.recall == 1.0
        assert high.result.recall == 0.5

    def test_all_absent_fleet_sweeps_to_zero(self):
        # Every car vanished in the test weeks: no car is scoreable, so the
        # sweep must return clean zero-score points, not divide by zero.
        train = {"a": [week_vec({8})], "b": [week_vec({9, 10})]}
        test = {"a": [week_vec(())], "b": [week_vec(())]}
        points = threshold_sweep(train, test)
        assert len(points) == 6
        for point in points:
            assert point.result.n_cars == 0
            assert point.result.precision == 0.0
            assert point.result.recall == 0.0
            assert point.f1 == 0.0
        best_by_f1(points)  # still well-defined on an all-zero sweep

    def test_best_by_f1(self, toy_split):
        points = threshold_sweep(*toy_split, thresholds=(0.5, 0.9))
        assert best_by_f1(points).threshold == 0.5

    def test_best_by_f1_empty_raises(self):
        with pytest.raises(ValueError):
            best_by_f1([])

    def test_format_sweep(self, toy_split):
        points = threshold_sweep(*toy_split, thresholds=(0.5,))
        text = format_sweep(points)
        assert "threshold" in text
        assert "0.50" in text


class TestOnGeneratedTrace:
    def test_frontier_monotone_on_fleet(self, dataset):
        pre = preprocess(dataset.batch)
        train, test = train_test_split_weeks(pre.truncated, dataset.clock, 1)
        points = threshold_sweep(train, test, thresholds=(0.3, 0.6, 0.9))
        # Recall falls along the sweep; precision rises up to sampling noise.
        recalls = [p.result.recall for p in points]
        precisions = [p.result.precision for p in points]
        assert all(a >= b - 1e-9 for a, b in zip(recalls, recalls[1:]))
        assert all(b >= a - 0.05 for a, b in zip(precisions, precisions[1:]))
        best = best_by_f1(points)
        assert 0 < best.f1 <= 1
