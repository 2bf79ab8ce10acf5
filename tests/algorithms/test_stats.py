"""Unit tests for the statistics helpers."""

import numpy as np
import pytest

from repro.algorithms.stats import (
    decile_shares,
    ecdf_at,
    linear_trend,
    percentile,
)


class TestEcdf:
    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            ecdf_at(np.zeros((2, 2)), [0.0])

    def test_ecdf_at_points(self):
        vals = [10, 20, 30, 40]
        out = ecdf_at(vals, [5, 10, 25, 40, 100])
        assert list(out) == pytest.approx([0.0, 0.25, 0.5, 1.0, 1.0])

    def test_ecdf_at_empty_raises(self):
        with pytest.raises(ValueError):
            ecdf_at([], [1])


class TestPercentiles:
    def test_median(self):
        assert percentile([1, 2, 3, 4, 5], 50) == 3

    def test_bounds_checked(self):
        with pytest.raises(ValueError):
            percentile([1], 101)
        with pytest.raises(ValueError):
            percentile([1], -0.1)


class TestDecileShares:
    def test_sums_to_one_when_covering(self):
        vals = np.linspace(0, 0.999, 50)
        edges = np.arange(0.0, 1.1, 0.1)
        shares = decile_shares(vals, edges)
        assert shares.sum() == pytest.approx(1.0)
        assert shares.shape == (10,)

    def test_rejects_bad_edges(self):
        with pytest.raises(ValueError):
            decile_shares([0.5], [0.0])
        with pytest.raises(ValueError):
            decile_shares([0.5], [0.5, 0.5])

    def test_empty_sample_all_zero(self):
        shares = decile_shares([], [0, 1])
        assert shares.shape == (1,)
        assert shares[0] == 0


class TestLinearTrend:
    def test_exact_line(self):
        x = np.arange(10)
        trend = linear_trend(x, 2 * x + 1)
        assert trend.slope == pytest.approx(2.0)
        assert trend.intercept == pytest.approx(1.0)
        assert trend.r_squared == pytest.approx(1.0)

    def test_flat_line_r2_is_one(self):
        trend = linear_trend([0, 1, 2], [5, 5, 5])
        assert trend.slope == pytest.approx(0.0)
        assert trend.r_squared == pytest.approx(1.0)

    def test_noisy_data_low_r2(self):
        rng = np.random.default_rng(0)
        y = rng.normal(size=200)
        trend = linear_trend(np.arange(200), y)
        assert trend.r_squared < 0.1

    def test_predict(self):
        trend = linear_trend([0, 1], [1, 3])
        assert trend.predict(2) == pytest.approx(5.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            linear_trend([1, 2], [1])

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            linear_trend([1], [1])
