"""Tests for the terminal visualization helpers."""

import numpy as np
import pytest

from repro.algorithms.intervals import Interval
from repro.viz import SPARK_BLOCKS, hbar_chart, interval_timeline, sparkline


class TestSparkline:
    def test_empty(self):
        assert sparkline([]) == ""

    def test_constant_series_lowest_block(self):
        assert sparkline([5, 5, 5]) == SPARK_BLOCKS[0] * 3

    def test_extremes(self):
        s = sparkline([0, 10])
        assert s[0] == SPARK_BLOCKS[0]
        assert s[-1] == SPARK_BLOCKS[-1]

    def test_monotone_series_monotone_blocks(self):
        s = sparkline(np.arange(8))
        levels = [SPARK_BLOCKS.index(c) for c in s]
        assert levels == sorted(levels)

    def test_width_pooling(self):
        s = sparkline(np.arange(100), width=10)
        assert len(s) == 10


class TestHbarChart:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            hbar_chart(["a"], [1, 2])

    def test_empty(self):
        assert hbar_chart([], []) == ""

    def test_bars_scale(self):
        chart = hbar_chart(["small", "large"], [1.0, 2.0], width=10)
        small_line, large_line = chart.splitlines()
        assert large_line.count("#") == 10
        assert small_line.count("#") == 5

    def test_labels_aligned(self):
        chart = hbar_chart(["a", "bbb"], [1, 1])
        lines = chart.splitlines()
        assert lines[0].index("|") == lines[1].index("|")


class TestIntervalTimeline:
    def test_validates_window(self):
        with pytest.raises(ValueError):
            interval_timeline({}, 10.0, 10.0)

    def test_rows_rendered(self):
        rows = {
            "car-a": [Interval(0, 50)],
            "car-b": [Interval(50, 100)],
        }
        out = interval_timeline(rows, 0.0, 100.0, width=10)
        a_line, b_line = out.splitlines()
        assert a_line.startswith("         car-a")
        assert "-" in a_line.split("|")[1][:5]
        assert "-" in b_line.split("|")[1][5:]

    def test_max_rows_summarized(self):
        rows = {f"car-{i}": [Interval(0, 1)] for i in range(10)}
        out = interval_timeline(rows, 0.0, 10.0, max_rows=3)
        assert "and 7 more rows" in out

    def test_out_of_window_interval_invisible(self):
        rows = {"car-a": [Interval(200, 300)]}
        out = interval_timeline(rows, 0.0, 100.0, width=10)
        assert "-" not in out.split("|")[1]
