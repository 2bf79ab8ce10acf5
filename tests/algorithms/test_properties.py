"""Property-based tests (hypothesis) on the algorithmic substrate.

These check the invariants every analysis silently relies on: session
aggregation never loses covered time, merging is idempotent and
order-insensitive, concurrency counting matches a brute-force sweep, and the
clock's coordinates stay within their ranges.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.intervals import (
    Interval,
    concatenate_gaps,
    concurrency_by_bin,
    merge_intervals,
    total_duration,
)
from repro.algorithms.stats import ecdf_at, linear_trend
from repro.algorithms.timebins import BIN_SECONDS, DAY, StudyClock

interval_st = st.builds(
    lambda start, length: Interval(start, start + length),
    start=st.floats(min_value=0, max_value=1e6, allow_nan=False),
    length=st.floats(min_value=0, max_value=1e5, allow_nan=False),
)
intervals_st = st.lists(interval_st, max_size=40)


@given(intervals_st)
def test_merge_is_disjoint_and_sorted(ivs):
    merged = merge_intervals(ivs)
    for a, b in zip(merged, merged[1:]):
        assert a.end < b.start


@given(intervals_st)
def test_merge_idempotent(ivs):
    once = merge_intervals(ivs)
    assert merge_intervals(once) == once


@given(intervals_st)
def test_merge_preserves_total_duration(ivs):
    # total_duration is defined through merge; check against inclusion of
    # every original point: each original interval is covered by the merge.
    merged = merge_intervals(ivs)
    for iv in ivs:
        assert any(m.start <= iv.start and iv.end <= m.end for m in merged)


@given(intervals_st, st.floats(min_value=0, max_value=1e4, allow_nan=False))
def test_concatenate_never_more_pieces_than_merge(ivs, gap):
    merged = merge_intervals(ivs)
    sessions = concatenate_gaps(ivs, gap)
    assert len(sessions) <= len(merged)
    # Sessions cover at least the merged time.
    assert total_duration(sessions) >= total_duration(merged) - 1e-6


@given(intervals_st, st.floats(min_value=1e-3, max_value=1e4, allow_nan=False))
def test_concatenate_respects_gap_bound(ivs, gap):
    sessions = concatenate_gaps(ivs, gap)
    for a, b in zip(sessions, sessions[1:]):
        assert b.start - a.end > gap


@given(st.lists(interval_st, min_size=1, max_size=25))
def test_concurrency_matches_bruteforce(ivs):
    counts = concurrency_by_bin(ivs, BIN_SECONDS)
    if not counts:
        return
    for b in list(counts)[:10]:
        lo, hi = b * BIN_SECONDS, (b + 1) * BIN_SECONDS
        brute = sum(
            1
            for iv in ivs
            if (iv.start < hi and iv.end > lo)
            or (iv.duration == 0 and lo <= iv.start < hi)
        )
        assert counts[b] == brute


@given(
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=1, max_value=120),
    st.floats(min_value=0, allow_nan=False, max_value=1e7),
)
def test_clock_coordinates_in_range(start_weekday, n_days, t):
    clock = StudyClock(start_weekday=start_weekday, n_days=n_days)
    assert 0 <= clock.weekday(t) <= 6
    assert 0 <= clock.hour_of_day(t) <= 23
    assert 0 <= clock.hour_of_week(t) <= 167
    assert 0 <= clock.bin15_of_day(t) <= 95
    assert 0 <= clock.bin15_of_week(t) <= 671
    # Consistency between coordinates.
    assert clock.hour_of_week(t) == clock.weekday(t) * 24 + clock.hour_of_day(t)
    assert clock.bin15_of_week(t) == clock.weekday(t) * 96 + clock.bin15_of_day(t)


@given(st.integers(min_value=0, max_value=6), st.integers(min_value=7, max_value=90))
def test_days_of_weekday_partition(start_weekday, n_days):
    clock = StudyClock(start_weekday=start_weekday, n_days=n_days)
    all_days = sorted(d for wd in range(7) for d in clock.days_of_weekday(wd))
    assert all_days == list(range(n_days))


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=200))
def test_ecdf_monotone_and_ends_at_one(values):
    p = ecdf_at(values, np.sort(values))
    assert (np.diff(p) >= 0).all()
    assert p[-1] == 1.0
    assert p[0] > 0


@given(
    st.lists(
        st.tuples(
            st.floats(
                min_value=-100, max_value=100, allow_nan=False, allow_subnormal=False
            ),
            st.floats(
                min_value=-100, max_value=100, allow_nan=False, allow_subnormal=False
            ),
        ),
        min_size=3,
        max_size=50,
    )
)
@settings(max_examples=50)
def test_trend_r_squared_bounded(points):
    x = [p[0] for p in points]
    y = [p[1] for p in points]
    if len(set(x)) < 2 or max(x) - min(x) < 1e-6:
        # Degenerate abscissa spread makes the least-squares SVD itself
        # unstable; real callers fit over day indices (spread >= 1).
        return
    trend = linear_trend(x, y)
    assert trend.r_squared <= 1.0 + 1e-9


@given(interval_st, st.floats(min_value=1, max_value=DAY, allow_nan=False))
def test_truncate_never_lengthens(iv, cap):
    out = iv.truncate(cap)
    assert out.duration <= iv.duration + 1e-9
    assert out.duration <= cap + 1e-9
    assert out.start == iv.start
