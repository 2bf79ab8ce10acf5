"""Chunked columnar streams through the fused engine are bit-identical.

The acceptance bar is exact equality — not ``approx`` — on every field of
:class:`~repro.core.fused.FusedReport` between one whole-batch pass and the
same rows fed as bounded chunks, at any chunk size including chunks of one
row, without building a single record object.  The whole-batch pass is in
turn held to the record-based references on an adversarial stream that
sits on every edge of the ghost rule, the truncation cutoff and the study
window.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.timebins import DAY, StudyClock
from repro.cdr.columnar import ColumnarCDRBatch
from repro.cdr.records import CDRBatch, ConnectionRecord, count_record_constructions
from repro.core.carriers import carrier_usage
from repro.core.connect_time import connect_time_analysis
from repro.core.fused import FusedEngine
from repro.core.preprocess import preprocess
from repro.core.presence import daily_presence
from repro.core.segmentation import days_on_network

from tests.core.test_fused_parity import assert_durations_match


def rec(start, car, cell, carrier, tech, duration):
    return ConnectionRecord(start, car, cell, carrier, tech, duration)


def assert_results_identical(a, b):
    assert a.n_ghosts == b.n_ghosts
    assert a.presence.n_cars_total == b.presence.n_cars_total
    assert a.presence.n_cells_total == b.presence.n_cells_total
    np.testing.assert_array_equal(a.presence.car_fraction, b.presence.car_fraction)
    np.testing.assert_array_equal(a.presence.cell_fraction, b.presence.cell_fraction)
    assert a.days == b.days
    assert a.connect_time.car_ids == b.connect_time.car_ids
    np.testing.assert_array_equal(a.connect_time.full_share, b.connect_time.full_share)
    np.testing.assert_array_equal(
        a.connect_time.truncated_share, b.connect_time.truncated_share
    )
    assert a.durations == b.durations
    assert a.carriers == b.carriers


def assert_matches_references(result, records, clock):
    """The whole-batch pass against the record-based references."""
    pre = preprocess(CDRBatch(records))
    assert result.n_ghosts == pre.n_dropped_ghosts
    ref_p = daily_presence(pre.full, clock)
    assert result.presence.n_cars_total == ref_p.n_cars_total
    np.testing.assert_array_equal(result.presence.car_fraction, ref_p.car_fraction)
    np.testing.assert_array_equal(result.presence.cell_fraction, ref_p.cell_fraction)
    assert result.days == days_on_network(pre.full, clock)
    assert result.carriers == carrier_usage(pre.full)
    if len(pre.full):
        ref_c = connect_time_analysis(pre, clock)
        assert result.connect_time.car_ids == ref_c.car_ids
        np.testing.assert_array_equal(result.connect_time.full_share, ref_c.full_share)
        np.testing.assert_array_equal(
            result.connect_time.truncated_share, ref_c.truncated_share
        )
        assert_durations_match(result.durations, pre)


def run_chunks(clock, chunks):
    engine = FusedEngine(clock)
    for chunk in chunks:
        engine.consume(chunk)
    return engine.finalize()


def chunked(col, size):
    for lo in range(0, len(col), size):
        yield col.rows(lo, min(lo + size, len(col)))


@pytest.fixture(scope="module")
def adversarial():
    """A stream exercising every edge: ghosts (exact, borderline in and

    out of tolerance), zero durations, the truncation cutoff from both
    sides, overlapping and duplicate per-car intervals, records outside
    the study window, and accumulation orders that expose any reordering.
    """
    recs = [
        rec(-50.0, "pre", 1, "C1", "4G", 10.0),  # before the study window
        rec(0.0, "a", 1, "C1", "4G", 3600.0),  # exact ghost
        rec(0.0, "a", 1, "C1", "4G", 3600.5),  # boundary ghost (dropped)
        rec(0.0, "a", 1, "C1", "4G", 3600.6),  # just past tolerance (kept)
        rec(1.0, "a", 2, "C2", "3G", 0.0),  # zero duration
        rec(2.0, "a", 2, "C2", "3G", 599.9),  # under the cutoff
        rec(3.0, "a", 2, "C2", "3G", 600.0),  # exactly the cutoff
        rec(4.0, "a", 2, "C2", "3G", 600.1),  # over the cutoff
        rec(4.0, "b", 3, "C1", "2G", 100.0),  # overlapping intervals ...
        rec(50.0, "b", 3, "C1", "2G", 100.0),
        rec(50.0, "b", 3, "C1", "2G", 100.0),  # ... and an exact duplicate
        rec(DAY - 1.0, "b", 4, "C3", "4G", 2.0),  # straddles a day edge
        rec(DAY + 1.0, "c", 4, "C3", "4G", 7.25),
        rec(3 * DAY, "c", 5, "C3", "4G", 1e7),  # extends past the study
        rec(90 * DAY + 5.0, "d", 6, "C1", "4G", 1.0),  # after the window
    ]
    return sorted(recs, key=lambda r: r.start)


@pytest.fixture(scope="module")
def clock():
    return StudyClock(n_days=90)


class TestAdversarialParity:
    @pytest.mark.parametrize("chunk_rows", [1, 2, 3, 7, 1000])
    def test_bit_identical_at_any_chunk_size(self, adversarial, clock, chunk_rows):
        col = ColumnarCDRBatch.from_records(adversarial)
        reference = run_chunks(clock, [col])
        assert_matches_references(reference, adversarial, clock)
        with count_record_constructions() as counter:
            result = run_chunks(clock, chunked(col, chunk_rows))
        assert counter.count == 0
        assert_results_identical(reference, result)

    @pytest.mark.parametrize("chunk_rows", [1, 3, 8, 1000])
    def test_start_ties_sum_in_record_order(self, clock, chunk_rows):
        """Rows sharing a start may arrive in any order (the stream is only
        time-sorted); carrier time still adds up in record order, the
        reference's, whatever the chunk boundaries."""
        # Summed in this order the total is 1 ulp above the record order's.
        tied = [0.0, 0.0, 0.0, 0.0, 424.2577260735585, 0.22, 599.9, 6.441302042656572e-4]
        records = [rec(0.0, "car-0", 0, "C1", "2G", d) for d in tied]
        records += [rec(10.0, "car-1", 1, "C2", "4G", d) for d in tied]
        records.append(rec(20.0, "car-0", 0, "C1", "2G", 7.25))
        expected = carrier_usage(preprocess(CDRBatch(records)).full)
        col = ColumnarCDRBatch.from_records(records)
        assert run_chunks(clock, chunked(col, chunk_rows)).carriers == expected

    def test_ghost_only_stream_finalizes_empty(self, clock):
        # A ghost-only shard is legal at scale: it finalizes to a
        # well-defined zeroed result instead of raising.
        ghosts = [rec(0.0, "a", 1, "C1", "4G", 3600.0)]
        result = run_chunks(clock, [ColumnarCDRBatch.from_records(ghosts)])
        assert result.n_ghosts == 1
        assert result.durations.n == 0
        assert result.durations.median == 0.0
        assert result.durations.mean_full == 0.0
        assert result.durations.fraction_over_cutoff == 0.0
        assert result.connect_time.car_ids == []
        assert set(result.carriers.time_fraction.values()) == {0.0}
        assert result.presence.car_fraction.tolist() == [0.0] * clock.n_days
        assert result.presence.cell_fraction.tolist() == [0.0] * clock.n_days

    def test_empty_chunks_are_no_ops(self, adversarial, clock):
        col = ColumnarCDRBatch.from_records(adversarial)
        reference = run_chunks(clock, [col])
        # Empty slices keep the batch's vocabulary, as chunks of one shard do.
        empty = col.rows(0, 0)
        result = run_chunks(clock, [empty, col, col.rows(len(col), len(col))])
        assert len(empty) == 0
        assert_results_identical(reference, result)


_carriers = st.sampled_from(["C1", "C2", "C3", "C4"])
_techs = st.sampled_from(["2G", "3G", "4G"])
_cars = st.sampled_from([f"car-{i}" for i in range(12)])
_durations = st.one_of(
    st.floats(min_value=0.0, max_value=5000.0, allow_nan=False),
    st.sampled_from([0.0, 599.9, 600.0, 600.1, 3599.5, 3600.0, 3600.5, 3600.6]),
)

_streams = st.lists(
    st.builds(
        ConnectionRecord,
        start=st.floats(min_value=-1000.0, max_value=12 * DAY, allow_nan=False),
        car_id=_cars,
        cell_id=st.integers(min_value=0, max_value=50),
        carrier=_carriers,
        technology=_techs,
        duration=_durations,
    ),
    min_size=1,
    max_size=150,
).map(lambda recs: sorted(recs, key=lambda r: r.start))


class TestHypothesisParity:
    @given(records=_streams, chunk_rows=st.integers(min_value=1, max_value=40))
    @settings(max_examples=60, deadline=None)
    def test_random_streams_bit_identical(self, records, chunk_rows):
        clock = StudyClock(n_days=10)
        col = ColumnarCDRBatch.from_records(records)
        reference = run_chunks(clock, [col])
        assert_matches_references(reference, records, clock)
        result = run_chunks(clock, chunked(col, chunk_rows))
        assert_results_identical(reference, result)
