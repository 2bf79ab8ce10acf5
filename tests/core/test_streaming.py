"""Record streams through the fused engine, cross-validated against the
in-memory pipeline on the same data.

Controlled streams are small enough that the right answer is known by
hand, and each row reaches :class:`~repro.core.fused.FusedEngine` as its
own chunk, so ghost cleaning, overlap merging, truncation and the Figure 9
cutoff share must all hold across chunk boundaries.
"""

import numpy as np
import pytest

from repro.cdr.records import CDRBatch, ConnectionRecord
from repro.core.carriers import carrier_usage
from repro.core.connect_time import connect_time_analysis
from repro.core.fused import FusedEngine
from repro.core.preprocess import PreprocessConfig, preprocess


def rec(start, dur, car="car-a", cell=1, carrier="C3"):
    return ConnectionRecord(
        start=start, car_id=car, cell_id=cell, carrier=carrier, technology="4G", duration=dur
    )


def run_stream(clock, records, config=None, chunk_rows=1):
    """Feed ``records`` to a fresh engine in ``chunk_rows`` slices; finalize."""
    # Slices of one columnar batch share its car/carrier vocabulary, as
    # the engine requires of its chunks.
    col = CDRBatch(records).columnar()
    engine = FusedEngine(clock, config)
    for lo in range(0, len(col), chunk_rows):
        engine.consume(col.rows(lo, min(lo + chunk_rows, len(col))))
    return engine.finalize()


class TestControlledStreams:
    def test_ghosts_dropped(self, clock):
        records = [rec(0, 100.0), rec(500, 3600.0), rec(1000, 50.0)]
        result = run_stream(clock, records)
        assert result.n_ghosts == 1
        assert result.durations.n == 2

    def test_carrier_time_fractions(self, clock):
        records = [rec(0, 30.0, carrier="C1"), rec(100, 70.0, carrier="C3")]
        result = run_stream(clock, records)
        assert result.carriers.time_fraction == pytest.approx(
            {"C1": 0.3, "C2": 0.0, "C3": 0.7, "C4": 0.0, "C5": 0.0}
        )

    def test_overlap_merged_in_connect_share(self, clock):
        # Two fully-overlapping 100 s records count once.
        records = sorted([rec(0, 100.0), rec(0, 100.0)])
        result = run_stream(clock, records)
        assert result.connect_time.mean_truncated == pytest.approx(
            100.0 / clock.duration
        )

    def test_partial_overlap_merged(self, clock):
        records = sorted([rec(0, 100.0), rec(50, 100.0)])
        result = run_stream(clock, records)
        assert result.connect_time.mean_truncated == pytest.approx(
            150.0 / clock.duration
        )

    def test_truncation_applied_to_share(self, clock):
        result = run_stream(
            clock, [rec(0, 5000.0)], PreprocessConfig(truncate_s=600.0)
        )
        assert result.connect_time.mean_truncated == pytest.approx(
            600.0 / clock.duration
        )

    def test_fraction_over_cutoff(self, clock):
        records = [rec(i * 10_000.0, d) for i, d in enumerate((100, 200, 700, 1300))]
        result = run_stream(clock, records)
        assert result.durations.fraction_over_cutoff == pytest.approx(0.5)


class TestAgainstInMemoryPipeline:
    @pytest.fixture(scope="class")
    def both(self, dataset):
        streaming = run_stream(dataset.clock, dataset.batch, chunk_rows=997)
        pre = preprocess(dataset.batch)
        return streaming, pre, dataset

    def test_record_and_ghost_counts_match(self, both):
        streaming, pre, dataset = both
        assert streaming.durations.n == len(pre.full)
        assert streaming.n_ghosts == pre.n_dropped_ghosts

    def test_duration_means_match_exactly(self, both):
        streaming, pre, _ = both
        full = np.asarray([r.duration for r in pre.full])
        trunc = np.asarray([r.duration for r in pre.truncated])
        assert streaming.durations.mean_full == pytest.approx(full.mean())
        assert streaming.durations.mean_truncated == pytest.approx(trunc.mean())

    def test_median_estimate_close(self, both):
        streaming, pre, _ = both
        exact = float(np.median([r.duration for r in pre.full]))
        assert streaming.durations.median == pytest.approx(exact, rel=0.1)

    def test_connect_share_matches_exact_union(self, both):
        streaming, pre, dataset = both
        exact = connect_time_analysis(pre, dataset.clock)
        assert streaming.connect_time.car_ids == exact.car_ids
        assert np.array_equal(
            streaming.connect_time.truncated_share, exact.truncated_share
        )

    def test_distinct_cars_per_day_close(self, both):
        streaming, pre, dataset = both
        seen = [set() for _ in range(dataset.clock.n_days)]
        for record in pre.full:
            day = dataset.clock.day_index(record.start)
            if 0 <= day < dataset.clock.n_days:
                seen[day].add(record.car_id)
        per_day_exact = np.asarray([len(s) for s in seen], dtype=float)
        presence = streaming.presence
        assert presence.n_cars_total == len(set().union(*seen))
        assert np.array_equal(
            presence.car_fraction, per_day_exact / presence.n_cars_total
        )

    def test_carrier_fractions_match(self, both):
        streaming, pre, _ = both
        assert streaming.carriers == carrier_usage(pre.full)
