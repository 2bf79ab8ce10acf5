"""Twin-statistic read-outs of the fused partial: exactness and parity."""

import numpy as np
import pytest

from repro.cdr.columnar import ColumnarCDRBatch
from repro.core.concurrency import SESSION_GAP_S
from repro.core.fused import N_HOURS, ChunkIntermediates, FusedEngine
from repro.core.preprocess import PreprocessConfig, preprocess
from repro.core.twinstats import (
    aggregate_sessions,
    diurnal_shape,
    duration_quantile,
    session_gaps,
)

TRUNCATE_S = PreprocessConfig().truncate_s


def sweep(columnar, clock, chunk_rows=None):
    """One engine's partial over ``columnar``, optionally chunked."""
    engine = FusedEngine(clock)
    n = len(columnar)
    step = chunk_rows or max(n, 1)
    for lo in range(0, max(n, 1), step):
        engine.consume(columnar.rows(lo, min(lo + step, n)))
    return engine.export_partial()


def readouts(partial):
    """Every twin read-out of a partial, as comparable plain values."""
    sessions = aggregate_sessions(partial.connect_trunc)
    return (
        partial.n_records + partial.n_ghosts,
        partial.presence.hours.tolist(),
        [duration_quantile(partial.durations, q) for q in (0.1, 0.5, 0.9)],
        [sessions.car_ids[int(c)] for c in sessions.car],
        sessions.start.tolist(),
        sessions.cm.tolist(),
    )


@pytest.fixture(scope="module")
def whole(dataset):
    return sweep(dataset.batch.columnar(), dataset.clock)


@pytest.fixture(scope="module")
def empty(dataset):
    return sweep(ColumnarCDRBatch.from_records([]), dataset.clock)


class TestMergeExactness:
    @pytest.mark.parametrize("chunk_rows", [1, 7, 100, 999])
    def test_chunked_consume_is_bit_identical(self, dataset, whole, chunk_rows):
        split = sweep(dataset.batch.columnar(), dataset.clock, chunk_rows)
        assert readouts(split) == readouts(whole)

    def test_shard_absorb_is_bit_identical(self, dataset, whole):
        columnar = dataset.batch.columnar()
        n = len(columnar)
        merged = sweep(columnar.rows(0, n // 3), dataset.clock)
        merged.absorb_partial(sweep(columnar.rows(n // 3, n), dataset.clock))
        assert readouts(merged) == readouts(whole)


class TestAgainstReference:
    def test_sessions_match_preprocess_aggregate_sessions(self, dataset, whole):
        """The joined chain table IS the per-car aggregate-session list."""
        pre = preprocess(dataset.batch)
        sessions = aggregate_sessions(whole.connect_trunc)
        by_car = {}
        for code, start, end in zip(
            sessions.car.tolist(), sessions.start.tolist(), sessions.cm.tolist()
        ):
            by_car.setdefault(sessions.car_ids[int(code)], []).append((start, end))
        assert set(by_car) == set(pre.truncated.car_ids())
        for car_id, got in by_car.items():
            expected = [
                (s.start, s.end) for s in pre.aggregate_sessions(car_id)
            ]
            assert got == expected, car_id

    def test_hour_counts_match_start_hours(self, dataset, whole):
        inter = ChunkIntermediates(
            dataset.batch.columnar(), dataset.clock, TRUNCATE_S
        )
        starts = inter.start[inter.in_study]
        hours = ((starts % 86400.0) // 3600.0).astype(int)
        expected = np.bincount(hours, minlength=N_HOURS)
        assert (whole.presence.hours == expected).all()

    def test_duration_quantiles_are_half_bin_exact(self, dataset, whole):
        inter = ChunkIntermediates(
            dataset.batch.columnar(), dataset.clock, TRUNCATE_S
        )
        durations = np.sort(inter.trunc_duration)
        for q in (0.1, 0.5, 0.9, 1.0):
            exact = durations[int(np.floor(q * (durations.size - 1)))]
            got = duration_quantile(whole.durations, q)
            assert abs(got - exact) <= 0.5, q


class TestReadouts:
    def test_diurnal_shape_sums_to_one(self, whole):
        shape = diurnal_shape(whole.presence)
        assert shape.shape == (N_HOURS,)
        assert shape.sum() == pytest.approx(1.0)

    def test_diurnal_shape_of_empty_trace_is_zero(self, empty):
        shape = diurnal_shape(empty.presence)
        assert shape.shape == (N_HOURS,)
        assert (shape == 0).all()

    def test_quantile_bounds(self, whole):
        with pytest.raises(ValueError, match="quantile"):
            duration_quantile(whole.durations, 1.5)

    def test_empty_quantile_is_zero(self, empty):
        assert duration_quantile(empty.durations, 0.5) == 0.0

    def test_capped_durations_read_in_the_cutoff_bin(self, whole):
        assert duration_quantile(whole.durations, 1.0) == TRUNCATE_S + 0.5

    def test_session_gaps_exceed_join_gap(self, whole):
        cars, gaps = session_gaps(aggregate_sessions(whole.connect_trunc))
        assert gaps.size
        assert cars.size == gaps.size
        assert (gaps > SESSION_GAP_S).all()

    def test_session_gaps_empty_table(self, empty):
        cars, gaps = session_gaps(aggregate_sessions(empty.connect_trunc))
        assert cars.size == 0 and gaps.size == 0
