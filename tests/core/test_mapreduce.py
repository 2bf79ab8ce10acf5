"""Parity suite for the multi-process shard map-reduce analysis.

The contract under test (see ``repro/core/mapreduce.py``):

* the reduced report is *identical* — every field, bit for bit — for any
  worker count on the same shard directory;
* counts, pair sets, chain tables and the Figure 9 duration histogram are
  exactly equal to one serial fused engine over the whole stream;
* the float sums (duration means, carrier shares, busy tallies) agree
  with the serial pass to float-reassociation precision;
* the Figure 9 quantiles are within half a 1-s bin of the exact order
  statistic of the kept durations;
* empty and ghost-only shards are legal and reduce as no-ops, while a
  source with no kept record at all raises ``NoUsableRecordsError``.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.timebins import DAY, StudyClock
from repro.cdr.columnar import ColumnarCDRBatch
from repro.cdr.records import ConnectionRecord
from repro.cdr.store import resolve_shards, write_batch_cdrz, write_sharded_cdrz
from repro.core.fused import FusedEngine, finalize_fused
from repro.core.mapreduce import (
    FusedMapSpec,
    analyze_shards_fused,
    map_shard_fused,
)
from repro.core.preprocess import (
    NoUsableRecordsError,
    PreprocessConfig,
    is_ghost_record,
)

N_DAYS = 10
TRUNCATE_S = 600.0


def rec(start, car, cell, carrier, tech, duration):
    return ConnectionRecord(start, car, cell, carrier, tech, duration)


def make_records(n=4000, n_cars=30, seed=0):
    rng = np.random.default_rng(seed)
    carriers = ["C1", "C2", "C3"]
    techs = ["2G", "3G", "4G"]
    records = []
    for _ in range(n):
        records.append(
            rec(
                float(rng.uniform(-100.0, (N_DAYS + 1) * DAY)),
                f"car-{int(rng.integers(0, n_cars))}",
                int(rng.integers(0, 40)),
                carriers[int(rng.integers(0, 3))],
                techs[int(rng.integers(0, 3))],
                float(rng.lognormal(4.0, 1.5)),
            )
        )
    # Sprinkle in ghosts and boundary durations.
    for i in range(0, n, 97):
        records[i] = replace(records[i], duration=3600.0)
    for i in range(1, n, 113):
        records[i] = replace(records[i], duration=600.0)
    return sorted(records, key=lambda r: r.start)


def report_fields(report):
    """Every field of a FusedReport as plain comparable values."""
    return (
        report.presence.car_fraction.tolist(),
        report.presence.cell_fraction.tolist(),
        report.presence.n_cars_total,
        report.presence.n_cells_total,
        report.days,
        report.connect_time.car_ids,
        report.connect_time.full_share.tolist(),
        report.connect_time.truncated_share.tolist(),
        report.durations,
        report.carriers,
        report.n_ghosts,
    )


def assert_reports_identical(a, b):
    assert report_fields(a) == report_fields(b)


def exact_car_totals(records, truncate_s=TRUNCATE_S):
    """Brute-force per-car truncated interval-union lengths."""
    by_car = {}
    for r in records:
        if is_ghost_record(r):
            continue
        cap = min(r.duration, truncate_s)
        by_car.setdefault(r.car_id, []).append((r.start, r.start + cap))
    totals = {}
    for car, intervals in by_car.items():
        intervals.sort()
        total = 0.0
        cur_s, cur_e = intervals[0]
        for s, e in intervals[1:]:
            if s > cur_e:
                total += cur_e - cur_s
                cur_s, cur_e = s, e
            elif e > cur_e:
                cur_e = e
        total += cur_e - cur_s
        totals[car] = total
    return totals


def serial_report(records, clock):
    """One fused engine over the whole stream, no shards."""
    engine = FusedEngine(clock)
    engine.consume(ColumnarCDRBatch.from_records(records))
    return engine.finalize()


@pytest.fixture(scope="module")
def clock():
    return StudyClock(n_days=N_DAYS)


@pytest.fixture(scope="module")
def records():
    return make_records()


@pytest.fixture(scope="module")
def shard_dir(tmp_path_factory, records):
    directory = tmp_path_factory.mktemp("mapreduce") / "shards"
    write_sharded_cdrz(
        directory, ColumnarCDRBatch.from_records(records), shard_rows=517
    )
    return directory


@pytest.fixture(scope="module")
def serial_result(clock, records):
    return serial_report(records, clock)


class TestWorkerCountParity:
    @pytest.fixture(scope="class")
    def by_workers(self, shard_dir, clock):
        return {
            workers: analyze_shards_fused(
                shard_dir, clock, workers=workers, chunk_rows=256
            )
            for workers in (1, 2, 4)
        }

    def test_identical_for_any_worker_count(self, by_workers):
        reference, _ = by_workers[1]
        for workers in (2, 4):
            result, _ = by_workers[workers]
            assert_reports_identical(reference, result)

    def test_stats_report_the_run(self, by_workers, records):
        result, stats = by_workers[4]
        n_ghosts = sum(1 for r in records if is_ghost_record(r))
        assert stats.n_shards == 8
        assert stats.n_empty_shards == 0
        assert stats.workers == 4
        assert stats.n_records == len(records) - n_ghosts == result.durations.n
        assert stats.n_ghosts_dropped == n_ghosts == result.n_ghosts
        assert stats.peak_rss_bytes > 0


class TestSerialParity:
    @pytest.fixture(scope="class")
    def reduced(self, shard_dir, clock):
        result, _ = analyze_shards_fused(
            shard_dir, clock, workers=2, chunk_rows=256
        )
        return result

    def test_counts_and_histogram_stats_exact(self, reduced, serial_result):
        got, want = reduced.durations, serial_result.durations
        assert reduced.n_ghosts == serial_result.n_ghosts
        assert got.n == want.n
        assert got.median == want.median
        assert got.p73 == want.p73
        assert got.fraction_over_cutoff == want.fraction_over_cutoff

    def test_presence_and_days_exact(self, reduced, serial_result):
        # Distinct day/car and day/cell pair sets merge by exact unions.
        np.testing.assert_array_equal(
            reduced.presence.car_fraction, serial_result.presence.car_fraction
        )
        np.testing.assert_array_equal(
            reduced.presence.cell_fraction, serial_result.presence.cell_fraction
        )
        assert reduced.days == serial_result.days
        assert reduced.carriers.cars_fraction == (
            serial_result.carriers.cars_fraction
        )

    def test_float_sums_within_reassociation_precision(
        self, reduced, serial_result
    ):
        got, want = reduced.durations, serial_result.durations
        assert got.mean_full == pytest.approx(want.mean_full, rel=1e-9)
        assert got.mean_truncated == pytest.approx(want.mean_truncated, rel=1e-9)
        assert set(reduced.carriers.time_fraction) == set(
            serial_result.carriers.time_fraction
        )
        for carrier, fraction in reduced.carriers.time_fraction.items():
            assert fraction == pytest.approx(
                serial_result.carriers.time_fraction[carrier], rel=1e-9
            )

    def test_quantiles_within_documented_bound(self, reduced, records):
        kept = np.asarray(
            [r.duration for r in records if not is_ghost_record(r)]
        )
        durations = reduced.durations
        for q, value in ((0.5, durations.median), (0.73, durations.p73)):
            exact = float(np.quantile(kept, q, method="inverted_cdf"))
            assert abs(value - exact) <= 0.5  # 1-s bins -> bin/2

    def test_connect_time_matches_interval_union(self, reduced, clock, records):
        # Chain tables weld exactly, so the folded shares are the
        # reference's single subtractions and in-order adds.
        totals = exact_car_totals(records)
        connect = reduced.connect_time
        assert connect.car_ids == sorted(totals)
        expected = np.asarray([totals[car] for car in connect.car_ids])
        np.testing.assert_allclose(
            connect.truncated_share, expected / clock.duration, rtol=1e-9
        )


class TestEdgeShardLayouts:
    @pytest.fixture(scope="class")
    def ragged_dir(self, tmp_path_factory, records):
        """Heterogeneous shard sizes: empty, single-row, tiny and huge."""
        directory = tmp_path_factory.mktemp("ragged") / "shards"
        directory.mkdir(parents=True)
        col = ColumnarCDRBatch.from_records(records)
        bounds = [0, 0, 1, 38, 39, 1500, len(records)]
        for index, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
            write_batch_cdrz(
                directory / f"shard-{index:05d}.cdrz", col.rows(lo, hi)
            )
        return directory

    def test_ragged_shards_reduce_identically(
        self, ragged_dir, clock, serial_result
    ):
        reference, stats = analyze_shards_fused(ragged_dir, clock, workers=1)
        result, _ = analyze_shards_fused(ragged_dir, clock, workers=2)
        assert stats.n_shards == 6
        assert stats.n_empty_shards == 1
        assert_reports_identical(reference, result)
        assert result.durations.n == serial_result.durations.n
        assert result.durations.median == serial_result.durations.median

    def test_all_empty_shards_have_no_usable_records(self, tmp_path, clock):
        directory = tmp_path / "empties"
        write_sharded_cdrz(
            directory, ColumnarCDRBatch.from_records([]), shard_rows=10
        )
        for workers in (1, 2):
            with pytest.raises(NoUsableRecordsError, match="0 rows read"):
                analyze_shards_fused(directory, clock, workers=workers)

    def test_ghost_only_directory_has_no_usable_records(self, tmp_path, clock):
        ghosts = [rec(5.0, "a", 1, "C1", "4G", 3600.0)] * 3
        directory = tmp_path / "ghosts"
        write_sharded_cdrz(
            directory, ColumnarCDRBatch.from_records(ghosts), shard_rows=2
        )
        for workers in (1, 2):
            with pytest.raises(NoUsableRecordsError) as info:
                analyze_shards_fused(directory, clock, workers=workers)
            assert info.value.n_ghosts == 3

    def test_ghost_only_shard_is_tolerated(self, tmp_path, clock):
        directory = tmp_path / "mixed"
        directory.mkdir()
        ghosts = [rec(5.0, "a", 1, "C1", "4G", 3600.0)] * 3
        real = [rec(50.0, "a", 1, "C1", "4G", 30.0)]
        for index, rows in enumerate((ghosts, real)):
            write_batch_cdrz(
                directory / f"shard-{index:05d}.cdrz",
                ColumnarCDRBatch.from_records(rows),
            )
        result, stats = analyze_shards_fused(directory, clock, workers=1)
        assert stats.n_records == 1
        assert stats.n_ghosts_dropped == 3
        assert stats.n_empty_shards == 0
        assert result.durations.n == 1


class TestPartialContract:
    def test_absorb_rejects_mismatched_truncation(self, clock):
        col = ColumnarCDRBatch.from_records([rec(5.0, "a", 1, "C1", "4G", 50.0)])
        partials = []
        for truncate_s in (TRUNCATE_S, 300.0):
            engine = FusedEngine(clock, PreprocessConfig(truncate_s=truncate_s))
            engine.consume(col)
            partials.append(engine.export_partial())
        with pytest.raises(ValueError, match="cutoffs"):
            partials[0].absorb_partial(partials[1])

    def test_workers_validated(self, shard_dir, clock):
        with pytest.raises(ValueError, match="workers"):
            analyze_shards_fused(shard_dir, clock, workers=0)

    def test_map_shard_is_pure_in_the_shard(self, shard_dir, clock):
        spec = FusedMapSpec(
            shards=tuple(resolve_shards(shard_dir)),
            clock=clock,
            config=PreprocessConfig(),
            schedule=None,
            cells=None,
            min_records=2,
            chunk_rows=128,
        )
        first = map_shard_fused(spec, 3)
        second = map_shard_fused(spec, 3)
        assert first is not None and second is not None
        assert first.n_records == second.n_records
        assert_reports_identical(
            finalize_fused(first, clock), finalize_fused(second, clock)
        )


_durations = st.one_of(
    st.floats(min_value=0.0, max_value=5000.0, allow_nan=False),
    st.sampled_from([0.0, 599.9, 600.0, 600.1, 3599.5, 3600.0, 3600.5, 3600.6]),
)
_streams = st.lists(
    st.builds(
        ConnectionRecord,
        start=st.floats(min_value=-1000.0, max_value=12 * DAY, allow_nan=False),
        car_id=st.sampled_from([f"car-{i}" for i in range(8)]),
        cell_id=st.integers(min_value=0, max_value=20),
        carrier=st.sampled_from(["C1", "C2"]),
        technology=st.sampled_from(["3G", "4G"]),
        duration=_durations,
    ),
    min_size=0,
    max_size=120,
).map(lambda recs: sorted(recs, key=lambda r: r.start))


class TestHypothesisFoldParity:
    @given(
        records=_streams,
        cuts=st.lists(st.integers(min_value=0, max_value=120), max_size=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_any_partition_folds_to_the_same_result(self, records, cuts):
        """Shard partials folded in order == one serial engine.

        Splits the sorted stream at arbitrary boundaries (empty slices
        included), maps each non-empty slice through its own engine, and
        absorbs in order — the in-process equivalent of the worker pool.
        """
        clock = StudyClock(n_days=N_DAYS)
        kept = [r for r in records if not is_ghost_record(r)]
        if not kept:
            return
        serial = serial_report(records, clock)
        bounds = sorted({0, len(records), *[min(c, len(records)) for c in cuts]})
        folded = None
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            if lo == hi:
                continue
            engine = FusedEngine(clock)
            engine.consume(ColumnarCDRBatch.from_records(records[lo:hi]))
            partial = engine.export_partial()
            if folded is None:
                folded = partial
            else:
                folded.absorb_partial(partial)
        result = finalize_fused(folded, clock)

        assert result.n_ghosts == serial.n_ghosts
        got, want = result.durations, serial.durations
        assert (got.n, got.median, got.p73, got.fraction_over_cutoff) == (
            want.n, want.median, want.p73, want.fraction_over_cutoff
        )
        assert got.mean_full == pytest.approx(want.mean_full, rel=1e-9, abs=1e-12)
        np.testing.assert_array_equal(
            result.presence.car_fraction, serial.presence.car_fraction
        )
        np.testing.assert_array_equal(
            result.presence.cell_fraction, serial.presence.cell_fraction
        )
        assert result.days == serial.days
        assert result.connect_time.car_ids == serial.connect_time.car_ids
        np.testing.assert_array_equal(
            result.connect_time.truncated_share,
            serial.connect_time.truncated_share,
        )
        totals = exact_car_totals(records)
        expected = np.asarray([totals[c] for c in result.connect_time.car_ids])
        np.testing.assert_allclose(
            result.connect_time.truncated_share,
            expected / clock.duration,
            rtol=1e-9,
            atol=1e-12,
        )
