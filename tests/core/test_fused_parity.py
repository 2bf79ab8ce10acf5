"""Bit-exact parity between the fused engine and the reference loops.

A *single* pass over shared per-chunk intermediates must reproduce every
record-based reference bit for bit — at any chunk size, across pickled
cross-shard partials, and at any map-reduce worker count.  These tests
hold that promise on hand-built adversarial batches (overlapping records,
bin/day boundary straddling, unknown cells, empty carriers, single-record
cars), on random hypothesis batches with random chunk sizes, end to end
over sharded ``.cdrz`` stores, and at the level of a whole pipeline run.
Figure 9's duration quantiles come from a 1-second histogram, so they are
checked to half a bin instead of bit for bit.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.timebins import BIN_SECONDS, DAY, StudyClock
from repro.cdr.records import CDRBatch, ConnectionRecord
from repro.cdr.store import write_sharded_cdrz
from repro.core.busy import BusySchedule, busy_exposure
from repro.core.carriers import carrier_usage
from repro.core.connect_time import (
    cell_connection_durations,
    connect_time_analysis,
)
from repro.core.fused import (
    FusedEngine,
    busy_exposure_fused,
    carrier_usage_fused,
    connect_time_analysis_fused,
    daily_presence_fused,
    days_on_network_fused,
    finalize_fused,
    handover_analysis_fused,
)
from repro.core.handover import handover_analysis
from repro.core.mapreduce import analyze_shards_fused
from repro.core.preprocess import NoUsableRecordsError, PreprocessConfig, preprocess
from repro.core.presence import daily_presence
from repro.core.segmentation import days_on_network, segment_cars
from repro.network.cells import CARRIERS, Cell
from repro.network.geometry import Point

CLOCK = StudyClock(start_weekday=0, n_days=7)

#: A small cell directory: two sectors on one base station plus a second
#: site, mixing carriers so every handover type is reachable.
CELLS = {
    1: Cell(1, base_station_id=10, sector_index=0, carrier=CARRIERS["C3"],
            location=Point(0.0, 0.0), azimuth_deg=0.0),
    2: Cell(2, base_station_id=10, sector_index=0, carrier=CARRIERS["C4"],
            location=Point(0.0, 0.0), azimuth_deg=0.0),
    3: Cell(3, base_station_id=10, sector_index=1, carrier=CARRIERS["C3"],
            location=Point(0.0, 0.0), azimuth_deg=120.0),
    4: Cell(4, base_station_id=20, sector_index=0, carrier=CARRIERS["C1"],
            location=Point(1.0, 1.0), azimuth_deg=0.0),
}


def rec(start, car="car-a", cell=1, carrier="C3", tech="4G", dur=60.0):
    return ConnectionRecord(
        start=float(start), car_id=car, cell_id=cell,
        carrier=carrier, technology=tech, duration=float(dur),
    )


def schedule_for(cell_ids, n_bins=None, period=3):
    """Deterministic busy masks: cell ``c`` is busy in bins where
    ``(bin + c) % period == 0``.  Cells outside ``cell_ids`` stay unknown."""
    n_bins = n_bins or CLOCK.n_days * DAY // BIN_SECONDS
    bins = np.arange(n_bins)
    return BusySchedule.from_series(
        {c: np.where((bins + c) % period == 0, 0.9, 0.1) for c in cell_ids}
    )


def chunked(col, size):
    for lo in range(0, len(col), size):
        yield col.rows(lo, min(lo + size, len(col)))


def assert_report_matches(report, pre, schedule, cells):
    """One fused report against every record-based reference, bit for bit
    (busy-exposure shares too: a single engine never splits a car's rows
    across partials, so even those reduce exactly)."""
    ref_p = daily_presence(pre.full, CLOCK)
    assert report.presence.n_cars_total == ref_p.n_cars_total
    assert report.presence.n_cells_total == ref_p.n_cells_total
    assert np.array_equal(report.presence.car_fraction, ref_p.car_fraction)
    assert np.array_equal(report.presence.cell_fraction, ref_p.cell_fraction)

    ref_d = days_on_network(pre.full, CLOCK)
    assert report.days == ref_d
    assert report.carriers == carrier_usage(pre.full)

    ref_c = connect_time_analysis(pre, CLOCK)
    assert report.connect_time.car_ids == ref_c.car_ids
    assert np.array_equal(report.connect_time.full_share, ref_c.full_share)
    assert np.array_equal(
        report.connect_time.truncated_share, ref_c.truncated_share
    )

    ref_b = busy_exposure(pre.truncated, schedule)
    assert report.exposure is not None
    assert report.exposure.car_ids == ref_b.car_ids
    assert np.array_equal(report.exposure.busy_share, ref_b.busy_share)
    assert np.array_equal(report.exposure.nonbusy_share, ref_b.nonbusy_share)
    assert report.segmentation == segment_cars(ref_d, ref_b)

    ref_h = handover_analysis(pre, cells)
    assert report.handovers is not None
    assert np.array_equal(report.handovers.per_session, ref_h.per_session)
    assert report.handovers.type_counts == ref_h.type_counts

    assert report.n_ghosts == pre.n_dropped_ghosts
    assert_durations_match(report.durations, pre)


def assert_durations_match(stats, pre):
    """Figure 9 against ``cell_connection_durations``: counts and the
    over-cutoff share exactly, quantiles within half a 1-s bin of the
    inverted-CDF order statistic, means to reassociation precision."""
    full = cell_connection_durations(pre, truncated=False)
    trunc = cell_connection_durations(pre, truncated=True)
    assert stats.n == len(full)
    assert stats.fraction_over_cutoff == (
        np.count_nonzero(full > pre.config.truncate_s) / len(full)
    )
    for q, value in ((0.5, stats.median), (0.73, stats.p73)):
        exact = float(np.quantile(full, q, method="inverted_cdf"))
        assert abs(value - exact) <= 0.5
    assert stats.mean_full == pytest.approx(full.mean(), rel=1e-9)
    assert stats.mean_truncated == pytest.approx(trunc.mean(), rel=1e-9)


def assert_fused_matches_reference(batch, schedule, cells):
    """Wrappers, whole-batch engine and chunked engines vs the references."""
    pre = preprocess(batch)
    if len(pre.full) == 0:
        return
    full_col = pre.full.columnar()

    ref_p = daily_presence(pre.full, CLOCK)
    fus_p = daily_presence_fused(full_col, CLOCK)
    assert fus_p.n_cars_total == ref_p.n_cars_total
    assert fus_p.n_cells_total == ref_p.n_cells_total
    assert np.array_equal(fus_p.car_fraction, ref_p.car_fraction)
    assert np.array_equal(fus_p.cell_fraction, ref_p.cell_fraction)

    assert days_on_network_fused(full_col, CLOCK) == days_on_network(
        pre.full, CLOCK
    )
    assert carrier_usage_fused(full_col) == carrier_usage(pre.full)

    ref_b = busy_exposure(pre.truncated, schedule)
    fus_b = busy_exposure_fused(full_col, schedule)
    assert fus_b.car_ids == ref_b.car_ids
    assert np.array_equal(fus_b.busy_share, ref_b.busy_share)
    assert np.array_equal(fus_b.nonbusy_share, ref_b.nonbusy_share)

    ref_c = connect_time_analysis(pre, CLOCK)
    fus_c = connect_time_analysis_fused(pre, CLOCK)
    assert fus_c.car_ids == ref_c.car_ids
    assert np.array_equal(fus_c.full_share, ref_c.full_share)
    assert np.array_equal(fus_c.truncated_share, ref_c.truncated_share)

    ref_h = handover_analysis(pre, cells)
    fus_h = handover_analysis_fused(pre, cells)
    assert np.array_equal(fus_h.per_session, ref_h.per_session)
    assert fus_h.type_counts == ref_h.type_counts

    # The engine consumes *raw* chunks (ghost cleaning happens inside the
    # shared intermediates), so chunking must slice the unpreprocessed view.
    raw = batch.columnar()
    for size in (1, 7, len(raw)):
        engine = FusedEngine(CLOCK, schedule=schedule, cells=cells)
        for chunk in chunked(raw, size):
            engine.consume(chunk)
        assert_report_matches(engine.finalize(), pre, schedule, cells)


class TestAdversarialBatches:
    def test_overlapping_records_one_car(self):
        batch = CDRBatch([
            rec(1000.0, dur=500.0),
            rec(1000.0, dur=200.0, cell=2, carrier="C4"),
            rec(1100.0, dur=50.0, cell=3),
            rec(1400.0, dur=300.0, cell=4, carrier="C1"),
        ])
        assert_fused_matches_reference(batch, schedule_for([1, 2, 3, 4]), CELLS)

    def test_bin_day_boundaries_ghosts_and_zero_durations(self):
        batch = CDRBatch([
            rec(BIN_SECONDS - 100.0, dur=100.0),
            rec(2 * BIN_SECONDS, dur=0.0, cell=2, carrier="C4"),
            rec(DAY - 650.0, car="car-b", cell=3, dur=1300.0),
            # Exact ghost: must vanish inside the intermediates.
            rec(2 * DAY, car="car-b", cell=1, dur=3600.0),
            rec(3 * DAY + 1.0, car="car-b", cell=4, carrier="C1", dur=3599.0),
        ])
        assert_fused_matches_reference(batch, schedule_for([1, 2, 3, 4]), CELLS)

    def test_unknown_cells_and_short_sessions(self):
        batch = CDRBatch([
            rec(100.0, cell=77, dur=950.0),
            rec(1100.0, cell=1, dur=100.0),
            rec(1250.0, cell=88, dur=40.0),
            rec(1300.0, cell=2, carrier="C4", dur=100.0),
            rec(9000.0, car="car-b", cell=99, dur=10.0),
        ])
        assert_fused_matches_reference(batch, schedule_for([1, 2]), CELLS)

    def test_records_outside_study_window(self):
        batch = CDRBatch([
            rec(100.0),
            rec(CLOCK.n_days * DAY + 5.0, car="car-b", cell=2, carrier="C4"),
        ])
        assert_fused_matches_reference(batch, schedule_for([1, 2]), CELLS)

    def test_all_ghost_chunk_between_real_chunks(self):
        # A middle chunk that cleans down to zero rows must be a no-op.
        batch = CDRBatch([
            rec(100.0, dur=50.0),
            rec(5000.0, car="car-b", cell=2, carrier="C4", dur=3600.0),
            rec(9000.0, car="car-b", cell=3, dur=70.0),
        ])
        assert_fused_matches_reference(batch, schedule_for([1, 2, 3]), CELLS)

    def test_all_cells_unknown(self):
        batch = CDRBatch([rec(100.0, cell=99), rec(300.0, cell=98, car="car-b")])
        assert_fused_matches_reference(batch, schedule_for([]), CELLS)

    def test_empty_carriers_report_zero(self):
        batch = CDRBatch([
            rec(100.0, carrier="C2", tech="3G"),
            rec(400.0, carrier="C2", tech="3G"),
        ])
        pre = preprocess(batch)
        usage = carrier_usage_fused(pre.full.columnar())
        assert usage == carrier_usage(pre.full)
        for c in ("C1", "C3", "C4", "C5"):
            assert usage.cars_fraction[c] == 0.0
            assert usage.time_fraction[c] == 0.0
        assert_fused_matches_reference(batch, schedule_for([1]), CELLS)

    def test_single_record_cars(self):
        batch = CDRBatch([
            rec(100.0, car=f"car-{i}", cell=1 + i % 4, dur=10.0 * i + 1.0)
            for i in range(5)
        ])
        assert_fused_matches_reference(batch, schedule_for([1, 2, 3, 4]), CELLS)

    def test_session_below_min_records_with_unknown_cells(self):
        # A two-record session with one known cell is skipped by the
        # min-records rule; a one-record session is kept (count 0).
        batch = CDRBatch([
            rec(100.0, cell=1, dur=50.0),
            rec(200.0, cell=99, dur=50.0),
            rec(5000.0, cell=2, carrier="C4", dur=50.0),
        ])
        assert_fused_matches_reference(batch, schedule_for([1, 2]), CELLS)

    def test_engine_rejects_vocabulary_change(self):
        a = CDRBatch([rec(100.0)]).columnar()
        b = CDRBatch([rec(200.0, car="car-z")]).columnar()
        engine = FusedEngine(CLOCK)
        engine.consume(a)
        with pytest.raises(ValueError, match="vocabulary"):
            engine.consume(b)

    def test_engine_with_no_chunks_refuses_to_finalize(self):
        with pytest.raises(ValueError, match="no chunks"):
            FusedEngine(CLOCK).finalize()


record_st = st.builds(
    ConnectionRecord,
    start=st.floats(min_value=0, max_value=7 * DAY + 500, allow_nan=False),
    car_id=st.sampled_from([f"car-{i}" for i in range(5)]),
    cell_id=st.integers(min_value=1, max_value=6),
    carrier=st.sampled_from(["C1", "C2", "C3", "C4", "C5"]),
    technology=st.sampled_from(["3G", "4G"]),
    duration=st.floats(min_value=0, max_value=2 * DAY, allow_nan=False),
)
batch_st = st.lists(record_st, min_size=1, max_size=50).map(CDRBatch)


@given(batch_st, st.integers(min_value=1, max_value=17))
@settings(max_examples=40, deadline=None)
def test_fused_agrees_on_random_batches_at_random_chunk_sizes(batch, size):
    pre = preprocess(batch)
    if len(pre.full) == 0:
        return
    schedule = schedule_for([1, 2, 3, 4])
    raw = batch.columnar()
    engine = FusedEngine(CLOCK, schedule=schedule, cells=CELLS)
    for chunk in chunked(raw, size):
        engine.consume(chunk)
    assert_report_matches(engine.finalize(), pre, schedule, CELLS)


@given(batch_st, st.integers(min_value=1, max_value=6))
@settings(max_examples=25, deadline=None)
def test_pickled_partial_folds_match_single_engine(batch, n_splits):
    """Cross-shard reduction: pickle each split's partial, absorb in order.

    Presence, days, carrier reach, connect time, handovers and the ghost
    count must fold *exactly*; busy-share tallies merge to reassociation
    precision (the documented contract), so those get ``allclose``.
    """
    pre = preprocess(batch)
    if len(pre.full) == 0:
        return
    schedule = schedule_for([1, 2, 3, 4])
    raw = batch.columnar()
    size = max(1, -(-len(raw) // n_splits))

    merged = None
    for chunk in chunked(raw, size):
        engine = FusedEngine(CLOCK, schedule=schedule, cells=CELLS)
        engine.consume(chunk)
        partial = pickle.loads(pickle.dumps(engine.export_partial()))
        if merged is None:
            merged = partial
        else:
            merged.absorb_partial(partial)
    report = finalize_fused(merged, CLOCK)

    single = FusedEngine(CLOCK, schedule=schedule, cells=CELLS)
    single.consume(raw)
    expected = single.finalize()

    assert np.array_equal(
        report.presence.car_fraction, expected.presence.car_fraction
    )
    assert np.array_equal(
        report.presence.cell_fraction, expected.presence.cell_fraction
    )
    assert report.presence.n_cells_total == expected.presence.n_cells_total
    assert report.days == expected.days
    assert report.carriers.cars_fraction == expected.carriers.cars_fraction
    assert report.carriers.n_cars == expected.carriers.n_cars
    np.testing.assert_allclose(
        [report.carriers.time_fraction[c] for c in report.carriers.time_fraction],
        [expected.carriers.time_fraction[c] for c in expected.carriers.time_fraction],
        rtol=1e-12,
    )
    assert report.connect_time.car_ids == expected.connect_time.car_ids
    assert np.array_equal(
        report.connect_time.full_share, expected.connect_time.full_share
    )
    assert np.array_equal(
        report.connect_time.truncated_share,
        expected.connect_time.truncated_share,
    )
    assert report.exposure is not None and expected.exposure is not None
    assert report.exposure.car_ids == expected.exposure.car_ids
    np.testing.assert_allclose(
        report.exposure.busy_share, expected.exposure.busy_share, rtol=1e-12
    )
    assert report.handovers is not None and expected.handovers is not None
    assert np.array_equal(
        report.handovers.per_session, expected.handovers.per_session
    )
    assert report.handovers.type_counts == expected.handovers.type_counts
    assert report.n_ghosts == expected.n_ghosts
    got, want = report.durations, expected.durations
    assert (got.n, got.median, got.p73, got.fraction_over_cutoff) == (
        want.n, want.median, want.p73, want.fraction_over_cutoff
    )
    np.testing.assert_allclose(
        [got.mean_full, got.mean_truncated],
        [want.mean_full, want.mean_truncated],
        rtol=1e-12,
    )


class TestFigure9Durations:
    def test_controlled_stream(self):
        # Four kept records (one ghost dropped), two of them over 600 s.
        batch = CDRBatch(
            [rec(i * 10_000.0, dur=d) for i, d in enumerate((100, 200, 700, 1300))]
            + [rec(50_000.0, dur=3600.0)]
        )
        engine = FusedEngine(CLOCK)
        engine.consume(batch.columnar())
        report = engine.finalize()
        assert report.n_ghosts == 1
        stats = report.durations
        assert stats.n == 4
        assert stats.fraction_over_cutoff == 0.5
        # Inverted-CDF ranks ceil(0.5 * 4) = 2 and ceil(0.73 * 4) = 3, read
        # as the midpoints of their 1-s bins.
        assert stats.median == 200.5
        assert stats.p73 == 700.5
        assert stats.mean_full == 575.0
        assert stats.mean_truncated == 375.0

    def test_bit_identical_at_every_chunk_size(self):
        batch = CDRBatch([
            rec(100.0 * i, car=f"car-{i % 3}", dur=d)
            for i, d in enumerate(
                (0.0, 599.9, 600.0, 600.1, 3600.0, 0.25, 1e5 + 0.7, 42.0, 3599.5)
            )
        ])
        raw = batch.columnar()
        results = set()
        for size in range(1, len(raw) + 1):
            engine = FusedEngine(CLOCK)
            for chunk in chunked(raw, size):
                engine.consume(chunk)
            results.add(engine.finalize().durations)
        assert len(results) == 1
        assert_durations_match(results.pop(), preprocess(batch))

    def test_partial_is_a_sparse_table_of_occupied_bins(self):
        batch = CDRBatch([
            rec(100.0 * i, dur=d)
            for i, d in enumerate((5.0, 5.4, 17.0, 107_538.2, 66_203.0))
        ])
        engine = FusedEngine(CLOCK)
        engine.consume(batch.columnar())
        partial = engine.export_partial().durations
        assert partial.bins.tolist() == [5, 17, 66_203, 107_538]
        assert partial.counts.tolist() == [2, 1, 1, 1]
        assert partial.n_over == 2

    def test_ghost_only_engine_finalizes_to_zeros(self):
        engine = FusedEngine(CLOCK)
        engine.consume(CDRBatch([rec(100.0, dur=3600.0)]).columnar())
        stats = engine.finalize().durations
        assert (stats.n, stats.median, stats.mean_full) == (0, 0.0, 0.0)
        assert stats.fraction_over_cutoff == 0.0

    def test_absorb_rejects_a_different_cutoff(self):
        col = CDRBatch([rec(100.0)]).columnar()
        partials = []
        for truncate_s in (600.0, 300.0):
            engine = FusedEngine(CLOCK, PreprocessConfig(truncate_s=truncate_s))
            engine.consume(col)
            partials.append(engine.export_partial().durations)
        with pytest.raises(ValueError, match="cutoffs"):
            partials[0].absorb_partial(partials[1])


class TestFusedMapReduce:
    @pytest.fixture(scope="class")
    def sharded(self, tmp_path_factory, dataset):
        root = tmp_path_factory.mktemp("fused-shards")
        write_sharded_cdrz(root, dataset.batch.columnar(), shard_rows=701)
        return root

    @pytest.fixture(scope="class")
    def schedule(self, load_model):
        return BusySchedule.from_load_model(load_model)

    def test_worker_counts_are_bit_identical(
        self, sharded, dataset, topology, schedule, clock
    ):
        reports = {}
        for workers in (1, 2, 4):
            report, stats = analyze_shards_fused(
                sharded,
                clock,
                schedule=schedule,
                cells=topology.cells,
                workers=workers,
            )
            assert stats.workers == min(workers, stats.n_shards)
            reports[workers] = report
        base = reports[1]
        for workers in (2, 4):
            other = reports[workers]
            assert np.array_equal(
                other.presence.car_fraction, base.presence.car_fraction
            )
            assert other.days == base.days
            assert np.array_equal(
                other.connect_time.full_share, base.connect_time.full_share
            )
            assert np.array_equal(
                other.exposure.busy_share, base.exposure.busy_share
            )
            assert np.array_equal(
                other.handovers.per_session, base.handovers.per_session
            )
            assert other.handovers.type_counts == base.handovers.type_counts
            assert other.carriers == base.carriers
            assert other.durations == base.durations

    def test_matches_in_memory_references(
        self, sharded, dataset, topology, schedule, clock
    ):
        report, _ = analyze_shards_fused(
            sharded, clock, schedule=schedule, cells=topology.cells, workers=2
        )
        pre = preprocess(dataset.batch)
        assert report.n_kept == len(pre.full)
        assert report.n_ghosts == pre.n_dropped_ghosts

        ref_p = daily_presence(pre.full, clock)
        assert np.array_equal(report.presence.car_fraction, ref_p.car_fraction)
        assert np.array_equal(
            report.presence.cell_fraction, ref_p.cell_fraction
        )
        assert report.days == days_on_network(pre.full, clock)
        ref_c = connect_time_analysis(pre, clock)
        assert report.connect_time.car_ids == ref_c.car_ids
        assert np.array_equal(report.connect_time.full_share, ref_c.full_share)
        assert np.array_equal(
            report.connect_time.truncated_share, ref_c.truncated_share
        )
        ref_h = handover_analysis(pre, topology.cells)
        assert np.array_equal(
            report.handovers.per_session, ref_h.per_session
        )
        assert report.handovers.type_counts == ref_h.type_counts
        assert report.carriers.cars_fraction == carrier_usage(
            pre.full
        ).cars_fraction
        ref_b = busy_exposure(pre.truncated, schedule)
        assert report.exposure.car_ids == ref_b.car_ids
        np.testing.assert_allclose(
            report.exposure.busy_share, ref_b.busy_share, rtol=1e-12
        )

    def test_optional_analyses_need_schedule_and_cells(
        self, sharded, dataset, clock
    ):
        report, _ = analyze_shards_fused(sharded, clock, workers=2)
        pre = preprocess(dataset.batch)
        assert report.n_kept == len(pre.full)
        assert report.n_ghosts == pre.n_dropped_ghosts
        assert report.exposure is None
        assert report.segmentation is None
        assert report.handovers is None

    def test_map_shard_fused_counts_each_shards_rows(self, sharded, clock):
        # Per-shard accounting: each partial keeps and drops exactly the
        # rows preprocessing keeps and drops from that shard's bytes.
        from repro.cdr.store import read_batch_cdrz, resolve_shards
        from repro.core.mapreduce import FusedMapSpec, map_shard_fused

        shards = tuple(resolve_shards(sharded))
        spec = FusedMapSpec(
            shards=shards,
            clock=clock,
            config=PreprocessConfig(),
            schedule=None,
            cells=None,
            min_records=2,
            chunk_rows=256,
        )
        for index, shard in enumerate(shards):
            partial = map_shard_fused(spec, index)
            pre = preprocess(read_batch_cdrz(shard).to_batch())
            assert partial is not None
            assert partial.n_records == len(pre.full)
            assert partial.n_ghosts == pre.n_dropped_ghosts

    def test_map_shards_fused_partial_sweeps_fold_to_full_report(
        self, sharded, clock
    ):
        # Parity for the partial-sweep API: mapping disjoint index subsets
        # with map_shards_fused and folding must reproduce the one-sweep
        # analyze_shards_fused report bit for bit.
        from repro.cdr.store import resolve_shards
        from repro.core.mapreduce import (
            FusedMapSpec,
            fold_fused_partials,
            map_shards_fused,
        )

        shards = tuple(resolve_shards(sharded))
        spec = FusedMapSpec(
            shards=shards,
            clock=clock,
            config=PreprocessConfig(),
            schedule=None,
            cells=None,
            min_records=2,
            chunk_rows=256,
        )
        halfway = len(shards) // 2
        first = map_shards_fused(
            spec, indices=list(range(halfway)), workers=1
        )
        second = map_shards_fused(
            spec, indices=list(range(halfway, len(shards))), workers=1
        )
        partials = (
            (str(shards[index]), partial)
            for index, partial in sorted((first | second).items())
        )
        report = finalize_fused(fold_fused_partials(partials), clock)
        reference, _ = analyze_shards_fused(
            sharded, clock, min_records=2, chunk_rows=256, workers=1
        )
        assert np.array_equal(
            report.presence.car_fraction, reference.presence.car_fraction
        )
        assert np.array_equal(
            report.presence.cell_fraction, reference.presence.cell_fraction
        )
        assert report.days == reference.days
        assert report.connect_time.car_ids == reference.connect_time.car_ids
        assert np.array_equal(
            report.connect_time.full_share, reference.connect_time.full_share
        )
        assert np.array_equal(
            report.connect_time.truncated_share,
            reference.connect_time.truncated_share,
        )
        assert report.carriers.cars_fraction == reference.carriers.cars_fraction
        assert report.carriers.time_fraction == reference.carriers.time_fraction
        assert report.n_ghosts == reference.n_ghosts

    def test_empty_source_is_rejected(self, tmp_path, clock, dataset):
        empty = dataset.batch.columnar().rows(0, 0)
        write_sharded_cdrz(tmp_path, empty, shard_rows=10)
        with pytest.raises(NoUsableRecordsError, match="no usable records"):
            analyze_shards_fused(tmp_path, clock, workers=1)


def assert_reports_equal(a, b):
    """Two :class:`AnalysisReport` objects agree in every field, bit for bit."""
    assert a.pre.n_kept == b.pre.n_kept
    assert a.pre.n_dropped_ghosts == b.pre.n_dropped_ghosts
    assert list(a.pre.full) == list(b.pre.full)
    assert list(a.pre.truncated) == list(b.pre.truncated)
    assert a.presence.n_cars_total == b.presence.n_cars_total
    assert a.presence.n_cells_total == b.presence.n_cells_total
    assert np.array_equal(a.presence.car_fraction, b.presence.car_fraction)
    assert np.array_equal(a.presence.cell_fraction, b.presence.cell_fraction)
    assert a.weekday_rows == b.weekday_rows
    assert a.connect_time.car_ids == b.connect_time.car_ids
    assert np.array_equal(a.connect_time.full_share, b.connect_time.full_share)
    assert np.array_equal(
        a.connect_time.truncated_share, b.connect_time.truncated_share
    )
    assert a.days == b.days
    assert a.exposure.car_ids == b.exposure.car_ids
    assert np.array_equal(a.exposure.busy_share, b.exposure.busy_share)
    assert np.array_equal(a.exposure.nonbusy_share, b.exposure.nonbusy_share)
    assert a.segmentation == b.segmentation
    assert a.carriers == b.carriers
    assert a.handovers is not None and b.handovers is not None
    assert np.array_equal(a.handovers.per_session, b.handovers.per_session)
    assert a.handovers.type_counts == b.handovers.type_counts
    assert (a.clusters is None) == (b.clusters is None)
    if a.clusters is not None and b.clusters is not None:
        assert a.clusters.cell_ids == b.clusters.cell_ids
        assert np.array_equal(a.clusters.vectors, b.clusters.vectors)
        assert a.clusters.ordering == b.clusters.ordering
        assert np.array_equal(a.clusters.result.labels, b.clusters.result.labels)
    assert a.notes == b.notes


def test_pipeline_engines_produce_identical_reports(dataset):
    from repro.core.pipeline import AnalysisPipeline

    pipeline = AnalysisPipeline(
        dataset.clock,
        load_model=dataset.load_model,
        cells=dataset.topology.cells,
    )
    ref = pipeline.run(dataset.batch, engine="reference")
    assert_reports_equal(pipeline.run(dataset.batch, engine="fused"), ref)
    # The default engine is the fused one.
    assert_reports_equal(pipeline.run(dataset.batch), ref)


@pytest.mark.parametrize("engine", ["vectorized", "turbo"])
def test_pipeline_rejects_unknown_engine(dataset, engine):
    from repro.core.pipeline import AnalysisPipeline

    pipeline = AnalysisPipeline(dataset.clock, load_model=dataset.load_model)
    with pytest.raises(ValueError, match="engine"):
        pipeline.run(dataset.batch, engine=engine)
