"""Bit-exact parity between the pipeline's two engines on adversarial batches.

``AnalysisPipeline.run(engine="fused")`` answers Section 4 with the
single-pass fused engine over lazily preprocessed columns;
``engine="reference"`` runs the record-based loops over eagerly built
records.  The two must produce *identical* reports, not merely close ones.
These tests hold that promise end to end — lazy preprocessing, ghost
cleaning, busy masks, handover classification and segmentation together —
on hand-built adversarial batches (overlapping records, bin/day boundary
straddling, unknown cells, empty carriers, single-record cars) and on
random hypothesis batches, with Figure 11's clustering off and on.  The
per-analysis kernels are checked one by one in ``test_fused_parity``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings

from repro.algorithms.timebins import BIN_SECONDS, DAY
from repro.cdr.records import CDRBatch
from repro.core.pipeline import AnalysisPipeline
from repro.core.preprocess import NoUsableRecordsError, preprocess
from repro.network.load import CellLoadModel

from tests.core.test_fused_parity import (
    CELLS,
    CLOCK,
    assert_reports_equal,
    batch_st,
    rec,
    schedule_for,
)


@pytest.fixture(scope="module")
def week_load_model(topology):
    """The pipeline needs a load model to build its schedule; every test
    here swaps in explicit masks instead, so only the constructor uses it."""
    return CellLoadModel(topology, CLOCK, seed=5)


class BusyCells:
    """Load-model stand-in for Figure 11: its busy cells are the batches'
    own (plus cell 9, which no batch uses), where the synthetic topology's
    busy cells would hold no rows."""

    def busy_cell_ids(self, mean_threshold):
        return [1, 2, 3, 4, 5, 6, 9]


def assert_engines_agree(batch, schedule, load_model, with_clustering=False):
    """Run the whole pipeline through both engines; require equal reports.

    A batch with no usable records must be refused by both engines alike.
    With clustering, Figure 11 runs over :class:`BusyCells`, and the
    vectors, labels and cluster ordering must agree too.
    """
    pipeline = AnalysisPipeline(CLOCK, load_model=load_model, cells=CELLS)
    # Deterministic masks keep cells outside ``schedule`` unknown, which a
    # load model over the synthetic topology would not.
    pipeline.schedule = schedule
    if with_clustering:
        pipeline.load_model = BusyCells()
    if preprocess(batch).n_kept == 0:
        for engine in ("reference", "fused"):
            with pytest.raises(NoUsableRecordsError):
                pipeline.run(batch, with_clustering=with_clustering, engine=engine)
        return None
    ref = pipeline.run(batch, with_clustering=with_clustering, engine="reference")
    fused = pipeline.run(batch, with_clustering=with_clustering, engine="fused")
    assert_reports_equal(fused, ref)
    if with_clustering:
        assert fused.clusters is not None
        assert ref.clusters is not None
        assert fused.clusters.cell_ids == ref.clusters.cell_ids
        assert fused.clusters.vectors.tobytes() == ref.clusters.vectors.tobytes()
        assert fused.clusters.ordering == ref.clusters.ordering
        assert np.array_equal(fused.clusters.result.labels, ref.clusters.result.labels)
    return fused


class TestAdversarialBatches:
    def test_overlapping_records_one_car(self, week_load_model):
        # Parallel bearers: identical starts, nested and staggered overlaps.
        batch = CDRBatch([
            rec(1000.0, dur=500.0),
            rec(1000.0, dur=200.0, cell=2, carrier="C4"),
            rec(1100.0, dur=50.0, cell=3),
            rec(1400.0, dur=300.0, cell=4, carrier="C1"),
        ])
        assert_engines_agree(batch, schedule_for([1, 2, 3, 4]), week_load_model)

    def test_bin_and_day_boundary_straddling(self, week_load_model):
        batch = CDRBatch([
            # Ends exactly on a bin boundary: last bin must not be counted.
            rec(BIN_SECONDS - 100.0, dur=100.0),
            # Zero-duration record sitting exactly on a bin boundary.
            rec(2 * BIN_SECONDS, dur=0.0, cell=2, carrier="C4"),
            # Straddles several bins and a midnight boundary.
            rec(DAY - 650.0, car="car-b", cell=3, dur=1300.0),
            # Whole-day record (ghost rule removes exactly 3600 s, not this).
            rec(3 * DAY + 1.0, car="car-b", cell=4, carrier="C1", dur=3599.0),
        ])
        assert_engines_agree(batch, schedule_for([1, 2, 3, 4]), week_load_model)

    def test_records_outside_study_window(self, week_load_model):
        batch = CDRBatch([
            rec(100.0),
            rec(CLOCK.n_days * DAY + 5.0, car="car-b", cell=2, carrier="C4"),
        ])
        assert_engines_agree(batch, schedule_for([1, 2]), week_load_model)

    def test_unknown_cells_skip_busy_masks_and_handovers(self, week_load_model):
        # Cells 77/88 have no busy series and are missing from the
        # directory; their records stay whole (all non-busy) and are
        # ignored by handover classification.
        batch = CDRBatch([
            rec(100.0, cell=77, dur=950.0),
            rec(1100.0, cell=1, dur=100.0),
            rec(1250.0, cell=88, dur=40.0),
            rec(1300.0, cell=2, carrier="C4", dur=100.0),
        ])
        assert_engines_agree(batch, schedule_for([1, 2]), week_load_model)

    def test_all_cells_unknown(self, week_load_model):
        batch = CDRBatch([rec(100.0, cell=99), rec(300.0, cell=98, car="car-b")])
        assert_engines_agree(batch, schedule_for([]), week_load_model)

    def test_empty_carriers_report_zero(self, week_load_model):
        batch = CDRBatch([
            rec(100.0, carrier="C2", tech="3G"),
            rec(400.0, carrier="C2", tech="3G"),
        ])
        report = assert_engines_agree(batch, schedule_for([1]), week_load_model)
        for c in ("C1", "C3", "C4", "C5"):
            assert report.carriers.cars_fraction[c] == 0.0
            assert report.carriers.time_fraction[c] == 0.0

    def test_single_record_cars(self, week_load_model):
        batch = CDRBatch([
            rec(100.0, car=f"car-{i}", cell=1 + i % 4, dur=10.0 * i + 1.0)
            for i in range(5)
        ])
        assert_engines_agree(batch, schedule_for([1, 2, 3, 4]), week_load_model)

    def test_session_below_min_records_with_unknown_cells(self, week_load_model):
        # A two-record session with one known cell is skipped by the
        # min-records rule; a one-record session is kept (count 0).
        batch = CDRBatch([
            rec(100.0, cell=1, dur=50.0),
            rec(200.0, cell=99, dur=50.0),
            rec(5000.0, cell=2, carrier="C4", dur=50.0),
        ])
        assert_engines_agree(batch, schedule_for([1, 2]), week_load_model)


@given(batch_st)
@settings(max_examples=60, deadline=None)
def test_engines_agree_on_random_batches(week_load_model, batch):
    # Cells 5 and 6 are deliberately absent from both the busy schedule and
    # the directory, so random batches also exercise the unknown-cell paths.
    assert_engines_agree(batch, schedule_for([1, 2, 3, 4]), week_load_model)


class TestClusteringOn:
    """Figure 11 through both engines: record loops against the columns."""

    def test_session_and_bin_edges(self, week_load_model):
        batch = CDRBatch([
            # Zero-length record at the previous record's end: no extra bin.
            rec(0.0, dur=BIN_SECONDS),
            rec(BIN_SECONDS, dur=0.0),
            # A gap of exactly 30 s before a zero-length boundary record.
            rec(3 * BIN_SECONDS, car="car-b", dur=BIN_SECONDS - 30.0),
            rec(4 * BIN_SECONDS, car="car-b", dur=0.0),
            # Overlapping records of one car, interleaved with another car.
            rec(DAY, cell=2, dur=700.0),
            rec(DAY + 10.0, car="car-b", cell=2, dur=50.0),
            rec(DAY + 20.0, cell=2, dur=1300.0),
            rec(DAY + 30.0, car="car-b", cell=2, dur=0.0),
            # Over the 600 s cap, and past the last whole week.
            rec(2 * DAY, cell=3, carrier="C3", dur=5000.0),
            rec(7 * DAY + 100.0, car="car-c", cell=4, carrier="C1"),
        ])
        assert_engines_agree(
            batch, schedule_for([1, 2, 3, 4]), week_load_model, with_clustering=True
        )

    def test_ghosts_and_unknown_cells(self, week_load_model):
        batch = CDRBatch([
            rec(100.0, dur=3600.0),
            rec(200.0, cell=77, dur=950.0),
            rec(300.0, car="car-b", cell=5, dur=20.0),
            rec(5000.0, car="car-c", cell=6, dur=0.0),
        ])
        assert_engines_agree(
            batch, schedule_for([1, 2]), week_load_model, with_clustering=True
        )


@given(batch_st)
@settings(max_examples=40, deadline=None)
def test_engines_agree_with_clustering_on_random_batches(week_load_model, batch):
    assert_engines_agree(
        batch, schedule_for([1, 2, 3, 4]), week_load_model, with_clustering=True
    )
