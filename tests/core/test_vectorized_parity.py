"""Bit-exact parity between the pipeline's two engines on adversarial batches.

``AnalysisPipeline.run(engine="fused")`` answers Section 4 with the
single-pass fused engine over lazily preprocessed columns;
``engine="reference"`` runs the record-based loops over eagerly built
records.  The two must produce *identical* reports, not merely close ones.
These tests hold that promise end to end — lazy preprocessing, ghost
cleaning, busy masks, handover classification and segmentation together —
on hand-built adversarial batches (overlapping records, bin/day boundary
straddling, unknown cells, empty carriers, single-record cars) and on
random hypothesis batches.  The per-analysis kernels are checked one by
one in ``test_fused_parity``.
"""

from __future__ import annotations

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


def assert_engines_agree(batch, schedule, load_model):
    """Run the whole pipeline through both engines; require equal reports.

    A batch with no usable records must be refused by both engines alike.
    """
    pipeline = AnalysisPipeline(CLOCK, load_model=load_model, cells=CELLS)
    # Deterministic masks keep cells outside ``schedule`` unknown, which a
    # load model over the synthetic topology would not.
    pipeline.schedule = schedule
    if preprocess(batch).n_kept == 0:
        for engine in ("reference", "fused"):
            with pytest.raises(NoUsableRecordsError):
                pipeline.run(batch, with_clustering=False, engine=engine)
        return None
    ref = pipeline.run(batch, with_clustering=False, engine="reference")
    fused = pipeline.run(batch, with_clustering=False, engine="fused")
    assert_reports_equal(fused, ref)
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
