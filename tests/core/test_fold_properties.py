"""Folding shard partials in order equals one pass, on random shard cuts.

Hypothesis draws a small trace, plants three row pairs a shard boundary
must not break — two rows of one car inside one 30-s aggregate session,
two rows in one 15-minute bin, and two rows sharing a start — and cuts the
record-ordered stream between each pair plus at random places.  Every
slice runs through its own :class:`FusedEngine` (its own vocabulary), and
the partials fold in order.  The fold must give Figure 11's weekly
concurrency vectors bit for bit as the record oracle
:func:`weekly_concurrency` does, the twin read-outs of one engine over the
whole trace, and the per-car aggregate sessions of :func:`preprocess`.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.timebins import BIN_SECONDS, DAY, StudyClock
from repro.cdr.columnar import ColumnarCDRBatch
from repro.cdr.records import CDRBatch, ConnectionRecord
from repro.core.concurrency import weekly_concurrency, weekly_concurrency_rows
from repro.core.fused import FusedEngine
from repro.core.mapreduce import fold_fused_partials
from repro.core.preprocess import preprocess
from repro.core.twinstats import aggregate_sessions, duration_quantile

CLOCK = StudyClock(n_days=8)
#: Busy cells in a deliberately unsorted order: Figure 11's rows follow it.
BUSY = (4, 1, 3)
CARS = tuple(f"car-{i}" for i in range(4))

_durations = st.one_of(
    st.floats(min_value=0.0, max_value=2000.0, allow_nan=False),
    st.sampled_from([0.0, 30.0, 599.9, 600.0, 3600.0, BIN_SECONDS]),
)
_records = st.builds(
    ConnectionRecord,
    # A coarse 5-s grid makes shared starts and short gaps common.
    start=st.integers(min_value=-200, max_value=8 * 17280 + 200).map(
        lambda k: 5.0 * k
    ),
    car_id=st.sampled_from(CARS),
    cell_id=st.integers(min_value=0, max_value=5),
    carrier=st.sampled_from(["C1", "C2"]),
    technology=st.sampled_from(["3G", "4G"]),
    duration=_durations,
)


@st.composite
def planted(draw):
    """Three row pairs a cut goes between, as ``(rows, pairs)``."""
    car = draw(st.sampled_from(CARS))
    cell = draw(st.sampled_from(BUSY))
    t0 = float(draw(st.integers(min_value=0, max_value=7 * 96 - 2))) * BIN_SECONDS
    # Whole seconds keep the planted gap exact, 30 s (still joined) included.
    first_len = float(draw(st.integers(min_value=1, max_value=400)))
    gap = float(draw(st.sampled_from([0, 30]) | st.integers(min_value=0, max_value=30)))
    session = (
        ConnectionRecord(t0 + 7.0, car, cell, "C1", "4G", first_len),
        ConnectionRecord(t0 + 7.0 + first_len + gap, car, cell, "C2", "4G", 45.0),
    )
    b0 = t0 + 2 * BIN_SECONDS
    offset = draw(st.floats(min_value=1.0, max_value=BIN_SECONDS - 2.0))
    same_bin = (
        ConnectionRecord(b0 + 0.5, draw(st.sampled_from(CARS)), cell, "C1", "3G", 20.0),
        ConnectionRecord(b0 + offset, draw(st.sampled_from(CARS)), cell, "C1", "4G", 20.0),
    )
    s0 = t0 + DAY + 3.0
    shared = (
        ConnectionRecord(s0, CARS[0], cell, "C1", "4G", 60.0),
        ConnectionRecord(s0, CARS[1], draw(st.sampled_from(BUSY)), "C2", "4G", 90.0),
    )
    return [*session, *same_bin, *shared], [session, same_bin, shared]


def fold(records, cuts):
    """Per-slice engines over the record-ordered stream, folded in order."""
    bounds = sorted({0, len(records), *cuts})
    partials = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if lo == hi:
            continue
        engine = FusedEngine(CLOCK, busy_cells=BUSY)
        engine.consume(ColumnarCDRBatch.from_records(records[lo:hi]))
        partials.append((f"rows {lo}-{hi}", engine.export_partial()))
    return fold_fused_partials(partials)


def readouts(partial):
    """The twin read-outs of a partial, as comparable plain values."""
    sessions = aggregate_sessions(partial.connect_trunc)
    return (
        partial.n_records + partial.n_ghosts,
        partial.presence.hours.tolist(),
        [duration_quantile(partial.durations, q) for q in (0.1, 0.25, 0.5, 0.9)],
        [sessions.car_ids[int(c)] for c in sessions.car],
        sessions.start.tolist(),
        sessions.cm.tolist(),
    )


@given(
    base=st.lists(_records, max_size=80),
    plant=planted(),
    extra=st.lists(st.integers(min_value=0, max_value=86), max_size=3),
)
@settings(max_examples=60, deadline=None)
def test_fold_over_random_cuts_matches_the_oracles(base, plant, extra):
    rows, pairs = plant
    records = CDRBatch(base + rows).records
    # Cut right before the later row of each planted pair, so the pair
    # straddles a shard boundary.
    cuts = [records.index(later) for _first, later in pairs]
    cuts += [min(c, len(records)) for c in extra]
    folded = fold(records, cuts)

    whole = FusedEngine(CLOCK, busy_cells=BUSY)
    whole.consume(ColumnarCDRBatch.from_records(records))
    assert readouts(folded) == readouts(whole.export_partial())

    pre = preprocess(CDRBatch(records))
    by_cell = pre.truncated.by_cell()
    expected = np.stack(
        [weekly_concurrency(by_cell.get(cell, []), CLOCK) for cell in BUSY]
    )
    rows = folded.busy_cells
    assert rows is not None
    vectors = weekly_concurrency_rows(
        rows.cells, rows.cell_id, rows.car, rows.start, rows.end, CLOCK
    )
    assert np.array_equal(vectors, expected)

    sessions = aggregate_sessions(folded.connect_trunc)
    got: dict[str, list[tuple[float, float]]] = {}
    for code, start, end in zip(
        sessions.car.tolist(), sessions.start.tolist(), sessions.cm.tolist()
    ):
        got.setdefault(sessions.car_ids[int(code)], []).append((start, end))
    assert set(got) == set(pre.truncated.car_ids())
    for car_id, table in got.items():
        assert table == [(s.start, s.end) for s in pre.aggregate_sessions(car_id)]
