"""The array welds equal the row-by-row welds they replaced.

:meth:`ConnectPartial.absorb_partial` and
:meth:`HandoverPartial.absorb_partial` weld every car at once with array
operations.  The oracle here is the per-car loop they replaced, kept
verbatim in spirit: each car's last held row walks its incoming run,
swallowing rows while the reference's merge test holds (``start <= cm``
for union chains, ``start - cm <= gap`` for network sessions, against the
running max end), and the rest are appended and stably re-sorted by car.

Hypothesis draws held and incoming tables as the kernels emit them —
grouped by car, chronological within car, each chain or session starting
after the previous one's end (past the gap, for sessions) — on a coarse
5-s grid, so ``start == cm`` and ``start - cm == gap`` ties are common.
Cars may be held on one side only, vocabularies differ between the sides,
a held row may end late enough to swallow several incoming rows, and
sessions may have no known cell.
"""

import copy

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fused import (
    _H_CAR,
    _H_FBS,
    _H_FCELL,
    _H_FSEC,
    _H_FTECH,
    _H_HO,
    _H_KNOWN,
    _H_LBS,
    _H_LCELL,
    _H_LSEC,
    _H_LTECH,
    _H_SIZE,
    ConnectPartial,
    HandoverPartial,
)

CARS = ("a", "b", "c", "d", "e")
GAP = 30.0
STEP = 5.0


# -- the row-by-row oracle ----------------------------------------------------


def union_vocab(a, b):
    return a if a == b else tuple(sorted(set(a) | set(b)))


def in_vocab(codes, old, union):
    if old == union:
        return codes
    index = {name: i for i, name in enumerate(union)}
    return np.asarray([index[name] for name in old], dtype=np.int64)[codes]


def weld_runs(acc_car, inc_car):
    """``(row, first, end)`` per car both tables hold: its last held row
    and its incoming run."""
    if not (acc_car.size and inc_car.size):
        return
    last = np.ones(acc_car.size, dtype=np.bool_)
    last[:-1] = acc_car[1:] != acc_car[:-1]
    rows = np.flatnonzero(last)
    acc_last = dict(zip(acc_car[rows].tolist(), rows.tolist()))
    cars, first = np.unique(inc_car, return_index=True)
    ends = np.append(first[1:], inc_car.size)
    for car, j0, j1 in zip(cars.tolist(), first.tolist(), ends.tolist()):
        row = acc_last.get(car)
        if row is not None:
            yield row, j0, j1


def connect_loop(held, incoming):
    union = union_vocab(held.car_ids, incoming.car_ids)
    acc_car = in_vocab(held.car, held.car_ids, union)
    inc_car = in_vocab(incoming.car, incoming.car_ids, union)
    acc_cm = held.cm.copy()
    drop = np.zeros(len(inc_car), dtype=np.bool_)
    starts, cms = incoming.start.tolist(), incoming.cm.tolist()
    for row, j, j1 in weld_runs(acc_car, inc_car):
        cm_acc = float(acc_cm[row])
        while j < j1 and starts[j] <= cm_acc:
            cm_acc = max(cm_acc, cms[j])
            drop[j] = True
            j += 1
        acc_cm[row] = cm_acc
    keep = ~drop
    car = np.concatenate((acc_car, inc_car[keep]))
    order = np.argsort(car, kind="stable")
    return ConnectPartial(
        union,
        car[order],
        np.concatenate((held.start, incoming.start[keep]))[order],
        np.concatenate((acc_cm, incoming.cm[keep]))[order],
    )


def boundary_kind(l_tech, l_bs, l_sec, f_tech, f_bs, f_sec):
    if l_tech != f_tech:
        return 0
    if l_bs != f_bs:
        return 1
    if l_sec != f_sec:
        return 2
    return 3


def handover_loop(held, incoming):
    union = union_vocab(held.car_ids, incoming.car_ids)
    acc_ints = held.ints.copy()
    acc_ints[:, _H_CAR] = in_vocab(acc_ints[:, _H_CAR], held.car_ids, union)
    inc_ints = incoming.ints.copy()
    inc_ints[:, _H_CAR] = in_vocab(inc_ints[:, _H_CAR], incoming.car_ids, union)
    acc_kinds = held.kinds.copy()
    acc_cm = held.cm.copy()
    drop = np.zeros(len(inc_ints), dtype=np.bool_)
    starts = incoming.start.tolist()
    for r, j, j1 in weld_runs(acc_ints[:, _H_CAR], inc_ints[:, _H_CAR]):
        row = acc_ints[r]
        cm_acc = float(acc_cm[r])
        while j < j1 and starts[j] - cm_acc <= held.gap:
            inc_row = inc_ints[j]
            if (
                row[_H_LCELL] >= 0
                and inc_row[_H_FCELL] >= 0
                and row[_H_LCELL] != inc_row[_H_FCELL]
            ):
                kind = boundary_kind(
                    row[_H_LTECH], row[_H_LBS], row[_H_LSEC],
                    inc_row[_H_FTECH], inc_row[_H_FBS], inc_row[_H_FSEC],
                )
                row[_H_HO] += 1
                acc_kinds[r, kind] += 1
            row[_H_HO] += inc_row[_H_HO]
            acc_kinds[r] += incoming.kinds[j]
            row[_H_SIZE] += inc_row[_H_SIZE]
            row[_H_KNOWN] += inc_row[_H_KNOWN]
            if inc_row[_H_FCELL] >= 0:
                if row[_H_FCELL] < 0:
                    row[_H_FCELL : _H_FSEC + 1] = inc_row[_H_FCELL : _H_FSEC + 1]
                row[_H_LCELL:] = inc_row[_H_LCELL:]
            cm_acc = max(cm_acc, float(incoming.cm[j]))
            drop[j] = True
            j += 1
        acc_cm[r] = cm_acc
    keep = ~drop
    ints = np.concatenate((acc_ints, inc_ints[keep]))
    order = np.argsort(ints[:, _H_CAR], kind="stable")
    return HandoverPartial(
        union,
        held.gap,
        held.min_records,
        start=np.concatenate((held.start, incoming.start[keep]))[order],
        cm=np.concatenate((acc_cm, incoming.cm[keep]))[order],
        kinds=np.concatenate((acc_kinds, incoming.kinds[keep]))[order],
        ints=ints[order],
    )


# -- tables as the kernels emit them -----------------------------------------

_vocab = st.sets(st.sampled_from(CARS), min_size=1).map(lambda s: tuple(sorted(s)))


@st.composite
def runs(draw, vocab, spacing, first_starts):
    """Per car present, a chronological run of ``(start, cm)`` rows.

    Each row starts more than ``spacing`` after the previous row's end.
    ``first_starts`` maps a car to ``(lo, tie)``: its first row starts at
    ``tie`` (a held row's end, plus the gap for sessions) or on the grid
    from ``lo`` to a little past ``tie``; other cars start anywhere.
    """
    present = draw(st.lists(st.sampled_from(vocab), unique=True, max_size=len(vocab)))
    rows = []
    for car in sorted(present, key=vocab.index):
        if car in first_starts:
            lo, tie = first_starts[car]
            steps = int((tie - lo) // STEP) + 12
            start = draw(st.just(tie) | st.integers(0, steps).map(lambda k: lo + STEP * k))
        else:
            start = STEP * draw(st.integers(0, 40))
        for _ in range(draw(st.integers(1, 4))):
            # A long row swallows several of the other side's rows.
            cm = start + STEP * draw(st.integers(0, 8) | st.integers(0, 120))
            rows.append((vocab.index(car), start, cm))
            start = cm + spacing + STEP * draw(st.integers(1, 6))
    return rows


def last_rows(rows, vocab, spacing):
    """Each car's ``(last start, last end + spacing)``."""
    return {vocab[code]: (start, cm + spacing) for code, start, cm in rows}


@st.composite
def chain_pair(draw):
    held_vocab, inc_vocab = draw(_vocab), draw(_vocab)
    held = draw(runs(held_vocab, 0.0, {}))
    # Incoming runs start around each car's last held end: ``start == cm``
    # sits on the grid.
    incoming = draw(runs(inc_vocab, 0.0, last_rows(held, held_vocab, 0.0)))
    return table(ConnectPartial, held_vocab, held), table(ConnectPartial, inc_vocab, incoming)


def table(kind, vocab, rows):
    car = np.asarray([r[0] for r in rows], dtype=np.int64)
    start = np.asarray([r[1] for r in rows], dtype=np.float64)
    cm = np.asarray([r[2] for r in rows], dtype=np.float64)
    return kind(vocab, car, start, cm)


@st.composite
def session_ints(draw, car):
    """One session's packed integer row and its kind counts."""
    size = draw(st.integers(1, 5))
    known = draw(st.integers(0, size))
    attrs = st.tuples(
        st.integers(0, 6), st.integers(0, 2), st.integers(0, 3), st.integers(0, 2)
    )
    first = list(draw(attrs)) if known else [-1] * 4
    last = list(draw(attrs)) if known else [-1] * 4
    kinds = [draw(st.integers(0, 2)) for _ in range(4)] if known > 1 else [0] * 4
    return [car, size, known, sum(kinds), *first, *last], kinds


@st.composite
def session_pair(draw):
    held_vocab, inc_vocab = draw(_vocab), draw(_vocab)
    held = draw(runs(held_vocab, GAP, {}))
    # ``start - cm == gap`` sits on the grid.
    incoming = draw(runs(inc_vocab, GAP, last_rows(held, held_vocab, GAP)))
    return (
        draw(sessions(held_vocab, held)),
        draw(sessions(inc_vocab, incoming)),
    )


@st.composite
def sessions(draw, vocab, rows):
    packed = [draw(session_ints(code)) for code, _s, _c in rows]
    return HandoverPartial(
        vocab,
        GAP,
        2,
        start=np.asarray([r[1] for r in rows], dtype=np.float64),
        cm=np.asarray([r[2] for r in rows], dtype=np.float64),
        kinds=np.asarray([k for _i, k in packed], dtype=np.int64).reshape(-1, 4),
        ints=np.asarray([i for i, _k in packed], dtype=np.int64).reshape(-1, 12),
    )


def assert_same(got, want, fields):
    assert got.car_ids == want.car_ids
    for name in fields:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert np.array_equal(a, b), name


@given(pair=chain_pair())
@settings(max_examples=300, deadline=None)
def test_chain_weld_equals_the_loop(pair):
    held, incoming = pair
    want = connect_loop(held, incoming)
    before = copy.deepcopy(incoming)
    got = copy.deepcopy(held)
    got.absorb_partial(incoming)
    assert_same(got, want, ("car", "start", "cm"))
    assert_same(incoming, before, ("car", "start", "cm"))


@given(pair=session_pair())
@settings(max_examples=300, deadline=None)
def test_session_weld_equals_the_loop(pair):
    held, incoming = pair
    want = handover_loop(held, incoming)
    before = copy.deepcopy(incoming)
    got = copy.deepcopy(held)
    got.absorb_partial(incoming)
    assert_same(got, want, ("start", "cm", "kinds", "ints"))
    assert_same(incoming, before, ("start", "cm", "kinds", "ints"))
