"""A shard absorb costs what the incoming shard adds, not what the fold holds.

A 45-day trace is cut into one shard per study day, as the daemon's
``serve-read`` layout is, and the day partials fold in order.  Every sort
the fused module asks numpy for (``sort``, ``argsort``, ``lexsort``,
``unique``, and ``union1d``, which sorts inside) is routed through a
counter, and each kernel absorb's count must stay within a bound set by
the incoming partial alone:

* presence: the incoming pairs, plus the held (day, cell) pairs on or
  after the incoming shard's first day;
* carriers and durations: the incoming keys;
* the chain and session welds: the incoming rows.

By the last day the fold holds many times each bound, so an absorb that
re-sorted what it holds would fail.
"""

import numpy as np
import pytest

import repro.core.fused as fused
from repro.algorithms.timebins import DAY, StudyClock
from repro.core.fused import FusedEngine
from repro.network.topology import build_topology
from repro.simulate.generator import TraceGenerator
from repro.simulate.scenarios import scenario

DAYS = 45


class SortCounter:
    """``numpy`` as the fused module sees it, counting elements sorted."""

    def __init__(self) -> None:
        self.n = 0

    def __getattr__(self, name):
        real = getattr(np, name)
        if name in ("sort", "argsort", "unique"):

            def counted(a, *args, **kwargs):
                self.n += np.size(a)
                return real(a, *args, **kwargs)

            return counted
        if name == "lexsort":

            def counted_keys(keys, *args, **kwargs):
                self.n += np.size(keys[0]) if len(keys) else 0
                return real(keys, *args, **kwargs)

            return counted_keys
        if name == "union1d":

            def counted_pair(a, b):
                self.n += np.size(a) + np.size(b)
                return real(a, b)

            return counted_pair
        return real


@pytest.fixture(scope="module")
def day_partials():
    config = scenario("smoke", n_cars=12, n_days=DAYS)
    col = TraceGenerator(config).generate().batch.columnar()
    cells = build_topology(config.topology).cells
    clock = StudyClock(n_days=DAYS)
    edges = np.searchsorted(col.start, np.arange(DAYS + 1) * DAY)
    edges[-1] = len(col)
    partials = []
    for lo, hi in zip(edges[:-1].tolist(), edges[1:].tolist()):
        if lo == hi:
            continue
        engine = FusedEngine(clock, cells=cells)
        engine.consume(col.rows(lo, hi))
        partials.append(engine.export_partial())
    return partials


def test_each_absorb_sorts_only_what_the_incoming_shard_adds(day_partials, monkeypatch):
    counter = SortCounter()
    monkeypatch.setattr(fused, "np", counter)
    held, *later = day_partials
    assert len(later) >= 40
    for incoming in later:
        presence = incoming.presence
        on_first_day = int(
            np.count_nonzero(held.presence.cell_days >= presence.cell_days[0])
        )
        bounds = {
            "presence": presence.car_pairs.size + presence.cell_days.size + on_first_day,
            "carriers": incoming.carriers.pairs.size,
            "durations": incoming.durations.bins.size,
            "connect_full": incoming.connect_full.car.size,
            "connect_trunc": incoming.connect_trunc.car.size,
            "handover": len(incoming.handover.ints),
        }
        for name, bound in bounds.items():
            counter.n = 0
            getattr(held, name).absorb_partial(getattr(incoming, name))
            assert counter.n <= bound, (name, counter.n, bound)
    # The fold now holds far more than any bound: re-sorting it would fail.
    assert held.presence.cell_days.size > 10 * bounds["presence"]
    assert held.connect_full.car.size > 10 * bounds["connect_full"]
    assert len(held.handover.ints) > 10 * bounds["handover"]
