"""Parallel sharded trace generation.

``TraceGenerator(config, workers=N)`` aims at the *identical* dataset at
any worker count — record for record, byte for byte — by exploiting how
the serial pipeline already seeds its RNGs: every car gets a child seed
drawn up front (``root.integers(2**63, size=len(cars))``) and its records
depend only on that seed and the config-derived substrates.  Any
contiguous partition of the fleet therefore concatenates back to the
serial record list, which is what makes sharding across worker processes
safe.  :func:`parallel_records` is that fan-out.

One known break: :meth:`repro.mobility.routing.Router.route` answers a
pair by reversing the cached opposite direction, and where two fastest
paths tie the reversal can differ from a forward search.  A route then
depends on which pairs the process routed before it, and on large fleets
(the 400-car, 14-day ``default`` trace) a worker's shard differs from the
serial run; ``tests/mobility/test_routing.py`` pins the cause.

Workers build the topology / road network / edge index once each (or, under
the fork start method, inherit the parent's fully-built substrates for
free), drive their shard of cars, and ship the resulting records back as a
:class:`repro.cdr.columnar.ColumnarCDRBatch` — arrays plus small string
vocabularies pickle far faster than per-record dataclass instances.  The
parent decodes the shards in order and injects measurement artifacts exactly
as the serial path does, so artifact RNG consumption is unchanged.
"""

from __future__ import annotations

import multiprocessing
from collections.abc import Callable
from typing import Any

import numpy as np
import numpy.typing as npt

from repro.cdr.columnar import ColumnarCDRBatch
from repro.cdr.errors import TraceGenerationError
from repro.cdr.records import ConnectionRecord
from repro.simulate.config import SimulationConfig
from repro.simulate.generator import (
    GenerationSubstrates,
    build_substrates,
    records_for_cars,
)
from repro.simulate.population import Car

#: Shared per-process generation state.  Under fork the parent fills it
#: before the pool starts and children inherit the already-built substrates;
#: under spawn each worker fills its own copy in :func:`_init_worker`.
#: Keys: ``"cfg"`` (SimulationConfig), ``"substrates"``
#: (GenerationSubstrates).
_WORKER_STATE: dict[str, Any] = {}


def _init_worker(cfg: SimulationConfig) -> None:
    """Spawn-path initializer: rebuild substrates from the pickled config.

    ``build_substrates`` is deterministic in the config, so the rebuilt
    copies are identical to the parent's and the shard output cannot differ
    between start methods.
    """
    _WORKER_STATE["cfg"] = cfg
    _WORKER_STATE["substrates"] = build_substrates(cfg)


def _generate_shard(
    shard: tuple[list[Car], npt.NDArray[np.int64]]
) -> ColumnarCDRBatch:
    """Worker body: records for a contiguous shard of (cars, seeds)."""
    cars, car_seeds = shard
    cfg: SimulationConfig = _WORKER_STATE["cfg"]
    substrates: GenerationSubstrates | None = _WORKER_STATE.get("substrates")
    if substrates is None:
        # Direct-call path only: inside a pool the initializer (spawn) or
        # the parent fill (fork) has already installed the substrates, and
        # map-function bodies never write module state (RL011).
        substrates = build_substrates(cfg)
    records = records_for_cars(cfg, substrates, cars, car_seeds)
    return ColumnarCDRBatch.from_records(records)


def shard_fleet(
    cars: list[Car], car_seeds: npt.NDArray[np.int64], n_shards: int
) -> list[tuple[list[Car], npt.NDArray[np.int64]]]:
    """Split the fleet into ``n_shards`` contiguous, near-equal shards.

    Contiguity is what guarantees the concatenated shard outputs equal the
    serial record list; near-equal sizes balance the workers.
    """
    if n_shards < 1:
        raise TraceGenerationError(f"n_shards must be >= 1, got {n_shards}")
    n = len(cars)
    n_shards = min(n_shards, n) or 1
    bounds = np.linspace(0, n, n_shards + 1).astype(int)
    return [
        (cars[lo:hi], car_seeds[lo:hi])
        for lo, hi in zip(bounds[:-1], bounds[1:])
        if hi > lo
    ]


def parallel_records(
    cfg: SimulationConfig,
    substrates: GenerationSubstrates,
    cars: list[Car],
    car_seeds: npt.NDArray[np.int64],
    workers: int,
) -> list[ConnectionRecord]:
    """:func:`records_for_cars` fanned out over ``workers`` processes.

    The fleet is split by :func:`shard_fleet` and the workers' columnar
    payloads are decoded in fleet order, so the list equals the serial one
    record for record.
    """
    shards = shard_fleet(cars, car_seeds, workers)
    methods = multiprocessing.get_all_start_methods()
    use_fork = "fork" in methods
    ctx = multiprocessing.get_context("fork" if use_fork else "spawn")
    initializer: Callable[[SimulationConfig], None] | None
    initargs: tuple[SimulationConfig, ...]
    if use_fork:
        # Children inherit the parent's built substrates through fork;
        # nothing is pickled and per-worker build time is zero.
        _WORKER_STATE["cfg"] = cfg
        _WORKER_STATE["substrates"] = substrates
        initializer, initargs = None, ()
    else:
        initializer, initargs = _init_worker, (cfg,)
    try:
        with ctx.Pool(
            processes=len(shards), initializer=initializer, initargs=initargs
        ) as pool:
            payloads = pool.map(_generate_shard, shards, chunksize=1)
    finally:
        _WORKER_STATE.clear()
    records: list[ConnectionRecord] = []
    for payload in payloads:
        records.extend(payload.to_records())
    return records
