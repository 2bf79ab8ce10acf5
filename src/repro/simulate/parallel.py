"""Parallel sharded trace generation.

:class:`ParallelTraceGenerator` produces the *identical* dataset as
:class:`repro.simulate.generator.TraceGenerator` — record for record, byte
for byte — by exploiting how the serial pipeline already seeds its RNGs:
every car gets a child seed drawn up front (``root.integers(2**63,
size=len(cars))``) and its records depend only on that seed and the
config-derived substrates.  Any contiguous partition of the fleet therefore
concatenates back to exactly the serial record list, which is what makes
sharding across worker processes safe.

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
from repro.cpus import available_cpus
from repro.network.load import CellLoadModel
from repro.simulate.config import SimulationConfig
from repro.simulate.generator import (
    GenerationSubstrates,
    TraceDataset,
    build_substrates,
    finalize_dataset,
    records_for_cars,
)
from repro.simulate.population import Car, build_population

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


class ParallelTraceGenerator:
    """Drop-in :class:`TraceGenerator` that shards the fleet across processes.

    Parameters
    ----------
    config:
        Simulation config; defaults match :class:`TraceGenerator`.
    n_workers:
        Worker process count.  ``None`` uses one per usable CPU; ``1`` runs
        the serial path inline (no pool, no pickling) and is exactly
        :class:`TraceGenerator`.

    With any worker count the generated dataset is record-for-record
    identical to the serial generator's — see the module docstring for why.
    """

    def __init__(
        self,
        config: SimulationConfig | None = None,
        n_workers: int | None = None,
    ) -> None:
        self.config = config or SimulationConfig()
        if n_workers is not None and n_workers < 1:
            raise TraceGenerationError(
                f"n_workers must be >= 1, got {n_workers}"
            )
        self.n_workers = n_workers or available_cpus()

    def generate(self) -> TraceDataset:
        """Run the full generation pipeline, sharded across workers."""
        cfg = self.config
        substrates = build_substrates(cfg)
        load_model = CellLoadModel(
            substrates.topology, substrates.clock, seed=cfg.load_seed
        )

        # Root-RNG draw order is identical to TraceGenerator.generate().
        root = np.random.default_rng(cfg.seed)
        population_rng = np.random.default_rng(root.integers(2**63))
        cars = build_population(
            cfg.n_cars,
            substrates.roads,
            substrates.clock,
            population_rng,
            c5_capable_fraction=cfg.c5_capable_fraction,
            fleet_growth_fraction=cfg.fleet_growth_fraction,
        )

        car_seeds = root.integers(2**63, size=len(cars))
        n_workers = min(self.n_workers, max(len(cars), 1))
        if n_workers <= 1:
            clean = records_for_cars(cfg, substrates, cars, car_seeds)
        else:
            clean = self._parallel_records(cfg, substrates, cars, car_seeds, n_workers)

        artifact_rng = np.random.default_rng(root.integers(2**63))
        return finalize_dataset(
            cfg, substrates, load_model, cars, clean, artifact_rng
        )

    @staticmethod
    def _parallel_shards(
        cfg: SimulationConfig,
        substrates: GenerationSubstrates,
        cars: list[Car],
        car_seeds: npt.NDArray[np.int64],
        n_workers: int,
    ) -> list[ColumnarCDRBatch]:
        """Fan the fleet out over a process pool; return the columnar shards.

        The shard payloads stay columnar end to end — this is also what the
        binary store consumes, so a cdrz-bound caller
        (``repro generate --format cdrz``) never pays a per-record detour
        on the worker side of the pipe.
        """
        shards = shard_fleet(cars, car_seeds, n_workers)
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
                return pool.map(_generate_shard, shards, chunksize=1)
        finally:
            _WORKER_STATE.clear()

    @classmethod
    def _parallel_records(
        cls,
        cfg: SimulationConfig,
        substrates: GenerationSubstrates,
        cars: list[Car],
        car_seeds: npt.NDArray[np.int64],
        n_workers: int,
    ) -> list[ConnectionRecord]:
        """Shard records for the record-level pipeline, in fleet order."""
        records: list[ConnectionRecord] = []
        for payload in cls._parallel_shards(
            cfg, substrates, cars, car_seeds, n_workers
        ):
            records.extend(payload.to_records())
        return records
