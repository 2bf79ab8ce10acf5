"""Generation must be byte-identical at any worker count."""

import numpy as np
import pytest

from repro.algorithms.timebins import StudyClock
from repro.cdr.errors import TraceGenerationError
from repro.cpus import available_cpus
from repro.simulate.artifacts import ArtifactConfig
from repro.simulate.config import SimulationConfig
from repro.simulate.generator import TraceGenerator
from repro.simulate.parallel import shard_fleet
from repro.simulate.population import build_population


def small_config(seed=11, **kwargs):
    return SimulationConfig(
        n_cars=12, seed=seed, clock=StudyClock(n_days=3), **kwargs
    )


#: No ghosts, stuck modems or loss days: the batch is the clean trace.
NO_ARTIFACTS = ArtifactConfig(
    ghost_hour_rate=0.0, stuck_modem_rate=0.0, data_loss_days=()
)


@pytest.fixture(scope="module")
def serial_dataset():
    return TraceGenerator(small_config()).generate()


class TestParity:
    """workers=1 == workers=N, record for record."""

    def _assert_identical(self, dataset, reference):
        assert dataset.n_records == reference.n_records
        assert dataset.batch.records == reference.batch.records
        # repr covers every field including float formatting.
        assert repr(dataset.batch.records) == repr(reference.batch.records)

    def test_one_worker_matches_serial(self, serial_dataset):
        dataset = TraceGenerator(small_config(), workers=1).generate()
        self._assert_identical(dataset, serial_dataset)

    def test_multi_worker_matches_serial(self, serial_dataset):
        dataset = TraceGenerator(small_config(), workers=3).generate()
        self._assert_identical(dataset, serial_dataset)

    def test_more_workers_than_cars(self, serial_dataset):
        dataset = TraceGenerator(small_config(), workers=64).generate()
        self._assert_identical(dataset, serial_dataset)

    def test_different_seeds_differ(self):
        a = TraceGenerator(small_config(seed=11), workers=2).generate()
        b = TraceGenerator(small_config(seed=12), workers=2).generate()
        assert a.batch.records != b.batch.records

    def test_clean_trace_matches_serial(self):
        # Without artifacts the batch is the workers' records themselves.
        serial = TraceGenerator(small_config(artifacts=NO_ARTIFACTS)).generate()
        sharded = TraceGenerator(
            small_config(artifacts=NO_ARTIFACTS), workers=3
        ).generate()
        self._assert_identical(sharded, serial)


class TestShardFleet:
    def _fleet(self, n):
        cfg = SimulationConfig(n_cars=n, seed=5, clock=StudyClock(n_days=1))
        gen = TraceGenerator(cfg)
        from repro.simulate.generator import build_substrates

        substrates = build_substrates(gen.config)
        rng = np.random.default_rng(0)
        cars = build_population(n, substrates.roads, substrates.clock, rng)
        seeds = np.arange(n, dtype=np.int64)
        return cars, seeds

    def test_shards_are_contiguous_and_cover_fleet(self):
        cars, seeds = self._fleet(10)
        shards = shard_fleet(cars, seeds, 3)
        assert [c for shard_cars, _ in shards for c in shard_cars] == cars
        assert np.array_equal(
            np.concatenate([s for _, s in shards]), seeds
        )

    def test_near_equal_sizes(self):
        cars, seeds = self._fleet(10)
        sizes = [len(c) for c, _ in shard_fleet(cars, seeds, 3)]
        assert sum(sizes) == 10
        assert max(sizes) - min(sizes) <= 1

    def test_more_shards_than_cars_clamps(self):
        cars, seeds = self._fleet(2)
        shards = shard_fleet(cars, seeds, 8)
        assert len(shards) == 2
        assert all(len(c) == 1 for c, _ in shards)

    def test_rejects_zero_shards(self):
        cars, seeds = self._fleet(2)
        with pytest.raises(TraceGenerationError):
            shard_fleet(cars, seeds, 0)


class TestWorkerCount:
    def test_rejects_negative_workers(self):
        with pytest.raises(TraceGenerationError):
            TraceGenerator(small_config(), workers=-1)

    def test_zero_means_one_per_cpu(self):
        gen = TraceGenerator(small_config(), workers=0)
        assert gen.workers == available_cpus() >= 1

    def test_default_is_one_worker(self):
        assert TraceGenerator(small_config()).workers == 1
