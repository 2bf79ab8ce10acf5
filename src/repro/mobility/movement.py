"""Movement along routes and the radio sectors it traverses.

The radio-level behaviour the paper measures is driven by which cell a moving
car is camped on at each instant.  Serving areas in the synthetic network are
geometric (nearest site, best-pointing sector), so every road edge crosses a
fixed sequence of sectors.  :class:`EdgeCellIndex` samples each edge once and
caches that sequence as fractional spans; expanding a routed trip into a
timed sector timeline is then a cheap table lookup, which is what makes
fleet-scale trace generation fast.
"""

from __future__ import annotations

import numpy as np
import numpy.typing as npt

from repro.mobility.roads import RoadNetwork
from repro.mobility.routing import Route
from repro.network.topology import NetworkTopology


class EdgeCellIndex:
    """Per-edge cache of the sectors crossed while driving that edge.

    Each edge is sampled every ``sample_km`` kilometres; consecutive samples
    under the same sector collapse into ``(sector_key, fraction-of-edge)``
    spans.  The index is direction-aware only in ordering: traversing the
    edge backwards reverses the span list.
    """

    def __init__(
        self,
        roads: RoadNetwork,
        topology: NetworkTopology,
        sample_km: float = 0.3,
    ) -> None:
        if sample_km <= 0:
            raise ValueError(f"sample_km must be positive, got {sample_km}")
        self.roads = roads
        self.topology = topology
        self.sample_km = sample_km
        self._spans: dict[tuple[int, int], tuple[tuple[tuple[int, int], float], ...]] = {}
        #: n_samples -> linspace(0, 1, n_samples); edges share few counts.
        self._fractions: dict[int, npt.NDArray[np.float64]] = {}
        #: Per-route flattened sector runs (see :meth:`route_runs`).
        self._route_runs: dict[
            tuple[int, ...], tuple[tuple[tuple[int, int], tuple[float, ...]], ...]
        ] = {}

    def edge_spans(
        self, a: int, b: int
    ) -> tuple[tuple[tuple[int, int], float], ...]:
        """Sector spans along edge ``a -> b`` as (sector_key, fraction) pairs.

        Fractions are of the edge's length and sum to 1.
        """
        cached = self._spans.get((a, b))
        if cached is not None:
            return cached
        reverse = self._spans.get((b, a))
        if reverse is not None:
            result = tuple(reversed(reverse))
            self._spans[(a, b)] = result
            return result

        pa = self.roads.position(a)
        pb = self.roads.position(b)
        length = self.roads.edge_length_km(a, b)
        n_samples = max(2, int(np.ceil(length / self.sample_km)) + 1)
        fractions = self._fractions.get(n_samples)
        if fractions is None:
            fractions = np.linspace(0.0, 1.0, n_samples)
            self._fractions[n_samples] = fractions
        # One batched nearest-site query for all samples of the edge; the
        # per-point arithmetic matches serving_sector exactly.
        xs = pa.x + (pb.x - pa.x) * fractions
        ys = pa.y + (pb.y - pa.y) * fractions
        keys = self.topology.serving_sector_keys(xs, ys)

        spans: list[tuple[tuple[int, int], float]] = []
        run_start = 0
        for i in range(1, n_samples + 1):
            if i == n_samples or keys[i] != keys[run_start]:
                # Each sample owns an equal slice of the edge.
                frac = (i - run_start) / n_samples
                spans.append((keys[run_start], frac))
                run_start = i
        result = tuple(spans)
        self._spans[(a, b)] = result
        return result

    def route_runs(
        self, route: Route
    ) -> tuple[tuple[tuple[int, int], tuple[float, ...]], ...]:
        """Flattened sector runs for a whole route, cached per node sequence.

        Each run is ``(sector_key, increments)``: the contiguous stretch of
        the route spent under one sector, as the sequence of per-sample time
        increments (``leg_time * fraction``) that advance the clock through
        it.  Expanding a trip is then a flat walk over precomputed floats —
        no per-trip edge lookups — and, because the increments are the very
        products the unbatched path multiplies, accumulating them reproduces
        its timeline bit-for-bit.
        """
        cached = self._route_runs.get(route.nodes)
        if cached is not None:
            return cached
        runs: list[tuple[tuple[int, int], list[float]]] = []
        for a, b, leg_time in zip(route.nodes, route.nodes[1:], route.leg_times):
            for sector_key, fraction in self.edge_spans(a, b):
                inc = leg_time * fraction
                if runs and runs[-1][0] == sector_key:
                    runs[-1][1].append(inc)
                else:
                    runs.append((sector_key, [inc]))
        result = tuple((key, tuple(incs)) for key, incs in runs)
        self._route_runs[route.nodes] = result
        return result

    @property
    def cache_size(self) -> int:
        """Number of directed edges sampled so far."""
        return len(self._spans)


def route_span_arrays(
    route: Route, departure: float, index: EdgeCellIndex
) -> tuple[list[tuple[int, int]], list[float], list[float]]:
    """Expand a routed trip into timed sector spans, as parallel lists.

    Returns the sector keys and each span's absolute start and end time,
    starting at ``departure``.  Consecutive stretches under the same sector
    (across edge boundaries) are one span, so the result is the car's
    camping history — the timeline
    :func:`repro.simulate.radio.records_for_trip_spans` emits records on.
    """
    keys: list[tuple[int, int]] = []
    starts: list[float] = []
    ends: list[float] = []
    t = departure
    for sector_key, increments in index.route_runs(route):
        starts.append(t)
        for inc in increments:
            t = t + inc
        ends.append(t)
        keys.append(sector_key)
    return keys, starts, ends
