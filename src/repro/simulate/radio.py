"""Radio session synthesis for one trip.

While the engine runs, the modem connects whenever there is data to move:
a startup telemetry burst, periodic telemetry pings, and (for hotspot users)
longer infotainment sessions.  Each burst holds the radio connection for its
data transfer plus the 10-12 second idle timeout; bursts whose extended
intervals overlap share one connection.  A connection that survives a sector
change splits into per-cell records — that split *is* the handover the paper
measures (Section 4.5) and is why per-cell connections are short (Figure 9).

The carrier is chosen once per burst and kept across handovers, which makes
inter-base-station handovers dominate and inter-carrier / inter-RAT
transitions negligible, as the paper observes.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np
import numpy.typing as npt

from repro.algorithms.intervals import Interval
from repro.cdr.records import ConnectionRecord
from repro.network.topology import NetworkTopology
from repro.simulate.config import ActivityConfig
from repro.simulate.population import Car

#: Minimum billable record duration; real CDR pipelines round sub-second
#: connections up rather than dropping them.
MIN_RECORD_S = 1.0


class CarrierSampler:
    """Cached carrier-draw tables, one per distinct capability set.

    Building the sorted name list and normalized weight vector costs more
    than the draw itself; a fleet has only a handful of capability sets, so
    the generator builds one sampler per run and reuses the tables for every
    trip.  The draw consumes the RNG exactly as the uncached path does.
    """

    def __init__(self, carrier_weights: dict[str, float]) -> None:
        self.carrier_weights = carrier_weights
        self._tables: dict[
            frozenset[str], tuple[list[str], npt.NDArray[np.float64]]
        ] = {}

    def table(
        self, capabilities: frozenset[str]
    ) -> tuple[list[str], npt.NDArray[np.float64]]:
        """Sorted carrier names and the cumulative draw distribution.

        The cached CDF lets :meth:`draw` replace ``rng.choice(n, p=p)`` —
        which renormalizes and cumsums the weights on every call — with one
        uniform draw and a ``searchsorted``.  ``Generator.choice`` itself
        draws a single uniform and inverts the CDF the same way, so the
        selected index and the RNG stream are bit-identical.
        """
        entry = self._tables.get(capabilities)
        if entry is None:
            names = sorted(capabilities)
            weights = np.asarray(
                [self.carrier_weights.get(n, 0.0) for n in names], dtype=float
            )
            if weights.sum() <= 0:
                weights = np.ones(len(names))
            weights = weights / weights.sum()
            cdf = weights.cumsum()
            cdf /= cdf[-1]
            entry = (names, cdf)
            self._tables[capabilities] = entry
        return entry

    def draw(self, capabilities: frozenset[str], rng: np.random.Generator) -> str:
        """Weighted carrier draw over a modem's capabilities."""
        names, cdf = self.table(capabilities)
        return names[int(cdf.searchsorted(rng.random(), side="right"))]


def generate_bursts(
    trip_duration: float,
    car: Car,
    activity: ActivityConfig,
    rng: np.random.Generator,
) -> list[Interval]:
    """Data-activity intervals within ``[0, trip_duration)`` of a trip.

    Each burst is already extended by a drawn idle timeout and overlapping
    bursts are merged, so the result is the set of radio-connection-holding
    intervals relative to the trip start.
    """
    if trip_duration <= 0:
        return []
    timeout_lo, timeout_hi = activity.idle_timeout_s
    timeout_span = timeout_hi - timeout_lo
    random = rng.random
    std_exp = rng.standard_exponential
    # Scalar draws are rewritten through their one-uniform decompositions —
    # uniform(a, b) == a + (b - a) * random() and exponential(s) ==
    # s * standard_exponential() hold bit-for-bit in numpy's Generator and
    # consume the stream identically, while random()/standard_exponential()
    # cost a third of the parameterized calls.  Bursts accumulate as plain
    # (start, end) tuples; Interval objects are built only for the merged
    # result.  Tuples sort exactly like Interval's (start, end) ordering
    # and the merge below mirrors merge_intervals, so the output is
    # unchanged.
    bursts: list[tuple[float, float]] = []
    append = bursts.append

    # Engine-start telemetry: the car phones home as it wakes up.
    data = float(activity.startup_burst_mean_s * std_exp())
    end = min(0.0 + max(data, 0.5), trip_duration)
    append((0.0, end + float(timeout_lo + timeout_span * random())))

    # Periodic telemetry pings through the trip.
    period = activity.telemetry_period_s
    burst_mean = activity.telemetry_burst_mean_s
    t = float(0.3 + (1.2 - 0.3) * random()) * period
    while t < trip_duration:
        data = float(burst_mean * std_exp())
        start = max(0.0, min(t, trip_duration))
        end = min(start + max(data, 0.5), trip_duration)
        append((start, end + float(timeout_lo + timeout_span * random())))
        t += period * float(0.7 + (1.3 - 0.7) * random())

    # Infotainment / hotspot sessions: longer, for streaming-inclined cars.
    p = min(1.0, activity.infotainment_prob * car.infotainment_factor)
    if random() < p:
        raw = float((max(trip_duration * 0.7, 1.0) - 0.0) * random())
        duration = float(rng.lognormal(np.log(activity.infotainment_mean_s), 0.8))
        start = max(0.0, min(raw, trip_duration))
        end = min(start + max(duration, 0.5), trip_duration)
        append((start, end + float(timeout_lo + timeout_span * random())))

    # Same semantics as merge_intervals: sort, then extend the open burst
    # while the next one starts before it ends.
    bursts.sort()
    merged: list[Interval] = []
    last_start = last_end = 0.0
    for start, end in bursts:
        if merged and start <= last_end:
            if end > last_end:
                last_end = end
                merged[-1] = Interval(last_start, last_end)
        else:
            last_start, last_end = start, end
            merged.append(Interval(start, end))
    return merged


def records_for_trip_spans(
    car: Car,
    departure: float,
    keys: list[tuple[int, int]],
    starts: list[float],
    ends: list[float],
    topology: NetworkTopology,
    sampler: CarrierSampler,
    activity: ActivityConfig,
    rng: np.random.Generator,
) -> list[ConnectionRecord]:
    """Emit CDRs for one trip given its sector timeline.

    The timeline is parallel (keys, starts, ends) lists of absolute-time
    sector spans starting at ``departure`` — the output of
    :func:`repro.mobility.movement.route_span_arrays`.  ``sampler`` draws
    the trip's carrier, and its ``carrier_weights`` weight the fallback
    draw where that carrier is not deployed.
    """
    if not keys:
        return []
    trip_duration = ends[-1] - departure
    bursts = generate_bursts(trip_duration, car, activity, rng)
    if not bursts:
        return []

    # A burst's idle-timeout tail can outlive the drive; the car is parked
    # under its final sector, so stretch the last span to absorb tails.
    tail = bursts[-1].end - trip_duration
    stretched = ends[:-1]
    stretched.append(ends[-1] + max(tail, 0.0) + 1.0)
    # Neighbouring sectors of one site overlap heavily; a moving connection
    # is kept on its current cell rather than handed across the site, so the
    # recorded handovers are almost all between base stations (Section 4.5).
    # The merge keeps the first sector's key, its start and the last end:
    # the connection stays on the cell it started on until the car leaves
    # the site's footprint.
    span_keys: list[tuple[int, int]] = []
    span_starts: list[float] = []
    span_ends: list[float] = []
    for key, start, end in zip(keys, starts, stretched):
        if span_keys and span_keys[-1][0] == key[0]:
            span_ends[-1] = end
        else:
            span_keys.append(key)
            span_starts.append(start)
            span_ends.append(end)

    # The modem camps on one carrier for the whole drive; it only leaves it
    # where the carrier is not deployed.  This keeps inter-carrier and
    # inter-RAT handovers negligible, as the paper observes.
    trip_carrier = sampler.draw(car.capabilities, rng)

    # Resolve each span's sector and its cell on the trip carrier once, not
    # once per burst; the rare fallback draw (carrier not deployed here)
    # stays inside the burst loop so the RNG stream is unchanged.
    n_spans = len(span_keys)
    sector_cell = topology.sector_cell
    pairs = [sector_cell(key, trip_carrier) for key in span_keys]

    car_id = car.car_id
    records: list[ConnectionRecord] = []
    for burst in bursts:
        lo_abs = departure + burst.start
        hi_abs = departure + burst.end
        # Spans are contiguous and time-ordered: the first candidate is the
        # first span ending after the burst starts.
        i = bisect_right(span_ends, lo_abs)
        while i < n_spans and span_starts[i] < hi_abs:
            # Same tie-breaking as Interval.clip's max()/min(): the burst's
            # endpoint wins ties, so emitted values keep identical types.
            lo = lo_abs if lo_abs >= span_starts[i] else span_starts[i]
            hi = hi_abs if hi_abs <= span_ends[i] else span_ends[i]
            if lo < hi:
                sector, cell = pairs[i]
                if cell is None:
                    # The trip's carrier is not deployed here (e.g. C4 in the
                    # rural fringe): the modem falls back to what the sector
                    # has.
                    cell = topology.choose_cell_in_sector(
                        sector, car.capabilities, rng, sampler.carrier_weights
                    )
                if cell is not None:
                    duration = hi - lo
                    records.append(
                        ConnectionRecord(
                            start=lo,
                            car_id=car_id,
                            cell_id=cell.cell_id,
                            carrier=cell.carrier.name,
                            technology=cell.technology.value,
                            duration=duration if duration > MIN_RECORD_S else MIN_RECORD_S,
                        )
                    )
            i += 1
    return records


def _draw_carrier(
    car: Car, carrier_weights: dict[str, float], rng: np.random.Generator
) -> str:
    """Weighted carrier draw over the car's modem capabilities.

    The uncached ``rng.choice`` draw :meth:`CarrierSampler.draw` must match;
    the tests hold the sampler to it.
    """
    names = sorted(car.capabilities)
    weights = np.asarray([carrier_weights.get(n, 0.0) for n in names], dtype=float)
    if weights.sum() <= 0:
        weights = np.ones(len(names))
    weights = weights / weights.sum()
    return names[int(rng.choice(len(names), p=weights))]
