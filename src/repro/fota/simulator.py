"""FOTA campaign simulation over a recorded trace.

The simulator replays the fleet's (cleaned, truncated) connection records
within the campaign window, in time order.  Each record is a delivery
opportunity: the policy decides whether to use it, and the transferred
volume is the record's busy/non-busy seconds times the corresponding
rate.  This is exactly the view an OEM's campaign server has — it sees
connections as they happen and decides whether to serve bytes — so
policies are comparable on equal footing.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.timebins import BIN_SECONDS
from repro.cdr.records import CDRBatch, ConnectionRecord
from repro.core.busy import BusySchedule
from repro.fota.campaign import CampaignConfig, CampaignResult, CarOutcome, TransferEvent
from repro.fota.policy import DeliveryPolicy


class CampaignSimulator:
    """Replays a trace against a delivery policy.

    Parameters
    ----------
    batch:
        Cleaned, truncated records (``PreprocessResult.truncated``).
    schedule:
        Per-cell busy masks used both for the policy's busy signal and for
        accounting bytes delivered through busy cells.  Campaigns read them
        record by record over most of the calendar, so the whole grid is
        built here in one bulk pass (cheaper than building each cell on its
        first record).
    days_on_network:
        Per-car distinct-day counts (for rare/common wave policies).
    seed:
        Seed for the policy's randomized scheduling decisions.
    """

    def __init__(
        self,
        batch: CDRBatch,
        schedule: BusySchedule,
        days_on_network: dict[str, int],
        seed: int = 0,
    ) -> None:
        self.batch = batch
        self.schedule = schedule
        schedule.mask_table()
        self.days_on_network = days_on_network
        self.seed = seed

    def run(
        self,
        policy: DeliveryPolicy,
        config: CampaignConfig,
        max_concurrent_per_cell: int | None = None,
    ) -> CampaignResult:
        """Simulate one campaign under one policy.

        Records are replayed chronologically across the whole fleet; a car
        stops taking opportunities once its update is done.  With
        ``max_concurrent_per_cell``, a campaign server throttles downloads,
        as the paper's Section 4.4 worry ("20 or more cars attempt
        overlapping downloads" in one cell) asks: an opportunity is refused
        (and counted in ``opportunities_throttled``) when any 15-minute bin
        the record touches already carries that many campaign downloads in
        that cell, and the result is named ``<policy>-throttled``.
        """
        if max_concurrent_per_cell is not None and max_concurrent_per_cell < 1:
            raise ValueError(
                f"max_concurrent_per_cell must be >= 1, got {max_concurrent_per_cell}"
            )
        rng = np.random.default_rng(self.seed)
        car_ids = self.batch.car_ids()
        policy.prepare(
            car_ids, self.days_on_network, config.window_start, config.window_end, rng
        )
        name = policy.name if max_concurrent_per_cell is None else f"{policy.name}-throttled"
        result = CampaignResult(config=config, policy_name=name)
        for car_id in car_ids:
            result.outcomes[car_id] = CarOutcome(car_id=car_id)
        remaining = {car_id: config.update_bytes for car_id in car_ids}
        occupancy: dict[tuple[int, int], int] = {}

        for rec in self.batch:
            outcome = result.outcomes[rec.car_id]
            if remaining[rec.car_id] <= 0:
                continue
            if rec.end <= config.window_start or rec.start >= config.window_end:
                continue
            busy_s, quiet_s = self._split_busy_seconds(rec, config)
            if not policy.should_transfer(rec.car_id, rec, busy_s > quiet_s):
                outcome.opportunities_skipped += 1
                continue
            if max_concurrent_per_cell is not None:
                start = max(rec.start, config.window_start)
                end = min(rec.end, config.window_end)
                bins = range(
                    int(start // BIN_SECONDS), int((end - 1e-9) // BIN_SECONDS) + 1
                )
                if any(
                    occupancy.get((rec.cell_id, b), 0) >= max_concurrent_per_cell
                    for b in bins
                ):
                    outcome.opportunities_throttled += 1
                    continue
                for b in bins:
                    occupancy[(rec.cell_id, b)] = occupancy.get((rec.cell_id, b), 0) + 1
            remaining[rec.car_id] = self._transfer(
                rec, outcome, remaining[rec.car_id], busy_s, quiet_s, config
            )
        return result

    def _transfer(
        self,
        rec: ConnectionRecord,
        outcome: CarOutcome,
        remaining: float,
        busy_s: float,
        quiet_s: float,
        config: CampaignConfig,
    ) -> float:
        """Move bytes over one opportunity; returns the new remaining count.

        Bytes move at the busy rate during busy seconds and the full rate
        otherwise, until the update is done.
        """
        outcome.opportunities_used += 1
        moved_total = 0.0
        for seconds, rate, is_busy in (
            (quiet_s, config.rate_bps, False),
            (busy_s, config.rate_bps * config.busy_rate_factor, True),
        ):
            if remaining <= 0 or seconds <= 0:
                continue
            can_move = rate * seconds / 8.0
            moved = min(can_move, remaining)
            remaining -= moved
            moved_total += moved
            outcome.transferred_bytes += moved
            if is_busy:
                outcome.busy_bytes += moved
        if moved_total > 0:
            outcome.transfers.append(
                TransferEvent(
                    cell_id=rec.cell_id,
                    start=max(rec.start, config.window_start),
                    end=min(rec.end, config.window_end),
                    transferred_bytes=moved_total,
                )
            )
        if remaining <= 0:
            outcome.completion_time = min(rec.end, config.window_end)
        return remaining

    def _split_busy_seconds(
        self, rec: ConnectionRecord, config: CampaignConfig
    ) -> tuple[float, float]:
        """Seconds of the record (clipped to the window) that are busy/quiet."""
        start = max(rec.start, config.window_start)
        end = min(rec.end, config.window_end)
        if end <= start:
            return 0.0, 0.0
        mask = self.schedule.busy_mask(rec.cell_id)
        busy = 0.0
        total = end - start
        if mask is not None:
            first = int(start // BIN_SECONDS)
            last = int((end - 1e-9) // BIN_SECONDS)
            for b in range(first, last + 1):
                lo = max(start, b * BIN_SECONDS)
                hi = min(end, (b + 1) * BIN_SECONDS)
                if 0 <= b < mask.size and mask[b]:
                    busy += max(0.0, hi - lo)
        return busy, total - busy
