#!/usr/bin/env python3
"""Managed FOTA campaign planning — the use case the paper motivates.

Simulates a 200 MB firmware rollout to the whole fleet under four delivery
policies and compares completion rate, time-to-complete and the share of
bytes pushed through busy cells (the operator's impact metric).

Usage::

    python examples/fota_campaign.py [n_cars] [n_days]
"""

import sys

from repro import SimulationConfig, StudyClock, TraceGenerator
from repro.core.busy import BusySchedule
from repro.core.preprocess import preprocess
from repro.core.segmentation import days_on_network
from repro.fota.campaign import CampaignConfig
from repro.fota.planner import CampaignPlanner, PlannedPolicy
from repro.fota.policy import (
    BusyAwarePolicy,
    NaivePolicy,
    OffPeakPolicy,
    RareFirstPolicy,
)
from repro.fota.simulator import CampaignSimulator


def main() -> None:
    n_cars = int(sys.argv[1]) if len(sys.argv) > 1 else 150
    n_days = int(sys.argv[2]) if len(sys.argv) > 2 else 28

    print(f"Generating trace: {n_cars} cars over {n_days} days ...")
    dataset = TraceGenerator(
        SimulationConfig(n_cars=n_cars, clock=StudyClock(n_days=n_days))
    ).generate()

    pre = preprocess(dataset.batch)
    schedule = BusySchedule.from_load_model(dataset.load_model)
    days = days_on_network(pre.full, dataset.clock)
    simulator = CampaignSimulator(pre.truncated, schedule, days, seed=7)

    campaign = CampaignConfig(update_bytes=200e6, window_days=n_days)
    print(
        f"Campaign: {campaign.update_bytes / 1e6:.0f} MB update, "
        f"{campaign.window_days}-day window\n"
    )

    # The planned policy trains the hour-of-week presence predictor on the
    # first week of history and targets each car's expected off-peak hours.
    train_weeks = max(1, (n_days // 7) // 2)
    plan = CampaignPlanner(dataset.clock, dataset.load_model).plan(
        pre.truncated, train_weeks=train_weeks
    )
    print(
        f"planner: {plan.coverage():.0%} of cars have model-derived windows "
        f"(trained on {train_weeks} week(s))\n"
    )

    header = f"{'policy':<12} | {'complete':>8} | {'t50 (days)':>10} | {'busy bytes':>10}"
    print(header)
    print("-" * len(header))
    for policy in (
        NaivePolicy(),
        OffPeakPolicy(),
        RareFirstPolicy(),
        BusyAwarePolicy(),
        PlannedPolicy(plan, dataset.clock),
    ):
        result = simulator.run(policy, campaign)
        t50 = result.time_to_fraction(0.5)
        t50_text = f"{t50:.1f}" if t50 is not None else "never"
        print(
            f"{result.policy_name:<12} | {result.completion_rate:>8.1%} "
            f"| {t50_text:>10} | {result.busy_byte_fraction:>10.1%}"
        )

    print(
        "\nReading the table: the naive policy finishes fastest but pushes a "
        "visible share of bytes\nthrough busy cells; the busy-aware policy "
        "drives that share to zero at a modest completion cost\n— the trade "
        "the paper's Section 4.3 anticipates."
    )


if __name__ == "__main__":
    main()
