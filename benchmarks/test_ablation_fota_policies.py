"""Ablation: FOTA delivery policies (the management strategies of §4.3).

Compares the four delivery policies on the same fleet and campaign: naive,
off-peak-only, rare-first wave scheduling, and the combined busy-aware
policy.  The paper predicts the trade-off this table exhibits: managed
policies eliminate busy-cell bytes (network impact) at a bounded cost in
completion speed.
"""

from repro.fota.campaign import CampaignConfig
from repro.fota.policy import (
    BusyAwarePolicy,
    NaivePolicy,
    OffPeakPolicy,
    RareFirstPolicy,
)
from repro.fota.simulator import CampaignSimulator


def run_all_policies(simulator, campaign):
    return {
        policy.name: simulator.run(policy, campaign)
        for policy in (
            NaivePolicy(),
            OffPeakPolicy(),
            RareFirstPolicy(),
            BusyAwarePolicy(),
        )
    }


def test_ablation_fota_policies(benchmark, dataset, pre, busy_schedule, days, emit):
    simulator = CampaignSimulator(pre.truncated, busy_schedule, days, seed=3)
    campaign = CampaignConfig(update_bytes=200e6, window_days=28)
    results = benchmark.pedantic(
        run_all_policies, args=(simulator, campaign), rounds=1, iterations=1
    )

    lines = [
        f"campaign: {campaign.update_bytes / 1e6:.0f} MB update, "
        f"{campaign.window_days}-day window, {results['naive'].n_cars} cars",
        "",
        f"{'policy':<12} | {'complete':>8} | {'t90 (days)':>10} | {'busy bytes':>10}",
    ]
    for name, result in results.items():
        t90 = result.time_to_fraction(0.9)
        t90_text = f"{t90:.1f}" if t90 is not None else "never"
        lines.append(
            f"{name:<12} | {result.completion_rate:>8.1%} | {t90_text:>10} "
            f"| {result.busy_byte_fraction:>10.1%}"
        )

    naive, aware = results["naive"], results["busy-aware"]
    off_peak, rare_first = results["off-peak"], results["rare-first"]
    # Impact ordering: busy-avoiding policies all but eliminate busy bytes
    # (a residual sliver remains when a mostly-quiet connection crosses a
    # busy 15-minute bin mid-transfer).
    assert naive.busy_byte_fraction > 0.0
    assert off_peak.busy_byte_fraction < 0.1 * naive.busy_byte_fraction
    assert aware.busy_byte_fraction < 0.1 * naive.busy_byte_fraction
    # Wave scheduling delays completion relative to naive.
    if naive.time_to_fraction(0.9) is not None and rare_first.time_to_fraction(0.9):
        assert rare_first.time_to_fraction(0.9) >= naive.time_to_fraction(0.9)
    # The managed policy still reaches near-naive completion.
    assert aware.completion_rate >= naive.completion_rate - 0.10
    emit("ablation_fota_policies", "\n".join(lines))
