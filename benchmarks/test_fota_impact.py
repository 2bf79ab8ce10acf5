"""Extension experiment: network impact of an unmanaged FOTA campaign, and
what a per-cell concurrency cap buys.

Quantifies the paper's Section 4.4 warning — overlapping large downloads on
loaded cells — for the naive policy, then repeats the campaign with a
campaign-server throttle of 3 concurrent downloads per cell.
"""

from repro.fota.campaign import CampaignConfig
from repro.fota.impact import assess_impact
from repro.fota.policy import NaivePolicy
from repro.fota.simulator import CampaignSimulator


def test_fota_impact(benchmark, dataset, pre, busy_schedule, days, emit):
    simulator = CampaignSimulator(pre.truncated, busy_schedule, days, seed=11)
    config = CampaignConfig(update_bytes=300e6, window_days=28)

    naive = simulator.run(NaivePolicy(), config)
    impact = benchmark.pedantic(
        assess_impact,
        args=(naive, dataset.topology.cells, dataset.load_model),
        rounds=1,
        iterations=1,
    )
    capped = simulator.run(NaivePolicy(), config, max_concurrent_per_cell=3)
    capped_impact = assess_impact(
        capped, dataset.topology.cells, dataset.load_model, config
    )

    total_throttled = sum(
        o.opportunities_throttled for o in capped.outcomes.values()
    )
    lines = [
        f"campaign: {config.update_bytes / 1e6:.0f} MB to {naive.n_cars} cars, "
        f"{config.window_days}-day window",
        "",
        f"{'metric':<36} | {'naive':>9} | {'cap=3/cell':>10}",
        f"{'completion rate':<36} | {naive.completion_rate:>9.1%} "
        f"| {capped.completion_rate:>10.1%}",
        f"{'peak added U_PRB in a cell-bin':<36} | "
        f"{impact.peak_added_utilization:>9.1%} "
        f"| {capped_impact.peak_added_utilization:>10.1%}",
        f"{'peak concurrent downloads/cell':<36} | {impact.peak_concurrency:>9} "
        f"| {capped_impact.peak_concurrency:>10}",
        f"{'cell-bins pushed over 80% busy':<36} | "
        f"{len(impact.newly_busy_bins):>9} "
        f"| {len(capped_impact.newly_busy_bins):>10}",
        f"{'opportunities throttled':<36} | {'-':>9} | {total_throttled:>10}",
    ]

    # Shape: the unmanaged campaign creates real overlap and some newly-busy
    # bins; the cap bounds per-cell concurrency at the configured level.
    assert impact.peak_concurrency >= 3
    assert capped_impact.peak_concurrency <= 3
    assert total_throttled > 0
    assert capped.completion_rate <= naive.completion_rate
    emit("fota_impact", "\n".join(lines))
