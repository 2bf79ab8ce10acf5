#!/usr/bin/env python3
"""Per-car prediction models (Section 4.7) end to end.

Trains and evaluates three layers of prediction on a synthetic fleet:

1. hour-of-week presence ("will this car be online Monday 08:00?") with a
   precision/recall threshold sweep,
2. next-appearance timing from inter-session gaps ("how long until this car
   shows up again?"), per-car vs fleet baseline,
3. week-over-week stability — which cars are predictable at all.

Usage::

    python examples/prediction_models.py [n_cars] [n_days]
"""

import sys

import numpy as np

from repro import SimulationConfig, StudyClock, TraceGenerator
from repro.core.preprocess import preprocess
from repro.core.stability import fleet_stability
from repro.prediction.evaluate import train_test_split_weeks
from repro.prediction.interarrival import evaluate_gap_models
from repro.prediction.tuning import best_by_f1, format_sweep, threshold_sweep
from repro.viz import hbar_chart


def main() -> None:
    n_cars = int(sys.argv[1]) if len(sys.argv) > 1 else 150
    n_days = int(sys.argv[2]) if len(sys.argv) > 2 else 28
    if n_days < 14:
        sys.exit("need at least 14 days: prediction splits the study into "
                 "training and test weeks")

    print(f"Generating trace: {n_cars} cars over {n_days} days ...\n")
    dataset = TraceGenerator(
        SimulationConfig(n_cars=n_cars, clock=StudyClock(n_days=n_days))
    ).generate()
    pre = preprocess(dataset.batch)

    # -- 1. hour-of-week presence: the precision/recall frontier ------------
    train_weeks = max(1, (n_days // 7) // 2)
    train, test = train_test_split_weeks(pre.truncated, dataset.clock, train_weeks)
    points = threshold_sweep(train, test)
    print(f"== Hour-of-week presence (trained on {train_weeks} week(s)) ==")
    print(format_sweep(points))
    best = best_by_f1(points)
    print(f"best threshold by F1: {best.threshold:.2f} (F1 {best.f1:.3f})\n")

    # -- 2. next-appearance timing -------------------------------------------
    half = dataset.clock.duration / 2
    gap_train, gap_test = {}, {}
    for car_id in pre.truncated.car_ids():
        sessions = pre.aggregate_sessions(car_id)
        gap_train[car_id] = [s for s in sessions if s.end <= half]
        gap_test[car_id] = [s for s in sessions if s.start >= half]
    gaps = evaluate_gap_models(gap_train, gap_test, min_gaps=8)
    print("== Next-appearance prediction (median inter-session gap) ==")
    print(
        f"cars evaluated: {gaps.n_cars}; per-car MAE "
        f"{gaps.per_car_mae_s / 3600:.1f} h vs fleet baseline "
        f"{gaps.baseline_mae_s / 3600:.1f} h "
        f"({gaps.improvement:+.0%} improvement)\n"
    )

    # -- 3. who is predictable at all ----------------------------------------
    stability = fleet_stability(pre.truncated, dataset.clock)
    means = stability.means()
    print("== Week-over-week stability (Jaccard of weekly presence) ==")
    print(
        f"fleet mean {stability.fleet_mean():.2f}; "
        f"{stability.fraction_stable(0.3):.0%} of cars above 0.3"
    )
    edges = np.arange(0.0, 1.01, 0.2)
    counts, _ = np.histogram(means, bins=edges)
    labels = [f"{a:.1f}-{b:.1f}" for a, b in zip(edges, edges[1:])]
    print(hbar_chart(labels, counts.tolist(), fmt="{:.0f}"))
    print(
        "\nStable cars are the ones the FOTA planner can schedule precisely; "
        "the unstable tail is why\nrare cars get all-hours eligibility."
    )


if __name__ == "__main__":
    main()
