#!/usr/bin/env python3
"""Fleet segmentation and per-car predictability.

Reproduces the Section 4.2/4.3 workflow on a synthetic fleet:

1. renders 24x7 usage matrices for three sample cars (Figure 5),
2. segments the fleet into rare/common x busy/non-busy/both (Table 2),
3. trains the hour-of-week presence predictor and scores it against
   baselines — the "per-car prediction models" of Section 4.7.

Usage::

    python examples/fleet_segmentation.py [n_cars] [n_days]
"""

import sys

from repro import SimulationConfig, StudyClock, TraceGenerator
from repro.core.busy import BusySchedule, busy_exposure
from repro.core.matrices import matrices_for_all, regularity_score
from repro.core.preprocess import preprocess
from repro.core.report import format_segmentation
from repro.core.segmentation import days_on_network, segment_cars
from repro.prediction.evaluate import evaluate_predictor, train_test_split_weeks
from repro.prediction.model import (
    AlwaysPredictor,
    HourOfDayPredictor,
    HourOfWeekPredictor,
)


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

    # -- Figure 5: three sample cars with different regularity -------------
    matrices = matrices_for_all(pre.truncated.by_car(), dataset.clock)
    ranked = sorted(matrices.values(), key=regularity_score)
    samples = [ranked[-1], ranked[len(ranked) // 2], ranked[0]]
    labels = ("most regular", "median", "least regular")
    print("== Sample cars' 24x7 connection matrices (Figure 5) ==")
    for label, matrix in zip(labels, samples):
        print(
            f"\n{matrix.car_id} ({label}, regularity "
            f"{regularity_score(matrix):.2f}):"
        )
        print(matrix.render())

    # -- Table 2: rare/common x busy classes --------------------------------
    days = days_on_network(pre.full, dataset.clock)
    exposure = busy_exposure(
        pre.truncated, BusySchedule.from_load_model(dataset.load_model)
    )
    print("\n== Car segmentation (Table 2) ==")
    print(format_segmentation(segment_cars(days, exposure)))

    # -- Section 4.7: per-car appearance prediction -------------------------
    train_weeks = max(1, (n_days // 7) // 2)
    train, test = train_test_split_weeks(pre.truncated, dataset.clock, train_weeks)
    print(
        f"\n== Presence prediction (train {train_weeks} week(s), "
        f"test {n_days // 7 - train_weeks}) =="
    )
    print(f"{'model':<14} | {'cars':>5} | {'precision':>9} | {'recall':>7} | {'F1':>5}")
    for factory in (
        lambda: HourOfWeekPredictor(threshold=0.5),
        lambda: HourOfDayPredictor(threshold=0.5),
        AlwaysPredictor,
    ):
        result = evaluate_predictor(factory, train, test)
        print(
            f"{result.predictor_name:<14} | {result.n_cars:>5} "
            f"| {result.precision:>9.3f} | {result.recall:>7.3f} | {result.f1:>5.3f}"
        )


if __name__ == "__main__":
    main()
