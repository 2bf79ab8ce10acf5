"""Threshold tuning for presence predictors.

The hour-of-week predictor's threshold trades precision against recall: a
low bar predicts presence in every hour the car ever used (high recall, low
precision), a high bar keeps only iron-clad habits.  Which point is right
depends on the consumer — a FOTA planner wasting a push on an absent car
pays little, so it wants recall; a capacity forecaster wants precision.
This module sweeps the threshold and reports the frontier.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

from repro.prediction.evaluate import EvaluationResult, evaluate_predictor
from repro.prediction.model import HourOfWeekPredictor


@dataclass(frozen=True)
class SweepPoint:
    """One point of the precision/recall frontier."""

    threshold: float
    result: EvaluationResult

    @property
    def f1(self) -> float:
        """F1 at this threshold."""
        return self.result.f1


def threshold_sweep(
    train: dict[str, list[npt.NDArray[np.bool_]]],
    test: dict[str, list[npt.NDArray[np.bool_]]],
    thresholds: tuple[float, ...] = (0.2, 0.35, 0.5, 0.65, 0.8, 0.95),
) -> list[SweepPoint]:
    """Evaluate the hour-of-week predictor at each threshold."""
    if not thresholds:
        raise ValueError("need at least one threshold")
    points = []
    for threshold in thresholds:
        result = evaluate_predictor(
            lambda threshold=threshold: HourOfWeekPredictor(threshold), train, test
        )
        points.append(SweepPoint(threshold=threshold, result=result))
    return points


def best_by_f1(points: list[SweepPoint]) -> SweepPoint:
    """The sweep point with the highest F1."""
    if not points:
        raise ValueError("empty sweep")
    return max(points, key=lambda p: p.f1)


def format_sweep(points: list[SweepPoint]) -> str:
    """Text table of the frontier."""
    lines = ["threshold | precision | recall |    F1"]
    for p in sorted(points, key=lambda q: q.threshold):
        lines.append(
            f"{p.threshold:>9.2f} | {p.result.precision:>9.3f} "
            f"| {p.result.recall:>6.3f} | {p.f1:>5.3f}"
        )
    return "\n".join(lines)
