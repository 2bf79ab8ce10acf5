"""Deterministic config-space search: fit a generator to a target summary.

The calibration loop is plain coordinate descent over the knob registry
(:data:`repro.simulate.config.TUNABLE_KNOBS`): for each knob in a fixed
order, try a step down and a step up (multiplicative, with an additive
fallback when the value sits at zero or a bound), keep any candidate that
strictly lowers the divergence score, and halve the step after a full
sweep without improvement.  Every candidate trace is generated through
:class:`~repro.simulate.generator.TraceGenerator` from a fixed seed, so
the whole search — candidates, scores, accepted moves — is a pure
function of its arguments, worker count included, and reproduces
bit-identically across worker counts wherever generation does (see
:mod:`repro.simulate.parallel`).

An evaluation cache keyed by the knob-value vector makes revisits free;
the evaluation count reported in :class:`TwinResult` counts distinct
generated traces.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, replace

from repro.cdr.errors import TraceGenerationError
from repro.simulate.config import (
    KNOBS_BY_NAME,
    TUNABLE_KNOBS,
    SimulationConfig,
    apply_knobs,
    knob_values,
)
from repro.simulate.generator import TraceGenerator
from repro.simulate.scenarios import scenario
from repro.twin.divergence import DivergenceReport, divergence
from repro.twin.summary import TraceSummary, TwinContext, summarize_batch


@dataclass(frozen=True)
class GeneratorConfig:
    """A best-fit generator recipe the search emits.

    Everything needed to regenerate the twin: the scenario the defaults
    come from, fleet size, study length, seed and the calibrated knob
    values.  JSON round-trips through ``to_json_dict`` /
    ``from_json_dict`` so ``repro-cars twin --out`` output can be loaded
    and :meth:`build` into a :class:`SimulationConfig` later.
    """

    scenario: str
    n_cars: int
    n_days: int
    seed: int
    knobs: dict[str, float]

    def build(self) -> SimulationConfig:
        """The full simulation config this recipe describes.

        Knob validation happens here (in :func:`apply_knobs`): a recipe
        loaded from a corrupt JSON file fails loudly, not at generation.
        """
        config = scenario(self.scenario, n_cars=self.n_cars, n_days=self.n_days)
        config = replace(config, seed=self.seed)
        return apply_knobs(config, self.knobs)

    def to_json_dict(self) -> dict[str, object]:
        """A JSON-safe dict; ``from_json_dict`` inverts it exactly."""
        return {
            "knobs": {name: self.knobs[name] for name in sorted(self.knobs)},
            "n_cars": self.n_cars,
            "n_days": self.n_days,
            "scenario": self.scenario,
            "seed": self.seed,
        }

    @staticmethod
    def from_json_dict(obj: Mapping[str, object]) -> "GeneratorConfig":
        """Rebuild a recipe from :meth:`to_json_dict` output."""
        missing = {"knobs", "n_cars", "n_days", "scenario", "seed"} - set(obj)
        if missing:
            raise ValueError(f"config dict missing fields: {sorted(missing)}")
        name = obj["scenario"]
        if not isinstance(name, str):
            raise ValueError(f"config field 'scenario' is not a string: {name!r}")
        knobs_obj = obj["knobs"]
        if not isinstance(knobs_obj, Mapping):
            raise ValueError(f"config field 'knobs' is not a mapping: {knobs_obj!r}")
        knobs: dict[str, float] = {}
        for knob, value in knobs_obj.items():
            if not isinstance(knob, str):
                raise ValueError(f"knob name is not a string: {knob!r}")
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"knob {knob!r} value is not a number: {value!r}")
            knobs[knob] = float(value)

        def as_int(key: str) -> int:
            value = obj[key]
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"config field {key!r} is not an integer: {value!r}")
            return value

        return GeneratorConfig(
            scenario=name,
            n_cars=as_int("n_cars"),
            n_days=as_int("n_days"),
            seed=as_int("seed"),
            knobs=knobs,
        )


@dataclass(frozen=True)
class TwinResult:
    """Outcome of one calibration run."""

    #: The best-fit recipe found.
    config: GeneratorConfig
    #: Divergence of the best-fit twin against the target.
    report: DivergenceReport
    #: Divergence of the unsearched (scenario-default) twin — the bar the
    #: search has to beat.
    baseline: DivergenceReport
    #: Distinct candidate traces generated and scored.
    n_evaluations: int
    #: Full coordinate sweeps performed.
    rounds_run: int

    def to_json_dict(self) -> dict[str, object]:
        return {
            "baseline": self.baseline.to_json_dict(),
            "config": self.config.to_json_dict(),
            "n_evaluations": self.n_evaluations,
            "report": self.report.to_json_dict(),
            "rounds_run": self.rounds_run,
        }


def summarize_candidate(
    config: GeneratorConfig, ctx: TwinContext, *, workers: int = 1
) -> TraceSummary:
    """Generate the candidate's trace and summarize it in memory.

    ``workers`` shards generation across processes (0 = one per CPU); the
    generated records — hence the summary — are identical at any count.
    """
    dataset = TraceGenerator(config.build(), workers=workers).generate()
    return summarize_batch(dataset.batch.columnar(), ctx)


def calibrate(
    target: TraceSummary,
    ctx: TwinContext,
    *,
    scenario_name: str = "smoke",
    n_cars: int = 100,
    seed: int = 42,
    knobs: Sequence[str] | None = None,
    rounds: int = 3,
    step: float = 0.5,
    min_step: float = 0.05,
    workers: int = 1,
) -> TwinResult:
    """Search generator configs for the best statistical twin of ``target``.

    Candidate fleets are ``n_cars`` cars over the target's study length in
    the named scenario; ``knobs`` restricts the search to a subset of
    :data:`TUNABLE_KNOBS` (default: all of them).  ``step`` is the
    initial relative step, halved after each sweep with no accepted move,
    and the search stops after ``rounds`` sweeps or once the step falls
    below ``min_step``.
    """
    if not 0 < step:
        raise TraceGenerationError(f"step must be positive, got {step}")
    names = (
        tuple(k.name for k in TUNABLE_KNOBS) if knobs is None else tuple(knobs)
    )
    for name in names:
        if name not in KNOBS_BY_NAME:
            raise TraceGenerationError(
                f"unknown knob {name!r}; available: {sorted(KNOBS_BY_NAME)}"
            )
    base = scenario(scenario_name, n_cars=n_cars, n_days=target.n_days)
    values = knob_values(base, names)

    cache: dict[tuple[float, ...], DivergenceReport] = {}

    def evaluate(vals: Mapping[str, float]) -> DivergenceReport:
        key = tuple(vals[name] for name in names)
        hit = cache.get(key)
        if hit is not None:
            return hit
        candidate = GeneratorConfig(
            scenario=scenario_name,
            n_cars=n_cars,
            n_days=target.n_days,
            seed=seed,
            knobs=dict(vals),
        )
        report = divergence(
            target, summarize_candidate(candidate, ctx, workers=workers)
        )
        cache[key] = report
        return report

    baseline = evaluate(values)
    best = baseline
    cur_step = step
    rounds_run = 0
    for _ in range(rounds):
        if cur_step < min_step:
            break
        improved = False
        for name in names:
            spec = KNOBS_BY_NAME[name]
            current = values[name]
            candidates = sorted(
                {
                    spec.clip(current * (1 - cur_step)),
                    spec.clip(current * (1 + cur_step)),
                }
                - {current}
            )
            if len(candidates) < 2:
                # Multiplicative steps collapse at zero and saturate at the
                # bounds; widen with absolute steps sized to the knob box.
                span = cur_step * (spec.hi - spec.lo)
                candidates = sorted(
                    (
                        set(candidates)
                        | {spec.clip(current - span), spec.clip(current + span)}
                    )
                    - {current}
                )
            for cand in candidates:
                trial = dict(values)
                trial[name] = cand
                report = evaluate(trial)
                if report.score < best.score:
                    best = report
                    values = trial
                    improved = True
        rounds_run += 1
        if not improved:
            cur_step /= 2
    return TwinResult(
        config=GeneratorConfig(
            scenario=scenario_name,
            n_cars=n_cars,
            n_days=target.n_days,
            seed=seed,
            knobs=dict(values),
        ),
        report=best,
        baseline=baseline,
        n_evaluations=len(cache),
        rounds_run=rounds_run,
    )
