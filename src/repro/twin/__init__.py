"""Trace twinning: summarize a target trace, search configs to match it.

The calibration loop in three movements:

1. :mod:`repro.twin.summary` reduces any trace (text file or `.cdrz`
   shard directory) to a :class:`TraceSummary` of calibration targets via
   the fused engine.
2. :mod:`repro.twin.divergence` folds per-statistic normalized distances
   between two summaries into one score.
3. :mod:`repro.twin.search` runs deterministic coordinate descent over
   the generator's tunable knobs to minimize that score, emitting the
   best-fit :class:`GeneratorConfig` and a machine-readable
   :class:`DivergenceReport`.

Exposed on the CLI as ``repro-cars twin`` and in the analysis service as
the ``twin`` query kind.  This package must stay import-independent of
:mod:`repro.service` (the service imports us).
"""
