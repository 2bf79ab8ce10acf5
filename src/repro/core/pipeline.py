"""End-to-end analysis pipeline.

Runs every analysis of Section 4 over a raw CDR batch held in memory and
collects the results in an :class:`~repro.core.fused.AnalysisReport`,
whose fields correspond one-to-one to the paper's tables and figures.
Individual analyses remain importable on their own; the pipeline just
sequences them with shared preprocessing.
"""

from __future__ import annotations

from repro.algorithms.timebins import StudyClock
from repro.cdr.columnar import ColumnarCDRBatch
from repro.cdr.records import CDRBatch
from repro.core.busy import BusySchedule, busy_exposure
from repro.core.carriers import carrier_usage
from repro.core.clustering import (
    BusyCellClusters,
    cluster_busy_cells,
    select_busy_cells,
)
from repro.core.connect_time import connect_time_analysis
from repro.core.fused import AnalysisReport, FusedEngine, finalize_fused
from repro.core.handover import HandoverStats, handover_analysis
from repro.core.preprocess import (
    NoUsableRecordsError,
    PreprocessConfig,
    PreprocessResult,
    preprocess_lazy,
)
from repro.core.presence import daily_presence, weekday_table
from repro.core.segmentation import days_on_network, segment_cars
from repro.network.cells import Cell
from repro.network.load import CellLoadModel


class AnalysisPipeline:
    """Sequences the paper's analyses over a raw batch.

    Parameters
    ----------
    clock:
        Study calendar the batch was recorded against.
    load_model:
        Source of per-cell U_PRB series; drives busy-cell classification and
        the Figure 11 clustering.
    cells:
        Cell directory (``topology.cells``) for handover classification;
        omit to skip handover analysis.
    preprocess_config:
        Section 3 thresholds; defaults to the paper's values.
    """

    def __init__(
        self,
        clock: StudyClock,
        load_model: CellLoadModel,
        cells: dict[int, Cell] | None = None,
        preprocess_config: PreprocessConfig | None = None,
    ) -> None:
        self.clock = clock
        self.load_model = load_model
        self.cells = cells
        self.preprocess_config = preprocess_config or PreprocessConfig()
        # One schedule for the pipeline's lifetime: busy masks are a pure
        # function of the load model, and their grid is a run's largest
        # fixed cost, so it must survive across run() calls instead of
        # being rebuilt for each one.
        self.schedule = BusySchedule.from_load_model(load_model)

    def run(
        self,
        batch: CDRBatch | ColumnarCDRBatch,
        with_clustering: bool = True,
        cluster_k: int = 2,
        engine: str = "fused",
    ) -> AnalysisReport:
        """Run every analysis and return the filled report.

        ``batch`` may be a :class:`CDRBatch` or a :class:`ColumnarCDRBatch`
        (sorted into record order first if its rows are not, see
        :func:`repro.core.preprocess.preprocess`).

        ``engine`` selects the implementation of the Section 4 analyses:
        ``"fused"`` (default) runs one :class:`repro.core.fused.FusedEngine`
        over the kept columns, Figure 11's busy-cell rows included, and
        closes it with :func:`repro.core.fused.finalize_fused` — the same
        step that closes a shard fold — so it constructs no
        :class:`~repro.cdr.records.ConnectionRecord` (callers reading
        ``report.pre.full`` or ``report.pre.truncated`` build them on
        demand); ``"reference"`` runs the original record-based loops, the
        oracle the fused engine is tested against.  Both produce identical
        reports (the parity suites assert bit-equality) except Figure 9's
        ``durations``, which only the fused engine fills, so the switch
        exists for verification and benchmarking, not correctness.

        Raises :class:`NoUsableRecordsError` for a batch with no usable
        records: every downstream statistic would be undefined, and an
        explicit error beats a report full of NaNs.
        """
        if engine not in ("fused", "reference"):
            raise ValueError(
                f"engine must be 'fused' or 'reference', got {engine!r}"
            )
        # ``preprocess_lazy`` is ``preprocess``, called by the name that
        # benchmarks/e2e patches here: its ``core.preprocess`` span reports
        # the kept rows.
        pre = preprocess_lazy(batch, self.preprocess_config)
        if pre.n_kept == 0:
            raise NoUsableRecordsError(pre.n_dropped_ghosts)

        if engine == "fused":
            fused_engine = FusedEngine(
                self.clock,
                self.preprocess_config,
                schedule=self.schedule,
                cells=self.cells,
                busy_cells=(
                    select_busy_cells(self.load_model) if with_clustering else None
                ),
            )
            fused_engine.consume(pre.columnar_full())
            partial = fused_engine.export_partial()
            # The engine saw the kept columns only; the ghosts were dropped
            # by preprocessing.
            partial.n_ghosts = pre.n_dropped_ghosts
            report = finalize_fused(partial, self.clock, cluster_k=cluster_k)
        else:
            report = self._reference(pre, with_clustering, cluster_k)
        report.pre = pre
        return report

    def _reference(
        self, pre: PreprocessResult, with_clustering: bool, cluster_k: int
    ) -> AnalysisReport:
        """The record-based analyses, the oracle of the fused engine."""
        presence = daily_presence(pre.full, self.clock)
        days = days_on_network(pre.full, self.clock)
        exposure = busy_exposure(pre.truncated, self.schedule)
        handovers: HandoverStats | None = None
        if self.cells is not None:
            handovers = handover_analysis(pre, self.cells)
        notes = [f"dropped {pre.n_dropped_ghosts} exactly-1-hour ghost records"]
        clusters: BusyCellClusters | None = None
        if with_clustering:
            try:
                clusters = cluster_busy_cells(
                    pre.truncated, self.load_model, self.clock, k=cluster_k
                )
            except ValueError as exc:
                notes.append(f"clustering skipped: {exc}")
        return AnalysisReport(
            presence=presence,
            weekday_rows=weekday_table(presence),
            connect_time=connect_time_analysis(pre, self.clock),
            days=days,
            carriers=carrier_usage(pre.full),
            n_kept=pre.n_kept,
            n_ghosts=pre.n_dropped_ghosts,
            exposure=exposure,
            segmentation=segment_cars(days, exposure),
            handovers=handovers,
            clusters=clusters,
            notes=notes,
        )
