"""End-to-end analysis pipeline.

Runs every analysis of Section 4 over a raw CDR batch and collects the
results in an :class:`AnalysisReport` whose fields correspond one-to-one to
the paper's tables and figures.  Individual analyses remain importable on
their own; the pipeline just sequences them with shared preprocessing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.algorithms.timebins import StudyClock
from repro.cdr.records import CDRBatch
from repro.core.busy import BusyExposure, BusySchedule, busy_exposure
from repro.core.carriers import CarrierUsage, carrier_usage
from repro.core.clustering import BusyCellClusters, cluster_busy_cells
from repro.core.connect_time import ConnectTimeResult, connect_time_analysis
from repro.core.fused import FusedEngine
from repro.core.handover import HandoverStats, handover_analysis
from repro.core.preprocess import (
    NoUsableRecordsError,
    PreprocessConfig,
    PreprocessResult,
    preprocess,
    preprocess_lazy,
)
from repro.core.presence import (
    DailyPresence,
    WeekdayRow,
    daily_presence,
    weekday_table,
)
from repro.core.segmentation import CarSegmentation, days_on_network, segment_cars
from repro.network.cells import Cell
from repro.network.load import CellLoadModel


@dataclass
class AnalysisReport:
    """All paper analyses computed over one data set.

    Field-to-paper mapping: ``presence`` -> Figure 2, ``weekday_rows`` ->
    Table 1, ``connect_time`` -> Figure 3, ``days`` -> Figure 6,
    ``segmentation`` -> Table 2, ``exposure`` -> Figure 7, ``clusters`` ->
    Figure 11, ``handovers`` -> Section 4.5, ``carriers`` -> Table 3.
    """

    pre: PreprocessResult
    presence: DailyPresence
    weekday_rows: list[WeekdayRow]
    connect_time: ConnectTimeResult
    days: dict[str, int]
    exposure: BusyExposure
    segmentation: CarSegmentation
    carriers: CarrierUsage
    handovers: HandoverStats | None = None
    clusters: BusyCellClusters | None = None
    notes: list[str] = field(default_factory=list)


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
        batch: CDRBatch,
        with_clustering: bool = True,
        cluster_k: int = 2,
        exclude_loss_days: bool = False,
        engine: str = "fused",
    ) -> AnalysisReport:
        """Run every analysis and return the filled report.

        ``engine`` selects the implementation of the Section 4 analyses:
        ``"fused"`` (default) makes one pass over the batch computing shared
        intermediates for every analysis at once
        (:class:`repro.core.fused.FusedEngine`) with lazy preprocessing;
        ``"reference"`` runs the original record-based loops, the oracle
        the fused engine is tested against.  Both produce identical reports
        (the parity suites assert bit-equality), so the switch exists for
        verification and benchmarking, not correctness.

        ``exclude_loss_days`` runs the data-quality loss-day detector and
        removes flagged days from the Table 1 weekday statistics (the paper
        notes its three loss days "do not affect the overall results"; this
        makes that claim checkable).  Raises :class:`NoUsableRecordsError`
        for a batch with no usable records: every downstream statistic would
        be undefined, and an explicit error beats a report full of NaNs.
        """
        if engine not in ("fused", "reference"):
            raise ValueError(
                f"engine must be 'fused' or 'reference', got {engine!r}"
            )
        notes: list[str] = []
        # The fused path defers record materialization: its engine runs on
        # the columnar views alone, so building ConnectionRecord objects
        # would be pure overhead unless clustering or loss-day detection
        # asks for them later.
        if engine == "fused":
            pre = preprocess_lazy(batch, self.preprocess_config)
        else:
            pre = preprocess(batch, self.preprocess_config)
        if pre.n_kept == 0:
            raise NoUsableRecordsError(pre.n_dropped_ghosts)
        notes.append(f"dropped {pre.n_dropped_ghosts} exactly-1-hour ghost records")

        handovers: HandoverStats | None = None
        if engine == "fused":
            fused_engine = FusedEngine(
                self.clock,
                self.preprocess_config,
                schedule=self.schedule,
                cells=self.cells,
            )
            fused_engine.consume(pre.columnar_full())
            fused = fused_engine.finalize()
            if fused.exposure is None or fused.segmentation is None:
                raise RuntimeError("fused pipeline ran without a schedule")
            presence = fused.presence
            connect_time = fused.connect_time
            days = fused.days
            carriers = fused.carriers
            exposure = fused.exposure
            segmentation = fused.segmentation
            handovers = fused.handovers
        else:
            presence = daily_presence(pre.full, self.clock)
            connect_time = connect_time_analysis(pre, self.clock)
            days = days_on_network(pre.full, self.clock)
            exposure = busy_exposure(pre.truncated, self.schedule)
            carriers = carrier_usage(pre.full)
            segmentation = segment_cars(days, exposure)
            if self.cells is not None:
                handovers = handover_analysis(pre, self.cells)

        excluded: tuple[int, ...] = ()
        if exclude_loss_days:
            from repro.cdr.quality import detect_loss_days

            findings, _ = detect_loss_days(pre.full, self.clock)
            excluded = tuple(f.day for f in findings)
            if excluded:
                notes.append(
                    f"excluded suspected data-loss days from Table 1: "
                    f"{list(excluded)}"
                )
        weekday_rows = weekday_table(presence, exclude_days=excluded)

        clusters: BusyCellClusters | None = None
        if with_clustering:
            try:
                clusters = cluster_busy_cells(
                    pre.truncated, self.load_model, self.clock, k=cluster_k
                )
            except ValueError as exc:
                notes.append(f"clustering skipped: {exc}")

        return AnalysisReport(
            pre=pre,
            presence=presence,
            weekday_rows=weekday_rows,
            connect_time=connect_time,
            days=days,
            exposure=exposure,
            segmentation=segmentation,
            carriers=carriers,
            handovers=handovers,
            clusters=clusters,
            notes=notes,
        )
