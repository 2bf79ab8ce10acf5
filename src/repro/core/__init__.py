"""The paper's analysis methodology (Sections 3 and 4).

Each module transcribes one analysis of the paper; ``pipeline`` runs them all
over a CDR batch plus cell-load series and produces an
:class:`~repro.core.pipeline.AnalysisReport` whose fields map one-to-one onto
the paper's tables and figures.
"""

from repro.core.busy import BusyExposure, BusySchedule, busy_exposure
from repro.core.carclusters import BehaviourClusters, cluster_cars
from repro.core.carriers import CarrierUsage, carrier_usage
from repro.core.clustering import BusyCellClusters, cluster_busy_cells
from repro.core.compare import compare_reports, format_comparison
from repro.core.concurrency import CellTimeline, cell_timeline, weekly_concurrency
from repro.core.connect_time import ConnectTimeResult, connect_time_analysis
from repro.core.handover import HandoverStats, handover_analysis
from repro.core.hograph import build_handover_graph, top_corridors
from repro.core.journeys import JourneyStats, reconstruct_journeys
from repro.core.mapreduce import MapReduceStats, analyze_shards_fused
from repro.core.matrices import (
    PeriodMasks,
    UsageMatrix,
    period_masks,
    usage_matrix,
)
from repro.core.odmatrix import ODMatrix, ZoneGrid, build_od_matrix
from repro.core.pipeline import AnalysisPipeline, AnalysisReport
from repro.core.preprocess import PreprocessConfig, PreprocessResult, preprocess
from repro.core.presence import DailyPresence, daily_presence, weekday_table
from repro.core.segmentation import CarSegmentation, days_on_network, segment_cars
from repro.core.stability import FleetStability, fleet_stability

__all__ = [
    "AnalysisPipeline",
    "AnalysisReport",
    "BehaviourClusters",
    "BusySchedule",
    "BusyCellClusters",
    "BusyExposure",
    "CarSegmentation",
    "FleetStability",
    "ODMatrix",
    "ZoneGrid",
    "CarrierUsage",
    "CellTimeline",
    "ConnectTimeResult",
    "DailyPresence",
    "HandoverStats",
    "JourneyStats",
    "MapReduceStats",
    "PeriodMasks",
    "PreprocessConfig",
    "PreprocessResult",
    "UsageMatrix",
    "analyze_shards_fused",
    "build_handover_graph",
    "build_od_matrix",
    "compare_reports",
    "fleet_stability",
    "format_comparison",
    "busy_exposure",
    "carrier_usage",
    "cluster_cars",
    "cell_timeline",
    "cluster_busy_cells",
    "connect_time_analysis",
    "daily_presence",
    "days_on_network",
    "handover_analysis",
    "period_masks",
    "preprocess",
    "reconstruct_journeys",
    "top_corridors",
    "segment_cars",
    "usage_matrix",
    "weekday_table",
    "weekly_concurrency",
]
