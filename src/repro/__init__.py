"""Reproduction of "Connected cars in cellular network: A measurement study"
(Andrade et al., IMC 2017).

The library has three layers:

* **substrates** — a synthetic cellular network (:mod:`repro.network`), road
  and mobility models (:mod:`repro.mobility`), CDR data structures
  (:mod:`repro.cdr`) and generic algorithms (:mod:`repro.algorithms`);
* **trace generation** (:mod:`repro.simulate`) — the stand-in for the paper's
  proprietary data set of 1.1 billion radio connections;
* **analysis** (:mod:`repro.core`) — the paper's methodology, one module per
  analysis, plus a pipeline producing every table and figure.

Extensions in :mod:`repro.fota` (managed FOTA campaign planning) and
:mod:`repro.prediction` (per-car appearance prediction) build on the
analyses, implementing the management strategies the paper motivates.

Quickstart::

    from repro import SimulationConfig, TraceGenerator, AnalysisPipeline
    from repro.core.report import format_report

    dataset = TraceGenerator(SimulationConfig(n_cars=200)).generate()
    pipeline = AnalysisPipeline(
        dataset.clock, dataset.load_model, dataset.topology.cells
    )
    print(format_report(pipeline.run(dataset.batch)))
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.algorithms.timebins import StudyClock
    from repro.cdr.records import CDRBatch, ConnectionRecord
    from repro.core.fused import AnalysisReport
    from repro.core.pipeline import AnalysisPipeline
    from repro.simulate.config import SimulationConfig
    from repro.simulate.generator import TraceDataset, TraceGenerator

__version__ = "1.0.0"

#: Each top-level name and the module that defines it.  A name's module is
#: imported on first access (PEP 562), so importing a ``repro`` submodule
#: never loads the trace generator along with this package.
_HOMES = {
    "AnalysisPipeline": "repro.core.pipeline",
    "AnalysisReport": "repro.core.fused",
    "CDRBatch": "repro.cdr.records",
    "ConnectionRecord": "repro.cdr.records",
    "SimulationConfig": "repro.simulate.config",
    "StudyClock": "repro.algorithms.timebins",
    "TraceDataset": "repro.simulate.generator",
    "TraceGenerator": "repro.simulate.generator",
}

__all__ = [
    "AnalysisPipeline",
    "AnalysisReport",
    "CDRBatch",
    "ConnectionRecord",
    "SimulationConfig",
    "StudyClock",
    "TraceDataset",
    "TraceGenerator",
    "__version__",
]


def __getattr__(name: str) -> object:
    """A top-level name, looked up in the module :data:`_HOMES` names."""
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(home), name)
