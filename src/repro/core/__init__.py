"""The paper's analysis methodology (Sections 3 and 4).

Each module transcribes one analysis of the paper; ``pipeline`` runs them all
over a CDR batch plus cell-load series and produces an
:class:`~repro.core.fused.AnalysisReport` whose fields map one-to-one onto
the paper's tables and figures.
"""
