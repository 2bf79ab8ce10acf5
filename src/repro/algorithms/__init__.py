"""Generic algorithmic substrate: time binning, interval algebra, statistics,
and clustering primitives used throughout the reproduction.

These modules are deliberately dependency-light (numpy only) so that the
analysis pipeline in :mod:`repro.core` reads as a direct transcription of the
paper's methodology.
"""
