"""Synthetic trace generation.

The paper's data set — 1.1 billion radio connections from one million cars —
is proprietary.  This package synthesizes the closest equivalent: a fleet of
cars with heterogeneous behaviour profiles drives trips over a road network,
their radio modems attach to the synthetic cellular topology while the engine
runs, and every radio connection is emitted as a CDR.  Realistic measurement
artifacts (exactly-one-hour ghost records, stuck modems that fail to
disconnect, days of partial data loss) are injected so the paper's
preprocessing steps (Section 3) have something real to clean.
"""
