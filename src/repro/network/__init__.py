"""Cellular network substrate: geometry, radio topology, diurnal load and a
PRB scheduler.

The paper's measurements come from a production LTE/3G network.  This package
models the pieces of that network the analyses depend on: base stations split
into ~120-degree sectors, each sector hosting one cell per radio carrier
(frequency band), per-cell Physical Resource Block (PRB) utilization in
15-minute bins, and a simple PRB scheduler used to reproduce the Figure 1
saturation experiment.
"""
