"""Managed FOTA (firmware-over-the-air) campaign planning.

Section 4.3 of the paper sketches how its car segmentation should drive FOTA
management: "rare cars would be prioritized over the limited FOTA campaign
window, and common cars would be perhaps randomized or scheduled depending on
the typical time they connect", and pushing a large download into an already
loaded cell is "pouring oil onto the fire".  This package turns that sketch
into code: delivery policies, a campaign simulator that replays a trace, and
impact metrics (completion rate, time-to-complete, bytes delivered through
busy cells).
"""
