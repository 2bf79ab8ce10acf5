"""Road network, trips and car movement.

The paper's cars connect to the network almost exclusively while driving
(their modems power up with the engine).  This package supplies the driving:
a grid-with-highways road graph over the same plane as the radio topology,
cached shortest-path routing, per-car behaviour profiles that emit trip
schedules over the 90-day study, and movement along routes that yields the
sequence of radio sectors a car traverses with entry/exit times.
"""
