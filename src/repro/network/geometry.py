"""Planar geometry for the synthetic metro region.

The synthetic study area is a flat plane measured in kilometres; at metro
scale the curvature of the earth is irrelevant to every analysis in the paper,
so no geodesy is needed.  Base stations sit on a hexagonal grid (the classic
cellular layout), roads connect grid points, and cars move along roads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True, order=True)
class Point:
    """A location on the plane, in kilometres."""

    x: float
    y: float

    def __add__(self, other: "Point") -> "Point":
        return Point(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Point") -> "Point":
        return Point(self.x - other.x, self.y - other.y)

    def scaled(self, factor: float) -> "Point":
        """This point's position vector multiplied by ``factor``."""
        return Point(self.x * factor, self.y * factor)

    def norm(self) -> float:
        """Distance from the origin."""
        return math.hypot(self.x, self.y)


def distance(a: Point, b: Point) -> float:
    """Euclidean distance between two points in kilometres."""
    return math.hypot(a.x - b.x, a.y - b.y)


def bearing_deg(origin: Point, target: Point) -> float:
    """Compass-style bearing from ``origin`` to ``target`` in degrees.

    0 degrees points along +y ("north"), 90 along +x ("east"); the result is
    normalized to ``[0, 360)``.  Used to pick which ~120-degree sector of a
    base station serves a device.
    """
    angle = math.degrees(math.atan2(target.x - origin.x, target.y - origin.y))
    return angle % 360.0


def hex_grid(width: float, height: float, pitch: float) -> list[Point]:
    """Hexagonal lattice of points covering ``[0, width] x [0, height]``.

    ``pitch`` is the distance between horizontally adjacent points.  Rows are
    offset by half a pitch and separated by ``pitch * sqrt(3) / 2``, the
    standard cell-site layout.
    """
    if pitch <= 0:
        raise ValueError(f"pitch must be positive, got {pitch}")
    row_height = pitch * math.sqrt(3.0) / 2.0
    points: list[Point] = []
    row = 0
    y = 0.0
    while y <= height + 1e-9:
        offset = (pitch / 2.0) if row % 2 else 0.0
        x = offset
        while x <= width + 1e-9:
            points.append(Point(x, y))
            x += pitch
        row += 1
        y = row * row_height
    return points
