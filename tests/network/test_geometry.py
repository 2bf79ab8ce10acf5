"""Unit tests for planar geometry."""

import math

import pytest

from repro.network.geometry import Point, bearing_deg, distance, hex_grid


class TestPoint:
    def test_add_sub(self):
        assert Point(1, 2) + Point(3, 4) == Point(4, 6)
        assert Point(3, 4) - Point(1, 1) == Point(2, 3)

    def test_scaled(self):
        assert Point(2, -3).scaled(2) == Point(4, -6)

    def test_norm(self):
        assert Point(3, 4).norm() == pytest.approx(5.0)


class TestDistance:
    def test_zero(self):
        assert distance(Point(1, 1), Point(1, 1)) == 0

    def test_pythagoras(self):
        assert distance(Point(0, 0), Point(3, 4)) == pytest.approx(5.0)

    def test_symmetry(self):
        a, b = Point(1, 7), Point(-2, 3)
        assert distance(a, b) == distance(b, a)


class TestBearing:
    def test_north(self):
        assert bearing_deg(Point(0, 0), Point(0, 1)) == pytest.approx(0.0)

    def test_east(self):
        assert bearing_deg(Point(0, 0), Point(1, 0)) == pytest.approx(90.0)

    def test_south(self):
        assert bearing_deg(Point(0, 0), Point(0, -1)) == pytest.approx(180.0)

    def test_west(self):
        assert bearing_deg(Point(0, 0), Point(-1, 0)) == pytest.approx(270.0)

    def test_range(self):
        for angle in range(0, 360, 15):
            p = Point(math.sin(math.radians(angle)), math.cos(math.radians(angle)))
            b = bearing_deg(Point(0, 0), p)
            assert 0 <= b < 360
            assert b == pytest.approx(angle % 360, abs=1e-6)


class TestHexGrid:
    def test_rejects_bad_pitch(self):
        with pytest.raises(ValueError):
            hex_grid(10, 10, 0)

    def test_covers_region(self):
        pts = hex_grid(10, 10, 2)
        assert all(0 <= p.x <= 10 and 0 <= p.y <= 10 for p in pts)
        assert len(pts) > 20

    def test_row_offset(self):
        pts = hex_grid(10, 10, 2)
        row0 = sorted(p.x for p in pts if p.y == 0)
        assert row0[0] == 0
        row1_y = min(p.y for p in pts if p.y > 0)
        row1 = sorted(p.x for p in pts if p.y == row1_y)
        assert row1[0] == pytest.approx(1.0)  # half a pitch offset

    def test_neighbor_spacing(self):
        pts = hex_grid(20, 20, 4)
        d01 = distance(pts[0], pts[1])
        assert d01 == pytest.approx(4.0)

    def test_denser_pitch_more_points(self):
        assert len(hex_grid(20, 20, 2)) > len(hex_grid(20, 20, 5))
