"""Tests for the 2-D inward spiral curve."""

import numpy as np
import pytest
from curve_oracles import spiral_order

from repro import Universe
from repro.curves.spiral import SpiralCurve


def _spiral_order_loop(side):
    """The original per-cell loop, kept as the oracle of the vectorized
    :func:`spiral_order`."""
    cells = []
    for ring in range((side + 1) // 2):
        hi = side - 1 - ring
        if ring == hi:
            cells.append((ring, ring))
            continue
        for x in range(ring, hi + 1):
            cells.append((x, ring))
        for y in range(ring + 1, hi + 1):
            cells.append((hi, y))
        for x in range(hi - 1, ring - 1, -1):
            cells.append((x, hi))
        for y in range(hi - 1, ring, -1):
            cells.append((ring, y))
    return np.asarray(cells, dtype=np.int64)


class TestSpiralOrder:
    @pytest.mark.parametrize("side", list(range(1, 41)) + [1024])
    def test_equals_loop_oracle(self, side):
        order = spiral_order(side)
        expected = _spiral_order_loop(side)
        assert order.dtype == expected.dtype
        assert order.shape == expected.shape
        assert np.array_equal(order, expected)

    def test_side_one(self):
        assert spiral_order(1).tolist() == [[0, 0]]

    def test_side_two(self):
        assert [tuple(r) for r in spiral_order(2)] == [
            (0, 0), (1, 0), (1, 1), (0, 1),
        ]

    def test_side_three(self):
        order = [tuple(r) for r in spiral_order(3)]
        assert order == [
            (0, 0), (1, 0), (2, 0), (2, 1), (2, 2),
            (1, 2), (0, 2), (0, 1), (1, 1),
        ]

    @pytest.mark.parametrize("side", [2, 3, 4, 5, 8, 9])
    def test_continuous_and_complete(self, side):
        order = spiral_order(side)
        assert len({tuple(r) for r in order}) == side * side
        steps = np.abs(np.diff(order, axis=0)).sum(axis=1)
        assert np.all(steps == 1)

    def test_rejects_bad_side(self):
        with pytest.raises(ValueError):
            spiral_order(0)

    def test_outer_ring_first(self):
        order = spiral_order(5)
        ring_of = 5 * 5 - (5 - 2) * (5 - 2)  # outer ring size = 16
        outer = order[:ring_of]
        assert np.all(
            (outer == 0).any(axis=1) | (outer == 4).any(axis=1)
        )


class TestSpiralCurve:
    def test_bijection_continuity(self):
        c = SpiralCurve(Universe(d=2, side=6))
        assert c.is_bijection()
        assert c.is_continuous()

    def test_rejects_3d(self):
        with pytest.raises(ValueError, match="d == 2"):
            SpiralCurve(Universe(d=3, side=4))

    def test_roundtrip(self):
        u = Universe(d=2, side=7)
        c = SpiralCurve(u)
        idx = np.arange(u.n)
        assert np.array_equal(c.index(c.coords(idx)), idx)

    def test_center_is_last_for_odd_side(self):
        c = SpiralCurve(Universe(d=2, side=5))
        assert c.order()[-1].tolist() == [2, 2]
