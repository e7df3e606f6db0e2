"""Tests for the diagonal (anti-chain) curve."""

import numpy as np
import pytest

from repro import Universe
from repro.curves.base import PermutationCurve
from repro.curves.diagonal import DiagonalCurve


class TestDiagonalCurve:
    @pytest.mark.parametrize("d,side", [(1, 6), (2, 4), (3, 3)])
    def test_bijection(self, d, side):
        assert DiagonalCurve(Universe(d=d, side=side)).is_bijection()

    def test_visits_by_increasing_coordinate_sum(self):
        u = Universe(d=2, side=4)
        order = DiagonalCurve(u).order()
        sums = order.sum(axis=1)
        assert np.all(np.diff(sums) >= 0)

    def test_2d_order_start(self):
        order = DiagonalCurve(Universe(d=2, side=3)).order()
        assert [tuple(r) for r in order[:4]] == [
            (0, 0), (1, 0), (0, 1), (2, 0),
        ]

    def test_roundtrip(self):
        u = Universe(d=2, side=5)
        c = DiagonalCurve(u)
        idx = np.arange(u.n)
        assert np.array_equal(c.index(c.coords(idx)), idx)

    def test_diagonal_counts(self):
        """Cells per key block match the anti-diagonal sizes."""
        u = Universe(d=2, side=3)
        order = DiagonalCurve(u).order()
        sums = order.sum(axis=1).tolist()
        # Diagonal sizes on a 3x3 grid: 1,2,3,2,1.
        assert sums == [0, 1, 1, 2, 2, 2, 3, 3, 4]

    def test_not_continuous(self):
        assert not DiagonalCurve(Universe(d=2, side=4)).is_continuous()

    @pytest.mark.parametrize(
        "d,side",
        [(1, 1), (1, 7), (2, 1), (2, 5), (2, 16), (3, 4), (3, 7), (4, 3)],
    )
    def test_table_equals_order_built(self, d, side):
        """The directly scattered key table equals the one built from
        the lexsorted visit order through ``PermutationCurve(order=)``."""
        u = Universe(d=d, side=side)
        cells = u.all_coords()
        keys = tuple(cells[:, i] for i in range(d)) + (cells.sum(axis=1),)
        reference = PermutationCurve(u, order=cells[np.lexsort(keys)])
        grid = DiagonalCurve(u).key_grid()
        assert grid.dtype == np.int64 and grid.flags["C_CONTIGUOUS"]
        assert np.array_equal(grid, reference.key_grid())
