"""Diagonal (anti-chain) enumeration curve.

Cells are visited in order of increasing coordinate sum, ties broken
lexicographically (last axis most significant).  A classical ordering for
dense triangular storage; its NN-stretch is poor because within-diagonal
neighbors can be assigned distant keys — a useful contrast curve in the
A1 ablation.  Valid for any ``d`` and side.
"""

from __future__ import annotations

import numpy as np

from repro.curves.base import PermutationCurve
from repro.grid.universe import Universe

__all__ = ["DiagonalCurve"]


class DiagonalCurve(PermutationCurve):
    """Anti-diagonal sweep curve."""

    name = "diagonal"
    _deterministic = True  # mapping pinned by type + universe

    def __init__(self, universe: Universe) -> None:
        # Visit order: by coordinate sum, ties by (x_d, ..., x_1) — which
        # is rank order, so a stable sort of the per-rank sums yields it.
        # (The sum is symmetric in the axes, so the C-order flattening of
        # the grid of sums is also its rank-order flattening.)
        sums = sum(universe.coordinate_grids()).reshape(-1)
        visit = np.argsort(sums, kind="stable")
        # ``visit[j]`` is the rank of the cell visited j-th: scatter the
        # keys straight into rank order.
        flat = np.empty(universe.n, dtype=np.int64)
        flat[visit] = np.arange(universe.n, dtype=np.int64)
        grid = np.ascontiguousarray(flat.reshape(universe.shape, order="F"))
        super().__init__(universe, key_grid=grid, name=self.name)
