"""Diagonal (anti-chain) enumeration curve.

Cells are visited in order of increasing coordinate sum, ties broken
lexicographically (last axis most significant).  A classical ordering for
dense triangular storage; its NN-stretch is poor because within-diagonal
neighbors can be assigned distant keys — a useful contrast curve in the
A1 ablation.  Valid for any ``d`` and side.

Closed form.  With ``Q_a(j)`` the number of cells of the a-cube
``[0, s)^a`` whose coordinate sum is below ``j`` and ``R_a = x_0 + … +
x_a`` the partial sums, the key of ``x`` is

    ``Q_d(R_{d−1}) + Σ_{a=1}^{d−1} (Q_a(R_a + 1) − Q_a(R_{a−1} + 1))``:

the cells with a smaller sum, then, axis by axis from the most
significant, the cells of the same sum with a smaller digit on that
axis.  In 2-D that is triangular numbers,
``T(t) + y − max(0, t − s + 1)`` below the main anti-diagonal and
``n − T(2s − 1 − t) + …`` above it (``t = x + y``, ``T(j) = j(j+1)/2``).
For ``d ≥ 3`` the ``Q_a`` are bounded-composition counts, tabulated by
:func:`sum_prefix_tables`.
"""

from __future__ import annotations

import numpy as np

from repro.curves.base import SpaceFillingCurve, bisect_largest
from repro.grid.universe import Universe

__all__ = ["DiagonalCurve", "sum_prefix_tables"]


def sum_prefix_tables(d: int, side: int) -> np.ndarray:
    """``tables[a − 1, j] = Q_a(j)`` for ``a = 1..d``, ``j = 0..d(s−1)+1``.

    ``Q_a(j)`` counts the cells of ``[0, side)^a`` with coordinate sum
    ``< j``; ``N_{a+1}(u) = Q_a(u + 1) − Q_a(u + 1 − side)`` counts the
    sums equal to ``u`` one axis up.  Every entry is at most
    ``side^a <= n/side`` for ``a < d`` and at most ``n − 1`` for
    ``a = d``, so int64 holds them exactly — except ``Q_d(d(s−1)+1) =
    n``, which no key reads and is stored as ``Q_d(d(s−1))``.
    """
    width = d * (side - 1) + 2
    tables = np.zeros((d, width), dtype=np.int64)
    counts = np.zeros(width, dtype=np.int64)
    counts[:side] = 1
    upper = np.minimum(np.arange(1, width + 1), width - 1)
    lower = np.maximum(np.arange(1, width + 1) - side, 0)
    for a in range(d):
        last = width - 1 if a + 1 < d else width - 2
        np.cumsum(counts[:last], out=tables[a, 1 : last + 1])
        tables[a, last + 1 :] = tables[a, last]
        counts = tables[a, upper] - tables[a, lower]
    return tables


class DiagonalCurve(SpaceFillingCurve):
    """Anti-diagonal sweep curve."""

    name = "diagonal"

    def __init__(self, universe: Universe) -> None:
        super().__init__(universe)
        self._tables = None

    def sum_tables(self) -> np.ndarray:
        """:func:`sum_prefix_tables` of this universe (``d >= 3``), built
        on first use: ``O(d² · side)`` entries."""
        if self._tables is None:
            self._tables = sum_prefix_tables(
                self.universe.d, self.universe.side
            )
        return self._tables

    def _below(self, t: np.ndarray) -> np.ndarray:
        """2-D ``Q_2(t)``: the cells with coordinate sum ``< t``."""
        s, n = self.universe.side, self.universe.n
        low = t <= s
        j = np.where(low, t, 2 * s - 1 - t)
        triangle = j * (j + 1) // 2
        return np.where(low, triangle, n - triangle)

    def _index_impl(self, coords: np.ndarray) -> np.ndarray:
        d, s = self.universe.d, self.universe.side
        if d == 1:
            return coords[..., 0].copy()
        if d == 2:
            x, y = coords[..., 0], coords[..., 1]
            t = x + y
            return self._below(t) + y - np.maximum(t - s + 1, 0)
        q = self.sum_tables()
        partial = np.cumsum(coords, axis=-1)
        keys = q[d - 1][partial[..., d - 1]]
        for a in range(1, d):
            # Add the (non-negative) difference, so every partial sum
            # stays below the key and int64 never wraps.
            keys += q[a - 1][partial[..., a] + 1] - q[a - 1][
                partial[..., a - 1] + 1
            ]
        return keys

    def _coords_impl(self, index: np.ndarray) -> np.ndarray:
        d, s = self.universe.d, self.universe.side
        out = np.empty(index.shape + (d,), dtype=np.int64)
        if d == 1:
            out[..., 0] = index
            return out
        if d == 2:
            # t = the largest sum whose cells-below count <= key.
            t = bisect_largest(
                lambda mid: self._below(mid) <= index,
                np.zeros_like(index),
                np.full_like(index, 2 * (s - 1)),
            )
            y = index - self._below(t) + np.maximum(t - s + 1, 0)
            out[..., 0] = t - y
            out[..., 1] = y
            return out
        q = self.sum_tables()
        top = d * (s - 1)
        remaining = np.searchsorted(q[d - 1][: top + 1], index, "right") - 1
        rest = index - q[d - 1][remaining]
        for a in range(d - 1, 0, -1):
            row = q[a - 1]
            start = row[remaining + 1]
            # x_a = the largest digit whose same-sum cells with a smaller
            # digit on this axis number <= rest.
            digit = bisect_largest(
                lambda mid: start - row[remaining - mid + 1] <= rest,
                np.maximum(remaining - a * (s - 1), 0),
                np.minimum(remaining, s - 1),
            )
            rest = rest - (start - row[remaining - digit + 1])
            out[..., a] = digit
            remaining = remaining - digit
        out[..., 0] = remaining
        return out

