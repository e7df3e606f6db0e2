"""The 2-D Moore curve — a *closed* Hilbert loop.

Four order-(k−1) Hilbert curves arranged around the square: the two
left quadrants rotated 90° counter-clockwise (flowing upward), the two
right quadrants rotated 90° clockwise (flowing downward).  The result
is a Hamiltonian *cycle*: the last cell is grid-adjacent to the first,
which matters for ring-style decompositions (no worst seam).

With ``H`` the order-(k−1) Hilbert curve on side ``s = 2^{k−1}``
(start ``(0,0)``, end ``(s−1,0)``), quadrant ``q`` visits its cells in
the keys ``[q·s², (q+1)·s²)``:

    ``M_k = [ CCW(H),  CCW(H)+(0,s),  CW(H)+(s,s),  CW(H)+(s,0) ]``

where ``CCW(x,y) = (s−1−y, x)`` and ``CW(x,y) = (y, s−1−x)``.  So the
key of a cell with quadrant-local coordinates ``(u, v)`` is
``q·s² + H(v, s−1−u)`` in the left half and ``q·s² + H(s−1−v, u)`` in
the right half: one axis swap and one flip per half.  Continuity at the
three interior joints and closedness of the loop are verified by tests.
"""

from __future__ import annotations

import numpy as np

from repro.curves.base import SpaceFillingCurve
from repro.curves.hilbert import axes_to_transpose, transpose_to_axes
from repro.curves.zcurve import deinterleave_bits, interleave_bits
from repro.grid.universe import Universe

__all__ = ["MooreCurve"]


class MooreCurve(SpaceFillingCurve):
    """Closed Hilbert loop; requires ``d == 2`` and ``side = 2^k, k>=1``."""

    name = "moore"

    def __init__(self, universe: Universe) -> None:
        super().__init__(universe)
        if universe.d != 2:
            raise ValueError("MooreCurve is implemented for d == 2 only")
        k = universe.k
        if k < 1:
            raise ValueError(f"Moore curve needs k >= 1, got {k}")
        self._k = k

    def _index_impl(self, coords: np.ndarray) -> np.ndarray:
        h = self._k - 1
        s = 1 << h
        x, y = coords[..., 0], coords[..., 1]
        right, top = x >= s, y >= s
        u, v = x - s * right, y - s * top
        local = np.stack(
            [np.where(right, s - 1 - v, v), np.where(right, u, s - 1 - u)],
            axis=-1,
        )
        # Quadrants 0, 1 up the left half, 2, 3 down the right half.
        quadrant = np.where(right, 3 - top, top)
        keys = interleave_bits(axes_to_transpose(local, h), h)
        return quadrant * (s * s) + keys

    def _coords_impl(self, index: np.ndarray) -> np.ndarray:
        h = self._k - 1
        s = 1 << h
        quadrant, keys = np.divmod(index, s * s)
        local = transpose_to_axes(deinterleave_bits(keys, 2, h), h)
        a, b = local[..., 0], local[..., 1]
        right = quadrant >= 2
        top = (quadrant == 1) | (quadrant == 2)
        out = np.empty(index.shape + (2,), dtype=np.int64)
        out[..., 0] = np.where(right, b, s - 1 - b) + s * right
        out[..., 1] = np.where(right, s - 1 - a, a) + s * top
        return out

    def is_closed(self) -> bool:
        """True iff the last visited cell is grid-adjacent to the first.

        Decodes the two end keys only, not the whole order.
        """
        first, last = self.coords(np.array([0, self.universe.n - 1]))
        return int(np.abs(last - first).sum()) == 1
