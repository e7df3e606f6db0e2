"""2-D inward spiral ("onion") curve.

Visits the outer ring of the grid counter-clockwise starting at the
origin corner, then recurses inward.  Continuous for every side (each
ring ends adjacent to the next ring's start); a classical ordering with
locality characteristics very different from recursive curves.
"""

from __future__ import annotations

import numpy as np

from repro.curves.base import PermutationCurve
from repro.grid.universe import Universe

__all__ = ["SpiralCurve", "spiral_order"]


def spiral_order(side: int) -> np.ndarray:
    """Visit order of the inward spiral on a ``side × side`` grid."""
    if side < 1:
        raise ValueError(f"side must be >= 1, got {side}")
    out = np.empty((side * side, 2), dtype=np.int64)
    pos = 0
    for ring in range((side + 1) // 2):
        hi = side - 1 - ring
        if ring == hi:
            out[pos] = ring
            pos += 1
            continue
        up = np.arange(ring, hi + 1, dtype=np.int64)
        edges = (
            (up, ring),  # bottom edge: left -> right
            (hi, up[1:]),  # right edge: bottom -> top
            (up[-2::-1], hi),  # top edge: right -> left
            # Left edge: top -> bottom, stopping above the ring start so
            # the walk ends adjacent to the next ring's start.
            (ring, up[-2:0:-1]),
        )
        for xs, ys in edges:
            count = np.broadcast(xs, ys).size
            out[pos : pos + count, 0] = xs
            out[pos : pos + count, 1] = ys
            pos += count
    return out


class SpiralCurve(PermutationCurve):
    """Inward spiral; requires ``d == 2``, any side."""

    name = "spiral"
    _deterministic = True  # mapping pinned by type + universe

    def __init__(self, universe: Universe) -> None:
        if universe.d != 2:
            raise ValueError("SpiralCurve is implemented for d == 2 only")
        super().__init__(
            universe, order=spiral_order(universe.side), name=self.name
        )
