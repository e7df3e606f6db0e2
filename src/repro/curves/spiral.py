"""2-D inward spiral ("onion") curve.

Visits the outer ring of the grid counter-clockwise starting at the
origin corner, then recurses inward.  Continuous for every side (each
ring ends adjacent to the next ring's start); a classical ordering with
locality characteristics very different from recursive curves.

Closed form on side ``s``: cell ``(x, y)`` lies on ring
``r = min(x, y, s−1−x, s−1−y)``, whose ``L = s − 2r`` cells per edge
start at key ``4r(s−r)`` (the cells of the outer rings).  Along the
ring the key grows by one per step: the bottom and right edges
(``x ≥ y``) sit at offset ``(x−r) + (y−r)``, the top and left edges
walk back at offset ``4(L−1) − (x−r) − (y−r)``.
"""

from __future__ import annotations

import numpy as np

from repro.curves.base import SpaceFillingCurve, bisect_largest
from repro.grid.universe import Universe

__all__ = ["SpiralCurve"]


class SpiralCurve(SpaceFillingCurve):
    """Inward spiral; requires ``d == 2``, any side."""

    name = "spiral"

    def __init__(self, universe: Universe) -> None:
        super().__init__(universe)
        if universe.d != 2:
            raise ValueError("SpiralCurve is implemented for d == 2 only")

    def _index_impl(self, coords: np.ndarray) -> np.ndarray:
        s = self.universe.side
        x, y = coords[..., 0], coords[..., 1]
        ring = np.minimum(np.minimum(x, y), s - 1 - np.maximum(x, y))
        walked = x + y - 2 * ring
        back = 4 * (s - 2 * ring - 1) - walked
        return 4 * ring * (s - ring) + np.where(x >= y, walked, back)

    def _coords_impl(self, index: np.ndarray) -> np.ndarray:
        s = self.universe.side
        # The ring: the largest r whose start 4r(s-r) <= key.
        ring = bisect_largest(
            lambda mid: 4 * mid * (s - mid) <= index,
            np.zeros_like(index),
            np.full_like(index, (s - 1) // 2),
        )
        offset = index - 4 * ring * (s - ring)
        edge = s - 2 * ring - 1
        # Offsets up to 2·edge walk the bottom then the right edge; the
        # rest walk the top then the left edge back to the ring start.
        forward = offset <= 2 * edge
        walked = np.where(forward, offset, 4 * edge - offset)
        near = ring + np.minimum(walked, edge)
        far = ring + np.maximum(walked - edge, 0)
        out = np.empty(index.shape + (2,), dtype=np.int64)
        out[..., 0] = np.where(forward, near, far)
        out[..., 1] = np.where(forward, far, near)
        return out
