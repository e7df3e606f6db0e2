"""Table builders kept as oracles of the closed-form curves.

Moore, spiral and diagonal once built their key tables from these visit
orders.  The curves now compute keys in closed form (NumPy reference
and native slabs); the parity tests compare both against these
independent constructions.
"""

from __future__ import annotations

import numpy as np

from repro.curves.hilbert2d import hilbert2d_order
from repro.grid.universe import Universe


def moore_order(k: int) -> np.ndarray:
    """Visit order of the order-k Moore curve, shape ``(4^k, 2)``."""
    if k < 1:
        raise ValueError(f"Moore curve needs k >= 1, got {k}")
    sub = hilbert2d_order(k - 1)
    s = 1 << (k - 1)
    ccw = np.stack([s - 1 - sub[:, 1], sub[:, 0]], axis=1)
    cw = np.stack([sub[:, 1], s - 1 - sub[:, 0]], axis=1)
    quadrants = [
        ccw,
        ccw + np.array([0, s]),
        cw + np.array([s, s]),
        cw + np.array([s, 0]),
    ]
    return np.concatenate(quadrants)


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


def diagonal_key_grid(universe: Universe) -> np.ndarray:
    """The diagonal curve's key grid by a stable argsort of the sums.

    Visit order: by coordinate sum, ties by ``(x_d, ..., x_1)`` — which
    is rank order, so a stable sort of the per-rank sums yields it.
    (The sum is symmetric in the axes, so the C-order flattening of the
    grid of sums is also its rank-order flattening.)
    """
    sums = sum(universe.coordinate_grids()).reshape(-1)
    visit = np.argsort(sums, kind="stable")
    # ``visit[j]`` is the rank of the cell visited j-th: scatter the
    # keys straight into rank order.
    flat = np.empty(universe.n, dtype=np.int64)
    flat[visit] = np.arange(universe.n, dtype=np.int64)
    return np.ascontiguousarray(flat.reshape(universe.shape, order="F"))


def order_key_grid(universe: Universe, order: np.ndarray) -> np.ndarray:
    """The C-order key grid of a visit order (``order[j]`` gets key j)."""
    grid = np.empty(universe.shape, dtype=np.int64)
    grid[tuple(order.T)] = np.arange(universe.n, dtype=np.int64)
    return grid
