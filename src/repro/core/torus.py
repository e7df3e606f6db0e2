"""Stretch metrics on the d-dimensional *torus* (periodic boundaries).

HPC stencil codes often use periodic domains; the paper's universe is a
box.  On the torus every cell has exactly ``2d`` neighbors — the
boundary corrections (``h_2`` in Theorem 2's proof, ``U_2`` in Theorem
3's) disappear, but each axis gains ``side^{d−1}`` wraparound pairs
whose curve distance is typically large.

This module computes ``D^avg``/``D^max`` under the torus neighbor
structure, plus exact closed forms for the simple curve:

    ``D^avg_torus(S) = 2(n−1)/(d·side)``
    ``D^max_torus(S) = ((side−2) + 2(side−1))·side^{d−1}/side``

The Theorem 1 bound is stated for the box; since the torus only *adds*
neighbor pairs at distance ≥ the box pairs' (the wrap pairs), the
bench shows the box bound continues to hold for all tested curves.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING

import numpy as np

from repro.core.stretch import axis_pair_curve_distances
from repro.curves.base import SpaceFillingCurve
from repro.engine.context import get_context
from repro.grid.neighbors import axis_pair_index_arrays

if TYPE_CHECKING:  # pragma: no cover
    from repro.grid.universe import Universe

__all__ = [
    "wrap_pair_curve_distances",
    "average_average_nn_stretch_torus",
    "average_maximum_nn_stretch_torus",
    "lambda_sums_torus",
    "davg_torus_simple_exact",
    "dmax_torus_simple_exact",
]


def _require_torus(curve: SpaceFillingCurve) -> None:
    if curve.universe.side < 3:
        raise ValueError(
            "torus metrics need side >= 3 (side 2 wraps duplicate pairs)"
        )


def wrap_pair_curve_distances(
    curve: SpaceFillingCurve, axis: int
) -> np.ndarray:
    """``∆π`` for the wraparound pairs ``(x_i = side−1) ↔ (x_i = 0)``.

    Shape ``(side,)*(d−1)`` — one wrap pair per grid line along ``axis``.
    """
    universe = curve.universe
    if not 0 <= axis < universe.d:
        raise ValueError(f"axis must be in [0, {universe.d})")
    grid = get_context(curve).key_grid()
    first = tuple(
        0 if i == axis else slice(None) for i in range(universe.d)
    )
    last = tuple(
        universe.side - 1 if i == axis else slice(None)
        for i in range(universe.d)
    )
    return np.abs(grid[last] - grid[first])


def lambda_sums_torus(curve: SpaceFillingCurve) -> np.ndarray:
    """Per-axis total NN curve distance including the wrap pairs."""
    _require_torus(curve)
    out = []
    for axis in range(curve.universe.d):
        interior = int(axis_pair_curve_distances(curve, axis).sum())
        wrap = int(wrap_pair_curve_distances(curve, axis).sum())
        out.append(interior + wrap)
    return np.array(out, dtype=np.int64)


def _per_cell_torus(
    curve: SpaceFillingCurve,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell (sum of ∆π over torus neighbors, max ∆π)."""
    universe = curve.universe
    sums = np.zeros(universe.shape, dtype=np.int64)
    best = np.zeros(universe.shape, dtype=np.int64)
    for axis in range(universe.d):
        dist = axis_pair_curve_distances(curve, axis)
        lo, hi = axis_pair_index_arrays(universe, axis)
        sums[lo] += dist
        sums[hi] += dist
        np.maximum(best[lo], dist, out=best[lo])
        np.maximum(best[hi], dist, out=best[hi])
        wrap = wrap_pair_curve_distances(curve, axis)
        first = tuple(
            0 if i == axis else slice(None) for i in range(universe.d)
        )
        last = tuple(
            universe.side - 1 if i == axis else slice(None)
            for i in range(universe.d)
        )
        sums[first] += wrap
        sums[last] += wrap
        # Assignment form: integer indices (d == 1) yield scalars that
        # cannot serve as an `out=` buffer.
        best[first] = np.maximum(best[first], wrap)
        best[last] = np.maximum(best[last], wrap)
    return sums, best


def average_average_nn_stretch_torus(curve: SpaceFillingCurve) -> float:
    """``D^avg`` with periodic neighbors (every ``|N(α)| = 2d``)."""
    _require_torus(curve)
    sums, _ = _per_cell_torus(curve)
    return float(sums.mean() / (2 * curve.universe.d))


def average_maximum_nn_stretch_torus(curve: SpaceFillingCurve) -> float:
    """``D^max`` with periodic neighbors."""
    _require_torus(curve)
    _, best = _per_cell_torus(curve)
    return float(best.mean())


def davg_torus_simple_exact(universe: "Universe") -> Fraction:
    """Closed form: ``D^avg_torus(S) = 2(n−1)/(d·side)``.

    Per axis i, each cycle of ``side`` cells carries ``side−1`` unit
    edges of curve distance ``side^{i−1}`` plus one wrap edge of
    distance ``(side−1)·side^{i−1}`` — summing the geometric series
    telescopes to the formula.
    """
    if universe.side < 3:
        raise ValueError("need side >= 3")
    return Fraction(2 * (universe.n - 1), universe.d * universe.side)


def dmax_torus_simple_exact(universe: "Universe") -> Fraction:
    """Closed form: ``D^max_torus(S) = (3·side − 4)/side · side^{d−1}``.

    A fraction ``2/side`` of cells touch the axis-d wrap (max distance
    ``(side−1)·side^{d−1}``); the rest keep ``side^{d−1}``.
    """
    side = universe.side
    if side < 3:
        raise ValueError("need side >= 3")
    step = side ** (universe.d - 1)
    total = (side - 2) * step + 2 * (side - 1) * step
    return Fraction(total, side)
