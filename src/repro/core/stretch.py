"""Exact nearest-neighbor stretch metrics (Definitions 1–4, Lemma 5 groups).

All computations run on the dense key grid and per-axis slice views, so
the cost is ``O(d · n)`` with NumPy-vectorized inner loops — exact values,
no sampling.

Definitions (Section III):

* ``δ^avg_π(α) = (Σ_{β∈N(α)} ∆π(α,β)) / |N(α)|``
* ``D^avg(π)  = (1/n) Σ_α δ^avg_π(α)``   (average-average NN-stretch)
* ``δ^max_π(α) = max_{β∈N(α)} ∆π(α,β)``
* ``D^max(π)  = (1/n) Σ_α δ^max_π(α)``   (average-maximum NN-stretch)

Lemma 5 machinery: ``G_i`` is the set of NN pairs differing along the
paper's dimension ``i`` and ``Λ_i(π) = Σ_{(α,β)∈G_i} ∆π(α,β)``;
``G_{i,j} ⊂ G_i`` collects pairs whose lower coordinate ``κ`` has exactly
``j−1`` trailing one bits.

The functions below are thin wrappers over the shared per-curve
:class:`repro.engine.MetricContext` (via
:func:`repro.engine.get_context`): repeated metric calls on the same
curve object reuse the cached key grid, neighbor counts and NN fold
result instead of rebuilding them.  Array results are cached
and therefore returned **read-only** — copy before mutating.
"""

from __future__ import annotations

import numpy as np

from repro.curves.base import SpaceFillingCurve
from repro.engine.context import get_context

__all__ = [
    "axis_pair_curve_distances",
    "lambda_sums",
    "nn_distance_values",
    "per_cell_stretch_sums",
    "per_cell_avg_stretch",
    "per_cell_max_stretch",
    "average_average_nn_stretch",
    "average_maximum_nn_stretch",
    "gij_decomposition",
    "trailing_ones",
]


def axis_pair_curve_distances(
    curve: SpaceFillingCurve, axis: int
) -> np.ndarray:
    """``∆π`` for every NN pair along ``axis`` (the group ``G_{axis+1}``).

    Returns an array of shape ``(side,)*(axis) + (side−1,) + …`` aligned
    with the lower endpoint of each pair.
    """
    return get_context(curve).axis_pair_curve_distances(axis)


def lambda_sums(curve: SpaceFillingCurve) -> np.ndarray:
    """``[Λ_1(π), …, Λ_d(π)]``: per-dimension total NN curve distance."""
    return get_context(curve).lambda_sums()


def nn_distance_values(curve: SpaceFillingCurve) -> np.ndarray:
    """Flat array of ``∆π`` over all unordered NN pairs (each once).

    Powers the distribution analysis (quantiles, recall-vs-window for the
    N-body substrate).
    """
    return get_context(curve).nn_distance_values()


def per_cell_stretch_sums(
    curve: SpaceFillingCurve,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell ``(Σ_{β∈N(α)} ∆π(α,β), |N(α)|)`` as dense grids."""
    return get_context(curve).per_cell_stretch_sums()


def per_cell_avg_stretch(curve: SpaceFillingCurve) -> np.ndarray:
    """Dense grid of ``δ^avg_π(α)`` (Definition 1)."""
    return get_context(curve).per_cell_avg_stretch()


def per_cell_max_stretch(curve: SpaceFillingCurve) -> np.ndarray:
    """Dense grid of ``δ^max_π(α)`` (Definition 3)."""
    return get_context(curve).per_cell_max_stretch()


def average_average_nn_stretch(curve: SpaceFillingCurve) -> float:
    """``D^avg(π)`` (Definition 2), computed exactly."""
    return get_context(curve).davg()


def average_maximum_nn_stretch(curve: SpaceFillingCurve) -> float:
    """``D^max(π)`` (Definition 4), computed exactly."""
    return get_context(curve).dmax()


def trailing_ones(values: np.ndarray) -> np.ndarray:
    """Number of trailing 1 bits of each value (vectorized).

    ``trailing_ones(κ) = j − 1`` identifies the Lemma 5 group ``G_{i,j}``
    of the pair ``(κ, κ+1)``.
    """
    arr = np.asarray(values, dtype=np.int64)
    flipped = ~arr  # trailing ones of v = trailing zeros of ~v
    # Trailing zeros via isolating the lowest set bit: ~v & (v+1) has a
    # single bit at the position of the first 0 bit of v.
    lowest = flipped & (arr + 1)
    # log2 of a power of two; lowest >= 1 always (int64 has a 0 bit).
    return np.round(np.log2(lowest.astype(np.float64))).astype(np.int64)


def gij_decomposition(
    curve: SpaceFillingCurve, axis: int
) -> dict[int, tuple[int, np.ndarray]]:
    """Split ``G_{axis+1}`` into the Lemma 5 groups ``G_{i,j}``.

    Returns ``{j: (count, distances)}`` where ``distances`` holds the
    ``∆π`` values of the group's pairs.  For the Z curve, every distance
    within a group is the same constant (Lemma 5's key observation) —
    asserted in the tests.
    """
    return get_context(curve).gij_decomposition(axis)
