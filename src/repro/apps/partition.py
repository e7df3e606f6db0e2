"""SFC-based parallel domain decomposition.

The classic HPC use of SFCs: order the cells (or their work weights)
along the curve and cut the order into ``p`` contiguous segments, one per
processor.  Quality measures:

* **load imbalance** — ``max part weight / mean part weight``;
* **edge cut** — number of grid NN pairs whose endpoints land in
  different parts (proxy for communication volume).  A curve with small
  NN-stretch keeps neighbors in the same segment, so the stretch metrics
  of the paper directly control this cost (bench A3).

Curve-consuming entry points accept a curve or a
:class:`repro.engine.MetricContext`; the key grid comes from the
context's cache.  ``"partition:parts=8"`` is also a registered sweep
metric (:data:`repro.engine.METRICS`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.engine.context import get_context
from repro.grid.neighbors import axis_pair_index_arrays

__all__ = [
    "part_surface_counts",
    "mean_surface_to_volume",
    "partition_by_curve",
    "load_imbalance",
    "edge_cut",
    "PartitionQuality",
    "partition_quality",
]


def partition_by_curve(
    curve,
    n_parts: int,
    weights: np.ndarray | None = None,
) -> np.ndarray:
    """Assign every cell to one of ``n_parts`` contiguous curve segments.

    Parameters
    ----------
    curve:
        The ordering SFC (or its :class:`repro.engine.MetricContext`).
    n_parts:
        Number of processors; must satisfy ``1 <= n_parts <= n``.
    weights:
        Optional per-cell non-negative work weights (dense grid shape).
        Cuts are placed greedily so each prefix reaches its proportional
        share — the standard 1-D chains-on-chains heuristic used by SFC
        partitioners.  Uniform weights give equal-count segments.

    Returns
    -------
    Dense grid of part labels in ``[0, n_parts)``.

    The label grid is assembled slab by slab off the key-slab iterator
    (a dense context yields one slab, its key grid; a chunked one never
    builds a dense *key* grid).  The labels — like the weights — are
    inherently ``O(n)``; asking for the label grid is asking for a
    dense array.  Each cell's label depends only on its own key, so the
    result is bit-for-bit the same in every mode.
    """
    ctx = get_context(curve)
    universe = ctx.universe
    n = universe.n
    if not 1 <= n_parts <= n:
        raise ValueError(f"n_parts must be in [1, {n}], got {n_parts}")
    labels_along_curve = _labels_along_curve(ctx, n_parts, weights)
    labels = np.empty(universe.shape, dtype=np.int64)
    for lo, hi, slab in ctx.iter_key_slabs():
        labels[lo:hi] = labels_along_curve[slab]
    return labels


def _labels_along_curve(
    ctx, n_parts: int, weights: np.ndarray | None
) -> np.ndarray:
    """Part label of each curve position (the 1-D cut of the order).

    The weighted scatter (grid weights → curve-order weights) runs slab
    by slab; every element lands at the same position with the same
    value whatever the slab partition, so every mode produces the
    identical label array.
    """
    universe = ctx.universe
    n = universe.n
    equal_count = (np.arange(n, dtype=np.int64) * n_parts) // n
    if weights is None:
        # Equal-count split of the curve order.
        return equal_count
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != universe.shape:
        raise ValueError(
            f"weights shape {w.shape} != universe {universe.shape}"
        )
    if np.any(w < 0):
        raise ValueError("weights must be non-negative")
    order_weights = np.empty(n, dtype=np.float64)
    for lo, hi, slab in ctx.iter_key_slabs():
        order_weights[slab.reshape(-1)] = w[lo:hi].reshape(-1)
    cumulative = np.cumsum(order_weights)
    total = cumulative[-1]
    if total <= 0:
        return equal_count
    # Cell j goes to the part whose quota its prefix mass hits; use
    # the midpoint convention (w_j/2) so single heavy cells do not
    # all pile into the last part.
    mids = cumulative - order_weights / 2.0
    return np.minimum(
        (mids / total * n_parts).astype(np.int64), n_parts - 1
    )


def load_imbalance(
    labels: np.ndarray, n_parts: int, weights: np.ndarray | None = None
) -> float:
    """``max part load / mean part load`` (1.0 = perfect balance)."""
    lab = np.asarray(labels, dtype=np.int64).reshape(-1)
    if weights is None:
        loads = np.bincount(lab, minlength=n_parts).astype(np.float64)
    else:
        loads = np.bincount(
            lab,
            weights=np.asarray(weights, dtype=np.float64).reshape(-1),
            minlength=n_parts,
        )
    mean = loads.sum() / n_parts
    if mean == 0:
        raise ValueError("total load is zero")
    return float(loads.max() / mean)


def edge_cut(universe, labels: np.ndarray) -> int:
    """Number of grid NN pairs whose endpoints have different labels."""
    lab = np.asarray(labels)
    if lab.shape != universe.shape:
        raise ValueError(
            f"labels shape {lab.shape} != universe {universe.shape}"
        )
    cut = 0
    for axis in range(universe.d):
        lo, hi = axis_pair_index_arrays(universe, axis)
        cut += int((lab[lo] != lab[hi]).sum())
    return cut


def part_surface_counts(universe, labels: np.ndarray) -> np.ndarray:
    """Per-part count of NN pairs with exactly one endpoint in the part.

    The "surface" of each part in the grid graph; with the part volume
    this gives the surface-to-volume ratio, the classic compactness
    measure for SFC partitions (lower = more cube-like parts).
    """
    lab = np.asarray(labels)
    if lab.shape != universe.shape:
        raise ValueError(
            f"labels shape {lab.shape} != universe {universe.shape}"
        )
    n_parts = int(lab.max()) + 1
    surface = np.zeros(n_parts, dtype=np.int64)
    for axis in range(universe.d):
        lo, hi = axis_pair_index_arrays(universe, axis)
        a = lab[lo].reshape(-1)
        b = lab[hi].reshape(-1)
        crossing = a != b
        surface += np.bincount(a[crossing], minlength=n_parts)
        surface += np.bincount(b[crossing], minlength=n_parts)
    return surface


def mean_surface_to_volume(universe, labels: np.ndarray) -> float:
    """Mean over parts of (boundary NN pairs) / (cells in part)."""
    lab = np.asarray(labels)
    surface = part_surface_counts(universe, lab)
    volumes = np.bincount(lab.reshape(-1), minlength=surface.size)
    if np.any(volumes == 0):
        raise ValueError("every part must be non-empty")
    return float((surface / volumes).mean())


@dataclass(frozen=True)
class PartitionQuality:
    """Quality summary of one SFC partition."""

    curve_name: str
    n_parts: int
    imbalance: float
    edge_cut: int
    total_nn_pairs: int

    @property
    def cut_fraction(self) -> float:
        """Fraction of NN pairs crossing parts (communication fraction).

        0.0 on degenerate universes with no NN pairs at all.
        """
        if self.total_nn_pairs == 0:
            return 0.0
        return self.edge_cut / self.total_nn_pairs


def _uniform_part_sizes(n: int, n_parts: int) -> np.ndarray:
    """Cell counts of the equal-count curve split, without labels.

    Part ``p`` holds the curve positions ``j`` with
    ``(j * n_parts) // n == p``, i.e. ``ceil(p·n/n_parts) <= j <
    ceil((p+1)·n/n_parts)`` — the same counts ``np.bincount`` reports
    for the dense label grid.
    """
    bounds = (
        np.arange(n_parts + 1, dtype=np.int64) * n + n_parts - 1
    ) // n_parts
    return np.diff(bounds)


def _edge_cut_slabs(ctx, n_parts: int) -> int:
    """Equal-count-split edge cut via the NN-pair blocks (no dense labels).

    The part of a cell is ``(key * n_parts) // n`` — exactly the label
    :func:`partition_by_curve` assigns — so counting label mismatches
    over :func:`repro.engine.chunked.nn_pair_blocks` reproduces
    :func:`edge_cut` bit-for-bit while holding one slab's labels at a
    time.  The labels are computed once per slab and boundary plane,
    not per pair endpoint.
    """
    from repro.engine.chunked import nn_pair_blocks

    n = ctx.universe.n
    return sum(
        int(np.count_nonzero(a != b))
        for _, _, a, b in nn_pair_blocks(
            ctx, of=lambda keys: (keys * n_parts) // n
        )
    )


def partition_quality(
    curve,
    n_parts: int,
    weights: np.ndarray | None = None,
) -> PartitionQuality:
    """Partition by ``curve`` and summarize balance and communication.

    The uniform (unweighted) split builds no label grid: balance comes
    from the closed-form part sizes and the edge cut from a sweep over
    the key slabs.  A weighted cut assembles the label grid slab by
    slab (the weights are an ``O(n)`` dense input already, so the
    matching ``O(n)`` labels add no asymptotic cost) and scores it
    with :func:`load_imbalance` and :func:`edge_cut`.  Both paths are
    bit-for-bit the same in every mode.
    """
    from repro.grid.neighbors import nn_pair_count

    ctx = get_context(curve)
    if weights is None:
        universe = ctx.universe
        n = universe.n
        if not 1 <= n_parts <= n:
            raise ValueError(
                f"n_parts must be in [1, {n}], got {n_parts}"
            )
        loads = _uniform_part_sizes(n, n_parts).astype(np.float64)
        mean = loads.sum() / n_parts
        return PartitionQuality(
            curve_name=ctx.curve.name,
            n_parts=n_parts,
            imbalance=float(loads.max() / mean),
            edge_cut=_edge_cut_slabs(ctx, n_parts),
            total_nn_pairs=nn_pair_count(universe),
        )
    labels = partition_by_curve(ctx, n_parts, weights)
    return PartitionQuality(
        curve_name=ctx.curve.name,
        n_parts=n_parts,
        imbalance=load_imbalance(labels, n_parts, weights),
        edge_cut=edge_cut(ctx.universe, labels),
        total_nn_pairs=nn_pair_count(ctx.universe),
    )
