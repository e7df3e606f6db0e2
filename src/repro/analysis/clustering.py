"""The clustering metric of Moon et al. (2001) — related-work comparison.

Given a rectangular query region, the *cluster count* is the number of
maximal runs of consecutive curve indices needed to cover the region's
cells.  Moon et al. analyze this for the Hilbert curve; the paper's
Section II stresses that clustering and stretch are **different** metrics
— our A2 bench shows they rank curves differently.

Functions accept a curve or a :class:`repro.engine.MetricContext`; box
keys are read straight off the context's cached key grid (no per-query
coordinate materialization or curve evaluation).  ``"clusters:box=4"``
is also a registered sweep metric (:data:`repro.engine.METRICS`).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.engine.context import get_context
from repro.engine.threads import prepare_key_reads

__all__ = [
    "box_bounds",
    "box_keys",
    "rectangle_cells",
    "cluster_count",
    "expected_clusters",
]


def box_bounds(
    universe, lo: Sequence[int], hi: Sequence[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Validated ``(lo, hi)`` arrays of the half-open box ``[lo, hi)``.

    Raises for wrong shape, out-of-range or empty boxes.
    """
    lo_arr = np.asarray(lo, dtype=np.int64)
    hi_arr = np.asarray(hi, dtype=np.int64)
    if lo_arr.shape != (universe.d,) or hi_arr.shape != (universe.d,):
        raise ValueError(f"lo/hi must have shape ({universe.d},)")
    if np.any(lo_arr < 0) or np.any(hi_arr > universe.side):
        raise ValueError("box extends outside the universe")
    if np.any(hi_arr <= lo_arr):
        raise ValueError("box must be non-empty (hi > lo per axis)")
    return lo_arr, hi_arr


def box_keys(ctx, lo: Sequence[int], hi: Sequence[int]) -> np.ndarray:
    """Sorted curve keys of the box ``[lo, hi)``, off the cached key grid.

    ``ctx`` is a :class:`repro.engine.MetricContext` (or anything
    :func:`get_context` accepts).  The shared primitive behind the
    cluster count and the range-query index.  Chunked contexts evaluate
    the curve on the box's cells directly (``O(volume)``, no dense
    grid); the sorted keys are identical either way.
    """
    ctx = get_context(ctx)
    lo_arr, hi_arr = box_bounds(ctx.universe, lo, hi)
    if ctx.chunked:
        cells = rectangle_cells(ctx.universe, lo_arr, hi_arr)
        return np.sort(
            ctx.curve.keys_of(cells, backend=ctx.backend), axis=None
        )
    box = tuple(slice(int(a), int(b)) for a, b in zip(lo_arr, hi_arr))
    return np.sort(ctx.key_grid()[box], axis=None)


def rectangle_cells(
    universe, lo: Sequence[int], hi: Sequence[int]
) -> np.ndarray:
    """Coordinates of all cells in the half-open box ``[lo, hi)``.

    Returns shape ``(volume, d)``; raises for empty or out-of-range boxes.
    """
    lo_arr, hi_arr = box_bounds(universe, lo, hi)
    axes = [np.arange(a, b, dtype=np.int64) for a, b in zip(lo_arr, hi_arr)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.reshape(-1) for m in mesh], axis=-1)


def cluster_count(
    curve, lo: Sequence[int], hi: Sequence[int]
) -> int:
    """Number of maximal consecutive-key runs covering the box ``[lo, hi)``.

    This is Moon et al.'s clustering number: each run corresponds to one
    contiguous read when the data is laid out in curve order.
    """
    keys = box_keys(curve, lo, hi)
    if keys.size == 0:
        return 0
    breaks = int((np.diff(keys) > 1).sum())
    return breaks + 1


def expected_clusters(
    curve,
    box_shape: Sequence[int],
    n_samples: int = 200,
    seed: int = 0,
) -> float:
    """Average cluster count over uniformly placed boxes of a fixed shape.

    Moon et al.'s quantity of interest for query workloads.  Placement is
    uniform over all in-bounds positions.

    The per-box counts run on the context's
    :class:`repro.engine.threads.BlockScheduler` (inline when the
    context is serial).  The box placements are drawn up front in one
    RNG order, and the integer count sum is order-free, so the average
    is bit-for-bit the same at any thread count.
    """
    ctx = get_context(curve)
    universe = ctx.universe
    shape = np.asarray(box_shape, dtype=np.int64)
    if shape.shape != (universe.d,):
        raise ValueError(f"box_shape must have {universe.d} entries")
    if np.any(shape < 1) or np.any(shape > universe.side):
        raise ValueError("box_shape must fit in the universe")
    rng = np.random.default_rng(seed)
    max_lo = universe.side - shape  # inclusive upper bound per axis
    placements = [
        np.array([rng.integers(0, m + 1) for m in max_lo], dtype=np.int64)
        for _ in range(n_samples)
    ]
    tasks = [
        (lambda lo=lo: cluster_count(ctx, lo, lo + shape))
        for lo in placements
    ]
    prepare_key_reads(ctx)
    total = sum(ctx.scheduler.imap(tasks))
    return total / n_samples
