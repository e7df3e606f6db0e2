"""The clustering metric of Moon et al. (2001) — related-work comparison.

Given a rectangular query region, the *cluster count* is the number of
maximal runs of consecutive curve indices needed to cover the region's
cells.  Moon et al. analyze this for the Hilbert curve; the paper's
Section II stresses that clustering and stretch are **different** metrics
— our A2 bench shows they rank curves differently.

Functions accept a curve or a :class:`repro.engine.MetricContext`; box
keys are sliced straight off the context's cached key slabs (no
per-query coordinate materialization or curve evaluation).
``"clusters:box=4"`` is also a registered sweep metric
(:data:`repro.engine.METRICS`).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.analysis.sampling import sample_rectangles
from repro.engine.context import get_context

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
    """Sorted curve keys of the box ``[lo, hi)``, off the key slabs.

    ``ctx`` is a :class:`repro.engine.MetricContext` (or anything
    :func:`get_context` accepts).  The shared primitive behind the
    cluster count and the range-query index: the keys are sliced from
    the canonical key slabs holding the box's axis-0 planes (a dense
    context's one slab is its cached key grid).
    """
    ctx = get_context(ctx)
    views = box_views(ctx, *box_bounds(ctx.universe, lo, hi))
    return np.sort(np.concatenate(views), axis=None)


def box_views(ctx, lo: np.ndarray, hi: np.ndarray) -> list:
    """Views of the validated box ``[lo, hi)`` in each canonical key
    slab its axis-0 planes cross.  The sampling loops resolve them in
    the calling thread and hand them to their tasks, so no cached slab
    is built in a worker (see :func:`repro.engine.chunked.run_ranges`).
    """
    rest = tuple(slice(int(a), int(b)) for a, b in zip(lo[1:], hi[1:]))
    views, plane = [], int(lo[0])
    while plane < hi[0]:
        start, stop = ctx._slab_span(plane)
        top = min(stop, int(hi[0]))
        slab = ctx._key_slab(start, stop)
        views.append(slab[(slice(plane - start, top - start),) + rest])
        plane = top
    return views


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
    return key_runs(box_keys(curve, lo, hi))


def key_runs(keys: np.ndarray) -> int:
    """Maximal consecutive runs in the sorted, non-empty ``keys``."""
    return int((np.diff(keys) > 1).sum()) + 1


def expected_clusters(
    curve,
    box_shape: Sequence[int],
    n_samples: int = 200,
    seed: int = 0,
) -> float:
    """Average cluster count over uniformly placed boxes of a fixed shape.

    Moon et al.'s quantity of interest for query workloads.  Placement is
    uniform over all in-bounds positions (:func:`map_boxes`); the
    integer count sum is order-free, so the average is bit-for-bit the
    same at any thread count.
    """
    counts = map_boxes(curve, box_shape, n_samples, seed, key_runs)
    return sum(counts) / n_samples


def map_boxes(curve, box_shape, n_samples: int, seed: int, value):
    """``value(box_keys)`` of ``n_samples`` seeded uniform boxes, in order.

    The boxes are drawn up front in one RNG order
    (:func:`repro.analysis.sampling.sample_rectangles`), and the values
    run on the context's :class:`repro.engine.threads.BlockScheduler`
    (inline when the context is serial).  Each box's key slabs are
    resolved in the calling thread as its task is submitted.
    """
    ctx = get_context(curve)
    boxes = sample_rectangles(
        ctx.universe.side, ctx.universe.d, box_shape, n_samples, seed
    )
    return ctx.scheduler.imap(
        lambda views=box_views(ctx, lo, hi): value(
            np.sort(np.concatenate(views), axis=None)
        )
        for lo, hi in boxes
    )
