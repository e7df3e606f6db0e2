"""Block-streaming helpers behind the engine's chunked execution mode.

A chunked :class:`repro.engine.MetricContext` never materializes a dense
``(side,)*d`` array.  The key space is walked in fixed-size blocks in
one of three orders, each serving a different consumer:

* **grid slabs** along axis 0 (C order) — the unit of the NN-pair
  reductions (``D^avg``, ``D^max``, ``Λ_i``, partition edge cuts).  A
  slab is ``planes × side^{d-1}`` cells; only the last hyperplane of
  the previous slab is carried across a slab boundary, so working
  memory is ``O(block)``.
* **rank blocks** (simple-curve order) — the ``flat_keys`` stream.
* **key blocks** (curve order) — the inverse-permutation and
  window-shift streams.

Bit-for-bit parity with the dense path is engineered, not hoped for:

* integer reductions (``Λ`` sums, maxima, edge cuts, cluster counts)
  are order-independent, so any block partition gives the dense value;
* integer *means* (``D^max``, ``nn_mean``) agree with ``np.mean``
  because every partial sum of integer-valued float64s below ``2^53``
  is exact, making NumPy's summation order immaterial;
* the one genuinely order-sensitive reduction — the float mean behind
  ``D^avg`` — replicates NumPy's pairwise summation exactly:
  :func:`pairwise_sum_stream` splits the logical array at the offsets
  ``np.add.reduce`` uses (half, rounded down to a multiple of 8) and
  reduces aligned segments with ``np.add.reduce`` itself, so the
  chunked path performs the identical sequence of float additions
  while buffering only ``O(leaf)`` values.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Tuple

import numpy as np

__all__ = [
    "DEFAULT_CHUNK_CELLS",
    "pairwise_sum_stream",
    "slab_neighbor_counts",
    "slab_axis_slices",
    "accumulate_block_pairs",
    "nn_block_reduction",
]

#: Default block size (cells) when chunked mode is auto-selected.
DEFAULT_CHUNK_CELLS = 1 << 20

#: Largest segment handed to one ``np.add.reduce`` call by
#: :func:`pairwise_sum_stream`; bounds the stream's buffer.
_PW_LEAF = 1 << 15


class _BlockCursor:
    """Sequential float64 reader over a stream of array blocks."""

    def __init__(self, blocks: Iterable[np.ndarray]) -> None:
        self._blocks = iter(blocks)
        self._buffer: List[np.ndarray] = []
        self._available = 0

    def take(self, count: int) -> np.ndarray:
        """The next ``count`` values as one contiguous float64 array."""
        while self._available < count:
            block = np.asarray(next(self._blocks), dtype=np.float64)
            flat = block.reshape(-1)
            if flat.size:
                self._buffer.append(flat)
                self._available += flat.size
        if len(self._buffer) == 1 and self._buffer[0].size == count:
            out = self._buffer.pop()
            self._available = 0
            return out
        joined = np.concatenate(self._buffer)
        out, rest = joined[:count], joined[count:]
        self._buffer = [rest] if rest.size else []
        self._available = rest.size
        return out


def pairwise_sum_stream(
    blocks: Iterable[np.ndarray], total: int, leaf: int = _PW_LEAF
) -> float:
    """``np.add.reduce`` over a streamed array, bit-for-bit.

    ``blocks`` yields consecutive pieces (any sizes) of a logical
    float64 array of ``total`` elements.  The reduction recurses with
    NumPy's own pairwise split rule (``n2 = n//2`` rounded down to a
    multiple of 8, applied while ``n`` exceeds the leaf size) and
    reduces each aligned segment with one ``np.add.reduce`` call, which
    performs the same operations the segment would see inside a single
    full-array reduction.  The result therefore equals
    ``np.add.reduce(np.concatenate(blocks))`` exactly while holding at
    most ``O(leaf + block)`` values.
    """
    if total == 0:
        return 0.0
    cursor = _BlockCursor(blocks)
    return float(_pairwise_reduce(cursor, total, max(int(leaf), 8)))


def _pairwise_reduce(cursor: _BlockCursor, count: int, leaf: int):
    """The recursion of :func:`pairwise_sum_stream`.

    A module-level function rather than a self-referencing closure: the
    closure's cell would form a reference cycle holding the cursor, and
    through it the block generator and its slabs, until a full ``gc``.
    """
    if count <= leaf:
        return np.add.reduce(cursor.take(count))
    half = count // 2
    half -= half % 8
    return _pairwise_reduce(cursor, half, leaf) + _pairwise_reduce(
        cursor, count - half, leaf
    )


def slab_neighbor_counts(
    universe, lo: int, hi: int, out: np.ndarray = None, kernels=None
) -> np.ndarray:
    """``|N(α)|`` for the cells with ``x_0 ∈ [lo, hi)``, as a slab.

    Equals ``neighbor_count_grid(universe)[lo:hi]`` for ``side >= 2``
    without materializing the dense grid.  Boundary cells are handled
    by decrementing the edge hyperplanes in place, so the kernel is
    allocation-free when ``out`` (a reusable int64 buffer of the slab
    shape) is supplied.  ``kernels`` (a loaded
    :class:`repro.engine.native.NativeKernels`) computes the identical
    integers in one compiled pass.
    """
    d, side = universe.d, universe.side
    shape = (hi - lo,) + (side,) * (d - 1)
    if out is None:
        # repro: allow[R004] — documented fallback for callers outside
        # the block loop that supply no reusable out= buffer
        counts = np.empty(shape, dtype=np.int64)
    else:
        if out.shape != shape:
            raise ValueError(
                f"out has shape {out.shape}, expected {shape}"
            )
        counts = out
    if kernels is not None and counts.flags["C_CONTIGUOUS"]:
        return kernels.neighbor_counts(d, side, lo, hi, counts)
    counts[...] = 2 * d
    if lo == 0:
        counts[:1] -= 1
    if hi == side:
        counts[-1:] -= 1
    for axis in range(1, d):
        first = tuple(
            slice(0, 1) if i == axis else slice(None) for i in range(d)
        )
        last = tuple(
            slice(side - 1, side) if i == axis else slice(None)
            for i in range(d)
        )
        counts[first] -= 1
        counts[last] -= 1
    return counts


def slab_axis_slices(d: int, side: int, axis: int) -> Tuple[tuple, tuple]:
    """Slab slicing tuples for the NN pairs along grid ``axis >= 1``.

    Applied to a slab from
    :meth:`repro.engine.MetricContext.iter_key_slabs`, ``slab[lo]`` and
    ``slab[hi]`` are the aligned endpoints of every within-slab pair
    along ``axis`` (axis-0 pairs instead span consecutive planes and
    slab boundaries).
    """
    lo = tuple(
        slice(0, side - 1) if i == axis else slice(None) for i in range(d)
    )
    hi = tuple(
        slice(1, side) if i == axis else slice(None) for i in range(d)
    )
    return lo, hi


def accumulate_block_pairs(
    body: np.ndarray,
    d: int,
    side: int,
    sums: np.ndarray,
    best: np.ndarray,
    lambdas: list,
    scratch,
    kernels=None,
) -> None:
    """Fold every *within-block* NN pair of ``body`` into the partials.

    ``body`` is a block of key planes (shape ``(t,) + (side,)*(d-1)``);
    pairs along axes >= 1 and interior axis-0 pairs (both endpoints in
    the block) update the per-cell ``sums``/``best`` grids and the
    per-axis ``lambdas`` totals in place.  Boundary axis-0 pairs (one
    endpoint outside the block) are the caller's job — the serial
    reduction handles them with its carry, the threaded kernel with
    its adjacent boundary planes — so this single ufunc chain is the
    shared core of both, and a change here keeps them bit-for-bit
    aligned by construction.  Distance temporaries live in ``scratch``
    (a :class:`repro.engine.threads.ScratchBuffers`).  When ``kernels``
    (a loaded :class:`repro.engine.native.NativeKernels`) is given and
    the arrays are contiguous, the whole fold runs as one compiled
    pass — pure int64 arithmetic either way, so the partials are
    bit-for-bit identical.
    """
    if (
        kernels is not None
        and body.flags["C_CONTIGUOUS"]
        and sums.flags["C_CONTIGUOUS"]
        and best.flags["C_CONTIGUOUS"]
    ):
        kernels.nn_block_pairs(body, side, d, sums, best, lambdas)
        return
    for axis in range(1, d):
        lo_s, hi_s = slab_axis_slices(d, side, axis)
        dist = scratch.take("pair_dist", body[hi_s].shape, np.int64)
        np.subtract(body[hi_s], body[lo_s], out=dist)
        np.abs(dist, out=dist)
        lambdas[axis] += int(dist.sum())
        sums[lo_s] += dist
        sums[hi_s] += dist
        np.maximum(best[lo_s], dist, out=best[lo_s])
        np.maximum(best[hi_s], dist, out=best[hi_s])
    if body.shape[0] > 1:
        dist0 = scratch.take("pair_dist", body[1:].shape, np.int64)
        np.subtract(body[1:], body[:-1], out=dist0)
        np.abs(dist0, out=dist0)
        lambdas[0] += int(dist0.sum())
        sums[:-1] += dist0
        sums[1:] += dist0
        np.maximum(best[:-1], dist0, out=best[:-1])
        np.maximum(best[1:], dist0, out=best[1:])


def nn_block_reduction(ctx) -> dict:
    """All NN-stretch scalars of ``ctx`` in one pass over key slabs.

    Returns ``{"davg", "dmax", "lambdas", "nn_sum"}`` with values
    bit-for-bit equal to the dense metric methods (see the module
    docstring for why).  Requires ``side >= 2``; the degenerate cases
    are handled by the calling metric methods.
    """
    # Lazy import: threads.py imports this module at its top level.
    from repro.engine.threads import ScratchBuffers

    universe = ctx.universe
    d, side, n = universe.d, universe.side, universe.n
    lambdas = [0] * d
    state = {"max_total": 0}
    scratch = ScratchBuffers()

    def avg_planes() -> Iterator[np.ndarray]:
        """Per-cell average-stretch values, streamed in C order.

        Every plane of per-cell sums is finalized once all its pair
        contributions arrived: planes ``[lo, hi-1)`` of a slab within
        the slab, the last plane when the next slab (or the end of the
        grid) supplies the axis-0 boundary pairs.  All integer state
        (sums, maxima, distances, the boundary-plane carry) lives in
        reused scratch buffers; the only steady-state allocations are
        the yielded float planes, which the pairwise-sum cursor may
        hold across iterations and therefore cannot be recycled.
        """
        plane_shape = None
        prev_keys = None
        pending_sums = None
        pending_max = None
        pending_x0 = -1
        for lo, hi, slab in ctx.iter_key_slabs():
            thickness = hi - lo
            sums = scratch.take("sums", slab.shape, np.int64)
            sums[...] = 0
            best = scratch.take("best", slab.shape, np.int64)
            best[...] = 0
            accumulate_block_pairs(
                slab, d, side, sums, best, lambdas, scratch,
                kernels=ctx.kernels,
            )
            if plane_shape is None:
                plane_shape = (1,) + slab.shape[1:]
            if prev_keys is not None:
                boundary = scratch.take("boundary", plane_shape, np.int64)
                np.subtract(slab[:1], prev_keys, out=boundary)
                np.abs(boundary, out=boundary)
                lambdas[0] += int(boundary.sum())
                sums[:1] += boundary
                np.maximum(best[:1], boundary, out=best[:1])
                pending_sums += boundary
                np.maximum(pending_max, boundary, out=pending_max)
                counts = slab_neighbor_counts(
                    universe,
                    pending_x0,
                    pending_x0 + 1,
                    out=scratch.take("plane_counts", plane_shape, np.int64),
                    kernels=ctx.kernels,
                )
                state["max_total"] += int(pending_max.sum())
                yield (pending_sums / counts).reshape(-1)
            if thickness > 1:
                counts = slab_neighbor_counts(
                    universe,
                    lo,
                    hi - 1,
                    out=scratch.take(
                        "counts", sums[:-1].shape, np.int64
                    ),
                    kernels=ctx.kernels,
                )
                state["max_total"] += int(best[:-1].sum())
                yield (sums[:-1] / counts).reshape(-1)
            if prev_keys is None:
                prev_keys = scratch.take("prev_keys", plane_shape, np.int64)
                pending_sums = scratch.take(
                    "pending_sums", plane_shape, np.int64
                )
                pending_max = scratch.take(
                    "pending_max", plane_shape, np.int64
                )
            np.copyto(prev_keys, slab[-1:])
            np.copyto(pending_sums, sums[-1:])
            np.copyto(pending_max, best[-1:])
            pending_x0 = hi - 1
        if pending_sums is not None:
            counts = slab_neighbor_counts(
                universe,
                pending_x0,
                pending_x0 + 1,
                out=scratch.take("plane_counts", plane_shape, np.int64),
            )
            state["max_total"] += int(pending_max.sum())
            yield (pending_sums / counts).reshape(-1)

    davg = pairwise_sum_stream(avg_planes(), n) / n
    return {
        "davg": davg,
        "dmax": float(state["max_total"]) / n,
        "lambdas": tuple(lambdas),
        "nn_sum": sum(lambdas),
    }
