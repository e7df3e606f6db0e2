"""Block-streaming helpers behind the engine's chunked execution mode.

A chunked :class:`repro.engine.MetricContext` never materializes a dense
``(side,)*d`` array.  The key space is walked in fixed-size blocks in
one of three orders, each serving a different consumer:

* **grid slabs** along axis 0 (C order) — the unit of the NN-pair
  reductions (``D^avg``, ``D^max``, ``Λ_i``, partition edge cuts).  A
  slab is ``planes × side^{d-1}`` cells; the NN fold
  (:func:`nn_block_reduction`) reads the two hyperplanes adjacent to a
  slab itself, so working memory is ``O(block)`` and no state crosses
  slabs.  Dense contexts run the same fold over one whole-grid range
  (or ``~threads × 4`` ranges when threaded).
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

from typing import Iterable, Iterator, Tuple

import numpy as np

__all__ = [
    "DEFAULT_CHUNK_CELLS",
    "pairwise_sum_stream",
    "slab_neighbor_counts",
    "slab_axis_slices",
    "accumulate_block_pairs",
    "fold_ranges",
    "nn_planes",
    "nn_block_reduction",
]

#: Default block size (cells) when chunked mode is auto-selected.
DEFAULT_CHUNK_CELLS = 1 << 20

#: Largest segment handed to one ``np.add.reduce`` call by
#: :func:`pairwise_sum_stream`; bounds the stream's buffer.
_PW_LEAF = 1 << 15

#: Dense-mode fold ranges per worker thread: mild oversubscription so
#: one slow block (cache-cold plane, uneven tail) cannot stall the merge.
_DENSE_OVERSUBSCRIPTION = 4


class _BlockCursor:
    """Sequential float64 reader over a stream of array blocks.

    Values are handed out as views of the current head block; blocks
    are joined only when a request straddles a block boundary, so a
    stream of ``B`` values costs ``O(B)`` copies at most, never
    ``O(B²/leaf)``.
    """

    def __init__(self, blocks: Iterable[np.ndarray]) -> None:
        self._blocks = iter(blocks)
        self._head = np.empty(0, dtype=np.float64)

    def take(self, count: int) -> np.ndarray:
        """The next ``count`` values as one contiguous float64 array."""
        head = self._head
        if head.size < count:
            parts = [head] if head.size else []
            available = head.size
            while available < count:
                block = np.asarray(next(self._blocks), dtype=np.float64)
                flat = block.reshape(-1)
                if flat.size:
                    parts.append(flat)
                    available += flat.size
            head = parts[0] if len(parts) == 1 else np.concatenate(parts)
        self._head = head[count:]
        return head[:count]


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
    endpoint outside the block) are the caller's job —
    :func:`nn_planes` reads the adjacent boundary planes itself.  Distance temporaries live in ``scratch``
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


# ----------------------------------------------------------------------
# The NN fold
# ----------------------------------------------------------------------
def fold_ranges(ctx) -> list:
    """Axis-0 plane ranges ``(lo, hi)`` the NN fold walks.

    Chunked contexts use the slab partition (so the LRU-cached slabs
    are the fold's units); a serial dense context folds the whole grid
    as one range; a threaded dense context splits it into
    ``~threads × 4`` ranges of contiguous planes — mild
    oversubscription, so one slow range cannot stall the merge.
    """
    if ctx.chunked or not ctx.threaded:
        return ctx._slab_ranges()
    side = ctx.universe.side
    parts = min(side, ctx.threads * _DENSE_OVERSUBSCRIPTION)
    per = -(-side // parts)
    return [(lo, min(side, lo + per)) for lo in range(0, side, per)]


def _plane_keys(ctx, x0: int) -> np.ndarray:
    """Keys of the single plane ``x0`` (shape ``(1,) + (side,)*(d-1)``).

    Dense boundary planes are free grid views.  In chunked mode the
    plane belongs to a *neighboring* canonical slab, which is peeked
    (silently: no cache traffic, no stats) and sliced zero-copy when
    resident; otherwise the single plane is evaluated directly
    (honoring pool-installed block derivations) — one plane, never a
    full slab, and no overlapping cache keys in the slab partition.
    """
    if not ctx.chunked:
        return ctx.key_grid()[x0 : x0 + 1]
    lo, hi = ctx._slab_span(x0)
    slab = ctx._store.peek(f"key_slab[{lo}:{hi}]")
    if slab is not None:
        return slab[x0 - lo : x0 - lo + 1]
    return ctx._key_slab_values(x0, x0 + 1)


def nn_planes(
    ctx,
    lo: int,
    hi: int,
    sums: np.ndarray,
    best: np.ndarray,
    lambdas: list,
    scratch,
) -> None:
    """Final per-cell NN sums and maxima of the planes ``x_0 ∈ [lo, hi)``.

    Self-contained: besides its own key planes the kernel reads the
    boundary planes ``lo - 1`` and ``hi`` itself, so the ``sums`` and
    ``best`` it writes (int64 arrays of the range's shape, overwritten)
    are final — no carry crosses ranges, and ranges can run in any
    order or concurrently.  The range's ``Λ`` partials are added to
    ``lambdas``: the axis-0 boundary pair ``(lo-1, lo)`` counts here,
    the pair ``(hi-1, hi)`` only updates per-cell state and is counted
    by the next range.  All updates are integer sums and maxima, so
    any range partition gives the same grids and totals.
    """
    d, side = ctx.universe.d, ctx.universe.side
    body = ctx._key_slab(lo, hi) if ctx.chunked else ctx.key_grid()[lo:hi]
    sums[...] = 0
    best[...] = 0
    accumulate_block_pairs(
        body, d, side, sums, best, lambdas, scratch, kernels=ctx.kernels
    )
    plane_shape = (1,) + body.shape[1:]
    if lo > 0:
        bdist = scratch.take("nn_bdist", plane_shape, np.int64)
        np.subtract(body[:1], _plane_keys(ctx, lo - 1), out=bdist)
        np.abs(bdist, out=bdist)
        lambdas[0] += int(bdist.sum())
        sums[:1] += bdist
        np.maximum(best[:1], bdist, out=best[:1])
    if hi < side:
        udist = scratch.take("nn_bdist", plane_shape, np.int64)
        np.subtract(_plane_keys(ctx, hi), body[-1:], out=udist)
        np.abs(udist, out=udist)
        sums[-1:] += udist
        np.maximum(best[-1:], udist, out=best[-1:])


def _nn_range_kernel(ctx, lo: int, hi: int, scratch):
    """One fold task: ``(avg values, Λ partials, Σ per-cell max)``.

    Runs :func:`nn_planes` into scratch grids and divides by the
    neighbor counts: dense ranges slice the context's resolved
    ``neighbor_counts()`` grid (shared across the pool's curves,
    attached from shared memory or the grid store); chunked ranges
    compute the slab's counts in place.  Only the per-cell average
    array — the task's result — is freshly allocated.
    """
    shape = (hi - lo,) + (ctx.universe.side,) * (ctx.universe.d - 1)
    sums = scratch.take("nn_sums", shape, np.int64)
    best = scratch.take("nn_best", shape, np.int64)
    lambdas = [0] * ctx.universe.d
    nn_planes(ctx, lo, hi, sums, best, lambdas, scratch)
    if ctx.chunked:
        counts = slab_neighbor_counts(
            ctx.universe,
            lo,
            hi,
            out=scratch.take("nn_counts", shape, np.int64),
            kernels=ctx.kernels,
        )
    else:
        counts = ctx.neighbor_counts()[lo:hi]
    # repro: allow[R004] — the task's *result* array: it leaves the
    # scratch arena and is merged in range order, so it cannot reuse a
    # per-thread buffer
    avg = np.empty(shape, dtype=np.float64)
    np.divide(sums, counts, out=avg)
    return avg.reshape(-1), lambdas, int(best.sum())


def nn_block_reduction(ctx) -> dict:
    """All NN-stretch scalars of ``ctx``: the engine's one NN fold.

    Walks :func:`fold_ranges`, running one :func:`_nn_range_kernel`
    task per range — inline on a per-call scratch set when the context
    is serial, through ``ctx.scheduler`` when it is threaded — and
    merges the per-cell averages in range order through
    :func:`pairwise_sum_stream`.  Returns ``{"davg", "dmax",
    "lambdas", "nn_sum"}``, bit-for-bit equal in every mode (see the
    module docstring for why).  Requires ``side >= 2``; the degenerate
    cases are handled by the calling metric methods.
    """
    # Lazy import: threads.py imports this module at its top level.
    from repro.engine.threads import ScratchBuffers, _warm_curve_caches

    universe = ctx.universe
    d, n = universe.d, universe.n
    # Resolve the shared state once in the calling thread, so range
    # tasks only read it (racing the first resolution across workers
    # would compute or attach it once per thread).
    if ctx.chunked:
        _warm_curve_caches(ctx, inverse=False)
    else:
        ctx.key_grid()
        ctx.neighbor_counts()
    ranges = fold_ranges(ctx)
    if ctx.threaded:
        scheduler = ctx.scheduler
        results = scheduler.imap(
            (
                lambda lo=lo, hi=hi: _nn_range_kernel(
                    ctx, lo, hi, scheduler.scratch()
                )
            )
            for lo, hi in ranges
        )
    else:
        # A per-call scratch set: the serial fold's buffers are freed
        # with the call instead of living as long as the context.
        scratch = ScratchBuffers()
        results = (
            _nn_range_kernel(ctx, lo, hi, scratch) for lo, hi in ranges
        )
    lambdas = [0] * d
    max_total = [0]

    def avg_blocks() -> Iterator[np.ndarray]:
        for avg, partial, max_part in results:
            for axis in range(d):
                lambdas[axis] += partial[axis]
            max_total[0] += max_part
            yield avg

    davg = pairwise_sum_stream(avg_blocks(), n) / n
    return {
        "davg": davg,
        "dmax": float(max_total[0]) / n,
        "lambdas": tuple(lambdas),
        "nn_sum": sum(lambdas),
    }
