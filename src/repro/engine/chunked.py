"""Block-streaming helpers behind the engine's chunked execution mode.

A chunked :class:`repro.engine.MetricContext` never materializes a dense
``(side,)*d`` array.  The key space is walked in fixed-size blocks in
one of four orders, each serving a different consumer:

* **grid slabs** along axis 0 (C order) — the unit of the NN-pair
  reductions (``D^avg``, ``D^max``, ``Λ_i``, partition edge cuts).  A
  slab is ``planes × side^{d-1}`` cells; the NN fold
  (:func:`nn_block_reduction`) reads the two hyperplanes adjacent to a
  slab itself, so working memory is ``O(block)`` and no state crosses
  slabs.  A dense context's partition is one whole-grid slab, which
  the fold splits into ``~threads × 4`` ranges when threaded.  Every
  slab, sub-range and boundary plane is read through
  ``MetricContext._key_slab``.
* **rank blocks** (simple-curve order) — the ``flat_keys`` stream.
* **key blocks** (curve order) — the inverse-permutation stream.
* **position ranges** (curve order) — the unit of the window fold
  (:func:`window_max_reduction`): cells ``window`` apart on the curve,
  decoded per block when chunked, order slices when dense.

Both folds run their ranges through :func:`run_ranges`, inline when
the context is serial and over its thread pool when it is threaded.

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

from typing import Iterable, Iterator, Optional, Tuple

import numpy as np

from repro.grid.universe import strict_index

__all__ = [
    "DEFAULT_CHUNK_CELLS",
    "pairwise_sum_stream",
    "slab_neighbor_counts",
    "slab_axis_slices",
    "accumulate_block_pairs",
    "fold_ranges",
    "check_fold_envelope",
    "nn_planes",
    "run_ranges",
    "nn_block_reduction",
    "check_window",
    "window_ranges",
    "window_pairs",
    "window_block_max",
    "window_max_reduction",
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

    Equals ``neighbor_count_grid(universe)[lo:hi]`` without
    materializing the dense grid.  Boundary cells are handled
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
def _spans(total: int, step: int) -> list:
    """``[0, total)`` cut into consecutive ``(lo, hi)`` spans of ``step``."""
    return [(lo, min(total, lo + step)) for lo in range(0, total, step)]


def _dense_step(ctx, total: int) -> int:
    """Span length of a dense fold over ``total`` units: one span when
    serial, ``~threads × 4`` when threaded — mild oversubscription, so
    one slow range cannot stall the merge."""
    if not ctx.threaded:
        return total
    return -(-total // (ctx.threads * _DENSE_OVERSUBSCRIPTION))


def _fold_step(ctx) -> int:
    """Planes per NN fold range (see :func:`fold_ranges`)."""
    side = ctx.universe.side
    per_slab = ctx._slab_thickness()
    return per_slab if per_slab < side else _dense_step(ctx, side)


def fold_ranges(ctx) -> list:
    """Axis-0 plane ranges ``(lo, hi)`` the NN fold walks.

    The slab partition, so the LRU-cached slabs are the fold's units;
    a one-slab partition (every dense context) is split by
    :func:`_dense_step` instead.
    """
    return _spans(ctx.universe.side, _fold_step(ctx))


def check_fold_envelope(universe, cells: int) -> None:
    """Refuse a fold whose int64 partials could overflow.

    Both backends fold in int64: a cell's stretch sum can reach
    ``2d·(n−1)``, and a range's ``Λ`` or ``Σ max`` partial
    ``cells·(n−1)``, ``cells`` being the largest range's cell count.
    Raises ``ValueError`` when either bound reaches ``2^63``.

    >>> from repro.grid.universe import Universe
    >>> check_fold_envelope(Universe(d=2, side=2**31), 2**31)
    ... # doctest: +ELLIPSIS
    Traceback (most recent call last):
    ...
    ValueError: the NN fold of a 2-d universe ... overflows int64: ...
    """
    d, side = universe.d, universe.side
    top = universe.n - 1
    for what, bound in (
        ("a cell's stretch sum can reach 2d·(n−1)", 2 * d * top),
        ("a range's Λ or Σ max partial can reach cells·(n−1)", cells * top),
    ):
        if bound >= 1 << 63:
            raise ValueError(
                f"the NN fold of a {d}-d universe of side {side} "
                f"overflows int64: {what} = {bound} >= 2^63"
            )


def nn_planes(
    ctx,
    lo: int,
    hi: int,
    sums: np.ndarray,
    best: np.ndarray,
    lambdas: list,
    scratch,
    body=None,
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
    any range partition gives the same grids and totals.  ``body``,
    when given, is the range's key slab, already resolved.
    """
    d, side = ctx.universe.d, ctx.universe.side
    if body is None:
        body = ctx._key_slab(lo, hi)
    sums[...] = 0
    best[...] = 0
    accumulate_block_pairs(
        body, d, side, sums, best, lambdas, scratch, kernels=ctx.kernels
    )
    plane_shape = (1,) + body.shape[1:]
    if lo > 0:
        bdist = scratch.take("nn_bdist", plane_shape, np.int64)
        np.subtract(body[:1], ctx._key_slab(lo - 1, lo), out=bdist)
        np.abs(bdist, out=bdist)
        lambdas[0] += int(bdist.sum())
        sums[:1] += bdist
        np.maximum(best[:1], bdist, out=best[:1])
    if hi < side:
        udist = scratch.take("nn_bdist", plane_shape, np.int64)
        np.subtract(ctx._key_slab(hi, hi + 1), body[-1:], out=udist)
        np.abs(udist, out=udist)
        sums[-1:] += udist
        np.maximum(best[-1:], udist, out=best[-1:])


def _nn_range_kernel(ctx, lo: int, hi: int, scratch, body=None):
    """One fold task: ``(avg values, Λ partials, Σ per-cell max)``.

    With native kernels the whole range is one C call
    (``NativeKernels.nn_range``): it reads the range's planes and the
    boundary planes ``lo - 1`` and ``hi`` — read here exactly as
    :func:`nn_planes` reads them — and writes the per-cell averages
    directly, so it takes no scratch.  The NumPy reference runs
    :func:`nn_planes` into scratch grids and divides by the range's
    neighbor counts, computed into scratch as well.  Only the per-cell
    average array — the task's result — is freshly allocated.
    """
    d, side = ctx.universe.d, ctx.universe.side
    shape = (hi - lo,) + (side,) * (d - 1)
    # repro: allow[R004] — the task's *result* array: it leaves the
    # scratch arena and is merged in range order, so it cannot reuse a
    # per-thread buffer
    avg = np.empty(shape, dtype=np.float64)
    kernels = ctx.kernels
    if kernels is not None:
        if body is None:
            body = ctx._key_slab(lo, hi)
        below = ctx._key_slab(lo - 1, lo) if lo > 0 else None
        above = ctx._key_slab(hi, hi + 1) if hi < side else None
        lambdas, max_sum = kernels.nn_range(body, below, above, side, d, avg)
        return avg.reshape(-1), lambdas, max_sum
    sums = scratch.take("nn_sums", shape, np.int64)
    best = scratch.take("nn_best", shape, np.int64)
    lambdas = [0] * d
    nn_planes(ctx, lo, hi, sums, best, lambdas, scratch, body)
    counts = slab_neighbor_counts(
        ctx.universe, lo, hi, out=scratch.take("nn_counts", shape, np.int64)
    )
    np.divide(sums, counts, out=avg)
    return avg.reshape(-1), lambdas, int(best.sum())


def run_ranges(ctx, ranges, kernel, resolve=None) -> Iterator:
    """Results of ``kernel(ctx, lo, hi, scratch, body)`` per range, in order.

    The one place that decides how a fold's ranges run: inline on a
    per-call scratch set (freed with the call) when the context is
    serial, through ``ctx.scheduler`` on per-thread scratch when it is
    threaded.  ``resolve(lo, hi)``, when given, supplies ``body``
    in the calling thread as each range is submitted.  The NN fold
    resolves its key slabs there: built in a worker, a cached slab
    would sit in that thread's malloc arena, which keeps the memory
    resident after the sweep where no other thread can reuse it.
    """
    # Lazy import: threads.py imports this module at its top level.
    from repro.engine.threads import ScratchBuffers

    def body(lo: int, hi: int):
        return None if resolve is None else resolve(lo, hi)

    if not ctx.threaded:
        scratch = ScratchBuffers()
        return (
            kernel(ctx, lo, hi, scratch, body(lo, hi)) for lo, hi in ranges
        )
    scheduler = ctx.scheduler
    return scheduler.imap(
        (
            lambda lo=lo, hi=hi, b=body(lo, hi): kernel(
                ctx, lo, hi, scheduler.scratch(), b
            )
        )
        for lo, hi in ranges
    )


def nn_block_reduction(ctx) -> dict:
    """All NN-stretch scalars of ``ctx``: the engine's one NN fold.

    Runs one :func:`_nn_range_kernel` task per :func:`fold_ranges`
    range through :func:`run_ranges` and merges the per-cell averages
    in range order through :func:`pairwise_sum_stream`.  Returns
    ``{"davg", "dmax", "lambdas", "nn_sum"}``, bit-for-bit equal in
    every mode (see the module docstring for why).  Requires
    ``side >= 2``; the degenerate cases are handled by the calling
    metric methods.  A universe beyond the int64 envelope is refused
    before any range runs (:func:`check_fold_envelope`).
    """
    # Lazy import: threads.py imports this module at its top level.
    from repro.engine.threads import prepare_key_reads

    universe = ctx.universe
    d, n = universe.d, universe.n
    check_fold_envelope(universe, _fold_step(ctx) * universe.side ** (d - 1))
    prepare_key_reads(ctx)
    results = run_ranges(
        ctx, fold_ranges(ctx), _nn_range_kernel, resolve=ctx._key_slab
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
        # int / int: one correctly rounded division, also past 2^53.
        "dmax": max_total[0] / n,
        "lambdas": tuple(lambdas),
        "nn_sum": sum(lambdas),
    }


# ----------------------------------------------------------------------
# The window fold
# ----------------------------------------------------------------------
def check_window(ctx, window) -> int:
    """``window`` as an ``int`` in ``[1, n)``; bools, floats and other
    non-integers raise ``ValueError`` rather than being truncated."""
    window = strict_index(window, "window")
    if not 1 <= window < ctx.universe.n:
        raise ValueError(f"window must be in [1, n), got {window}")
    return window


def window_ranges(ctx, window: int) -> list:
    """Ranges ``(t0, t1)`` of the ``n - window`` left curve positions:
    ``chunk_cells`` steps when chunked, else :func:`_dense_step`."""
    total = ctx.universe.n - window
    step = ctx.chunk_cells if ctx.chunked else _dense_step(ctx, total)
    return _spans(total, step)


def window_path(ctx) -> Optional[np.ndarray]:
    """Resolve what the window ranges read, once, in the calling thread.

    Dense: the order, returned so that every range slices this one
    array (an order the budget does not retain would otherwise be
    rebuilt per range).  Chunked: ``None``, after a one-key probe that
    builds a table curve's lazy decode table before N workers race it.
    """
    if ctx.chunked:
        ctx.curve.coords(np.zeros(1, dtype=np.int64))
        return None
    return ctx.order()


def window_pairs(
    ctx, t0: int, t1: int, window: int, path: Optional[np.ndarray]
) -> tuple:
    """Cells at curve positions ``[t0, t1)`` and ``[t0+window, t1+window)``:
    zero-copy slices of ``path`` (the order, see :func:`window_path`)
    when given, else ``coords_of`` blocks."""
    if path is not None:
        return path[t0:t1], path[t0 + window : t1 + window]
    idx = np.arange(t0, t1, dtype=np.int64)
    return (
        ctx.curve.coords_of(idx, backend=ctx.backend),
        ctx.curve.coords_of(idx + window, backend=ctx.backend),
    )


def window_block_max(
    a: np.ndarray, b: np.ndarray, metric: str, scratch, kernels=None
):
    """Max grid distance over one block of cell pairs, scratch-backed.

    Operation-for-operation identical to
    :func:`repro.grid.metrics.manhattan` / ``euclidean`` followed by
    ``.max()`` — only the temporaries' storage differs — so block
    maxima merge to the dense value exactly (max is order-free).  With
    the native ``kernels`` the whole fold runs as one C call (integer
    maxima; the euclidean variant maximizes the squared sum and takes a
    single sqrt — a monotone map, hence bit-identical).
    """
    if (
        kernels is not None
        and a.flags["C_CONTIGUOUS"]
        and b.flags["C_CONTIGUOUS"]
    ):
        value = kernels.window_max(a, b, metric)
        return int(value) if metric == "manhattan" else value
    m, d = a.shape
    diff = scratch.take("win_diff", (m, d), np.int64)
    np.subtract(a, b, out=diff)
    if metric == "manhattan":
        np.abs(diff, out=diff)
        dist = scratch.take("win_dist", (m,), np.int64)
        diff.sum(axis=-1, out=dist)
        return int(dist.max())
    fdiff = scratch.take("win_fdiff", (m, d), np.float64)
    fdiff[...] = diff
    np.multiply(fdiff, fdiff, out=fdiff)
    fdist = scratch.take("win_fdist", (m,), np.float64)
    fdiff.sum(axis=-1, out=fdist)
    np.sqrt(fdist, out=fdist)
    return float(fdist.max())


def window_max_reduction(ctx, window: int, metric: str = "manhattan"):
    """``window_dilation`` of ``ctx``: the engine's one window fold.

    :func:`window_block_max` over the :func:`window_pairs` of each
    :func:`window_ranges` range, run by :func:`run_ranges` and merged
    with ``max`` — order-free, so the value is bit-for-bit the same in
    every mode and on every backend.  ``window`` is already checked.
    """
    path = window_path(ctx)

    def kernel(ctx, t0: int, t1: int, scratch, body=None):
        a, b = window_pairs(ctx, t0, t1, window, path)
        return window_block_max(a, b, metric, scratch, kernels=ctx.kernels)

    best = max(run_ranges(ctx, window_ranges(ctx, window), kernel))
    return int(best) if metric == "manhattan" else float(best)
