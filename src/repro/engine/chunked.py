"""Block-streaming helpers behind the engine's chunked execution mode.

A chunked :class:`repro.engine.MetricContext` never materializes a dense
``(side,)*d`` array.  The key space is walked in fixed-size blocks in
one of two orders, each serving a different consumer:

* **grid slabs** along axis 0 (C order) — the unit of the NN-pair
  reductions (``D^avg``, ``D^max``, ``Λ_i``, partition edge cuts).  A
  slab is ``planes × side^{d-1}`` cells; the NN fold
  (:func:`nn_block_reduction`) reads the two hyperplanes adjacent to a
  slab itself, so working memory is ``O(block)`` and no state crosses
  slabs.  A dense context's partition is one whole-grid slab, which
  the fold splits into ``~threads × 4`` ranges when threaded.  Every
  slab, sub-range and boundary plane is read through
  ``MetricContext._key_slab``.  Outside the fold's range kernels,
  :func:`nn_pair_blocks` is the one slab-wise walk over the NN pairs:
  ``nn_distance_values``, the Lemma 5 groups and the partition edge
  cut all read their pairs from it.
* **position ranges** (curve order) — the unit of the window fold
  (:func:`window_max_reduction`): cells ``window`` apart on the curve,
  read through ``MetricContext._order_block``, the order's
  counterpart of ``_key_slab``.

Both folds run their ranges through :func:`run_ranges`, inline when
the context is serial and over its thread pool when it is threaded.

Bit-for-bit parity with the dense path holds because neither fold
holds a float sum: every partial is an integer (``Λ`` sums, edge cuts,
the NN fold's class totals) or a maximum, so any block partition gives
the dense value, and every NN scalar is one ``int / int`` division of
exact totals, which Python rounds correctly at any size.

:func:`pairwise_sum_stream` (NumPy's pairwise summation over a stream
of blocks) is called by neither fold; it survives only because the
benchmark harness (``perfbench/layers.py``) looks it up by name to
install its trace span.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Optional

import numpy as np

from repro.grid.neighbors import axis_pair_index_arrays
from repro.grid.universe import strict_index

__all__ = [
    "DEFAULT_CHUNK_CELLS",
    "pairwise_sum_stream",
    "slab_neighbor_counts",
    "accumulate_block_pairs",
    "nn_pair_blocks",
    "fold_step",
    "fold_ranges",
    "check_fold_envelope",
    "nn_reads",
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


def accumulate_block_pairs(
    body: np.ndarray,
    universe,
    sums: np.ndarray,
    best: np.ndarray,
    lambdas: list,
    scratch,
    kernels=None,
) -> None:
    """Fold every *within-block* NN pair of ``body`` into the partials.

    ``body`` is a block of key planes of ``universe`` (shape
    ``(t,) + (side,)*(d-1)``); pairs along axes >= 1 and interior
    axis-0 pairs (both endpoints in the block) update the per-cell
    ``sums``/``best`` grids and the per-axis ``lambdas`` totals in
    place.  Boundary axis-0 pairs (one endpoint outside the block) are
    the caller's job — :func:`nn_planes` reads the adjacent boundary
    planes itself.  Distance temporaries live in ``scratch`` (a
    :class:`repro.engine.threads.ScratchBuffers`).  When ``kernels``
    (a loaded :class:`repro.engine.native.NativeKernels`) is given and
    the arrays are contiguous, the whole fold runs as one compiled
    pass — pure int64 arithmetic either way, so the partials are
    bit-for-bit identical.
    """
    d, side = universe.d, universe.side
    if (
        kernels is not None
        and body.flags["C_CONTIGUOUS"]
        and sums.flags["C_CONTIGUOUS"]
        and best.flags["C_CONTIGUOUS"]
    ):
        kernels.nn_block_pairs(body, side, d, sums, best, lambdas)
        return
    for axis in range(1, d):
        # Axes >= 1 span whole planes, so the grid's pair slices apply
        # to a block of planes unchanged.
        lo_s, hi_s = axis_pair_index_arrays(universe, axis)
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


def nn_pair_blocks(ctx, of=None) -> Iterator[tuple]:
    """Every NN pair of ``ctx`` as aligned blocks: the one slab-wise walk.

    Walks :meth:`~repro.engine.MetricContext.iter_key_slabs` and yields
    ``(axis, p, a, b)``: ``a`` and ``b`` are aligned views of the lower
    and upper endpoint keys of the pairs along ``axis`` in the block,
    and ``p`` is the first axis-0 plane of ``a``.  Each slab yields the
    axis-0 pair crossing into it first (``a`` is the plane below, read
    through ``ctx._key_slab(lo - 1, lo)`` as :func:`nn_reads` reads
    it, so no carry crosses slabs), then its interior axis-0 pairs,
    then its pairs along each axis >= 1.  So the blocks of one axis
    come in the C order of their lower endpoints.  ``of``, when given,
    is an elementwise map applied once per slab and once per boundary
    plane; ``a`` and ``b`` are then views of its values instead.
    """
    pairs = [
        axis_pair_index_arrays(ctx.universe, axis)
        for axis in range(1, ctx.universe.d)
    ]
    for lo, hi, slab in ctx.iter_key_slabs():
        values = slab if of is None else of(slab)
        if lo > 0:
            below = ctx._key_slab(lo - 1, lo)
            yield 0, lo - 1, below if of is None else of(below), values[:1]
        if hi - lo > 1:
            yield 0, lo, values[:-1], values[1:]
        for axis, (lo_s, hi_s) in enumerate(pairs, start=1):
            yield axis, lo, values[lo_s], values[hi_s]


# ----------------------------------------------------------------------
# The NN fold
# ----------------------------------------------------------------------
def _spans(total: int, step: int) -> list:
    """``[0, total)`` cut into consecutive ``(lo, hi)`` spans of ``step``."""
    return [(lo, min(total, lo + step)) for lo in range(0, total, step)]


def _dense_step(threads: int, total: int) -> int:
    """Span length of a dense fold over ``total`` units: one span when
    serial, ``~threads × 4`` when threaded — mild oversubscription, so
    one slow range cannot stall the merge."""
    if threads < 2:
        return total
    return -(-total // (threads * _DENSE_OVERSUBSCRIPTION))


def fold_step(universe, chunk_cells: Optional[int], threads: int) -> int:
    """Planes per NN fold range of a context with these knobs: its slab
    thickness when that splits the grid, else :func:`_dense_step`.
    Known before any context exists, so a sweep can check the fold's
    envelope when it plans (:func:`check_fold_envelope`)."""
    side, plane = universe.side, universe.side ** (universe.d - 1)
    if chunk_cells is not None and chunk_cells // plane < side:
        return max(1, chunk_cells // plane)
    return _dense_step(threads, side)


def fold_ranges(ctx) -> list:
    """Axis-0 plane ranges ``(lo, hi)`` the NN fold walks.

    The slab partition, so the LRU-cached slabs are the fold's units;
    a one-slab partition (every dense context) is split by
    :func:`fold_step` instead.
    """
    step = fold_step(ctx.universe, ctx.chunk_cells, ctx.threads)
    return _spans(ctx.universe.side, step)


def check_fold_envelope(
    universe, chunk_cells: Optional[int], threads: int
) -> None:
    """Refuse an NN fold whose int64 partials could overflow.

    Both backends fold in int64.  A cell's stretch sum can reach
    ``2d·(n−1)``, so a range's class total can reach
    ``cells·2d·(n−1)``, ``cells`` being the cell count of the largest
    range a context with these knobs folds (:func:`fold_step`); the
    range's ``Λ`` and ``Σ max`` partials stay below ``cells·(n−1)``.
    Raises ``ValueError`` when the class-total bound reaches ``2^63``.

    >>> from repro.grid.universe import Universe
    >>> check_fold_envelope(Universe(d=2, side=2**31), None, 1)
    ... # doctest: +ELLIPSIS
    Traceback (most recent call last):
    ...
    ValueError: the NN fold of a 2-d universe ... overflows int64: ...
    """
    d, side = universe.d, universe.side
    cells = fold_step(universe, chunk_cells, threads) * side ** (d - 1)
    bound = cells * 2 * d * (universe.n - 1)
    if bound >= 1 << 63:
        raise ValueError(
            f"the NN fold of a {d}-d universe of side {side} overflows "
            f"int64: a range's class total can reach cells·2d·(n−1) = "
            f"{bound} >= 2^63"
        )


def nn_reads(ctx, lo: int, hi: int) -> tuple:
    """The key reads of the NN fold range ``[lo, hi)``: ``(body, below,
    above)``, the range's planes and the boundary planes ``lo - 1`` and
    ``hi`` (``None`` past the grid's edge).

    The one read behind :func:`nn_planes` and :func:`_nn_range_kernel`.
    The NN fold resolves it in the calling thread (see
    :func:`run_ranges`): a boundary plane of a one-plane slab partition
    is itself a canonical slab, and read in a worker it would be built
    and cached there.
    """
    side = ctx.universe.side
    return (
        ctx._key_slab(lo, hi),
        ctx._key_slab(lo - 1, lo) if lo > 0 else None,
        ctx._key_slab(hi, hi + 1) if hi < side else None,
    )


def nn_planes(
    ctx,
    lo: int,
    hi: int,
    sums: np.ndarray,
    best: np.ndarray,
    lambdas: list,
    scratch,
    reads=None,
) -> None:
    """Final per-cell NN sums and maxima of the planes ``x_0 ∈ [lo, hi)``.

    Self-contained: besides its own key planes the kernel reads the
    boundary planes ``lo - 1`` and ``hi`` itself (:func:`nn_reads`), so
    the ``sums`` and ``best`` it writes (int64 arrays of the range's
    shape, overwritten) are final — no carry crosses ranges, and ranges
    can run in any order or concurrently.  The range's ``Λ`` partials
    are added to ``lambdas``: the axis-0 boundary pair ``(lo-1, lo)``
    counts here, the pair ``(hi-1, hi)`` only updates per-cell state and
    is counted by the next range.  All updates are integer sums and
    maxima, so any range partition gives the same grids and totals.
    ``reads``, when given, is the range's :func:`nn_reads`, already
    resolved.
    """
    body, below, above = nn_reads(ctx, lo, hi) if reads is None else reads
    sums[...] = 0
    best[...] = 0
    accumulate_block_pairs(
        body, ctx.universe, sums, best, lambdas, scratch, kernels=ctx.kernels
    )
    plane_shape = (1,) + body.shape[1:]
    if below is not None:
        bdist = scratch.take("nn_bdist", plane_shape, np.int64)
        np.subtract(body[:1], below, out=bdist)
        np.abs(bdist, out=bdist)
        lambdas[0] += int(bdist.sum())
        sums[:1] += bdist
        np.maximum(best[:1], bdist, out=best[:1])
    if above is not None:
        udist = scratch.take("nn_bdist", plane_shape, np.int64)
        np.subtract(above, body[-1:], out=udist)
        np.abs(udist, out=udist)
        sums[-1:] += udist
        np.maximum(best[-1:], udist, out=best[-1:])


def _nn_range_kernel(ctx, lo: int, hi: int, scratch, reads=None):
    """One fold task: ``(class totals, Λ partials, Σ per-cell max)``.

    ``totals[c - d]`` is the sum of the stretch sums ``S(α)`` over the
    range's cells with ``c`` neighbours (``d ≤ c ≤ 2d``); every value
    is an int.  ``reads`` is the range's :func:`nn_reads` (resolved
    here when not given).  With native kernels the whole range is one C
    call (``NativeKernels.nn_range``) over those planes, and takes no
    scratch.  The NumPy reference runs :func:`nn_planes` into scratch
    grids and sums each neighbour-count class of them, the counts and
    the class mask computed into scratch as well.
    """
    d, side = ctx.universe.d, ctx.universe.side
    if reads is None:
        reads = nn_reads(ctx, lo, hi)
    if ctx.kernels is not None:
        return ctx.kernels.nn_range(*reads, side, d)
    shape = (hi - lo,) + (side,) * (d - 1)
    sums = scratch.take("nn_sums", shape, np.int64)
    best = scratch.take("nn_best", shape, np.int64)
    lambdas = [0] * d
    nn_planes(ctx, lo, hi, sums, best, lambdas, scratch, reads)
    counts = slab_neighbor_counts(
        ctx.universe, lo, hi, out=scratch.take("nn_counts", shape, np.int64)
    )
    mask = scratch.take("nn_class", shape, np.bool_)
    totals = [
        int(sums.sum(where=np.equal(counts, c, out=mask)))
        for c in range(d, 2 * d + 1)
    ]
    return totals, lambdas, int(best.sum())


def run_ranges(ctx, ranges, kernel, resolve=None) -> Iterator:
    """Results of ``kernel(ctx, lo, hi, scratch, reads)`` per range, in order.

    The one place that decides how a fold's ranges run: inline on a
    per-call scratch set (freed with the call) when the context is
    serial, through ``ctx.scheduler`` on per-thread scratch when it is
    threaded.  ``resolve(lo, hi)``, when given, supplies ``reads``
    in the calling thread as each range is submitted.  Both folds
    resolve their blocks there: built in a worker, a cached block
    would sit in that thread's malloc arena, which keeps the memory
    resident after the sweep where no other thread can reuse it.
    """
    # Lazy import: threads.py imports this module at its top level.
    from repro.engine.threads import ScratchBuffers

    def reads(lo: int, hi: int):
        return None if resolve is None else resolve(lo, hi)

    if not ctx.threaded:
        scratch = ScratchBuffers()
        return (
            kernel(ctx, lo, hi, scratch, reads(lo, hi)) for lo, hi in ranges
        )
    scheduler = ctx.scheduler
    return scheduler.imap(
        (
            lambda lo=lo, hi=hi, r=reads(lo, hi): kernel(
                ctx, lo, hi, scheduler.scratch(), r
            )
        )
        for lo, hi in ranges
    )


def nn_block_reduction(ctx) -> dict:
    """All NN-stretch scalars of ``ctx``: the engine's one NN fold.

    Runs one :func:`_nn_range_kernel` task per :func:`fold_ranges`
    range through :func:`run_ranges` and adds the tasks' integer
    partials.  ``D^avg = (1/n) Σ_c T_c / c`` over the class totals
    ``T_c``: with ``L = lcm(d, …, 2d)`` it is the one ``int / int``
    division ``Σ_c T_c·(L/c) / (L·n)``, correctly rounded, as are
    ``dmax`` and the NN mean.  Returns ``{"davg", "dmax", "lambdas",
    "nn_sum"}``, bit-for-bit equal in every mode and on every backend.
    Requires ``side >= 2``; the degenerate cases are handled by the
    calling metric methods.  A universe beyond the int64 envelope is
    refused before any range runs (:func:`check_fold_envelope`).
    """
    # Lazy import: threads.py imports this module at its top level.
    from repro.engine.threads import prepare_key_reads

    universe = ctx.universe
    d, n = universe.d, universe.n
    check_fold_envelope(universe, ctx.chunk_cells, ctx.threads)
    prepare_key_reads(ctx)
    totals, lambdas, max_total = [0] * (d + 1), [0] * d, 0
    for part, partial, max_part in run_ranges(
        ctx,
        fold_ranges(ctx),
        _nn_range_kernel,
        resolve=lambda lo, hi: nn_reads(ctx, lo, hi),
    ):
        totals = [t + p for t, p in zip(totals, part)]
        lambdas = [t + p for t, p in zip(lambdas, partial)]
        max_total += max_part
    lcm = math.lcm(*range(d, 2 * d + 1))
    weighted = sum(t * (lcm // c) for c, t in enumerate(totals, start=d))
    return {
        # int / int: one correctly rounded division, also past 2^53.
        "davg": weighted / (lcm * n),
        "dmax": max_total / n,
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
    """Ranges ``(t0, t1)`` of the order partition that hold left
    positions of ``window`` steps: the canonical order blocks, or
    :func:`_dense_step` spans when the order is one block."""
    n = ctx.universe.n
    _, step = ctx._order_span(0)
    step = _dense_step(ctx.threads, n) if step == n else step
    return [span for span in _spans(n, step) if span[0] < n - window]


def window_pairs(ctx, t0: int, t1: int, window: int, block=None) -> list:
    """The steps ``(t, t + window)`` leaving positions ``[t0, t1)``, as
    up to two aligned ``(s0, s1, a, b)`` blocks: ``a`` holds the cells at
    positions ``[s0, s1)``, ``b`` those ``window`` further on.  Steps
    inside the order block ``[t0, t1)`` (``block``, when resolved) are
    two slices of it; the rest pair its tail with an order read past it.
    """
    if block is None:
        block = ctx._order_block(t0, t1)
    inner = max(0, t1 - t0 - window)
    stop = min(t1, ctx.universe.n - window)
    pairs = []
    if inner:
        pairs.append((t0, t0 + inner, block[:inner], block[window:]))
    if t0 + inner < stop:
        lo, hi = t0 + inner + window, stop + window
        # This read may run in a worker: a whole block is not cached.
        whole = ctx._order_span(lo) == (lo, hi)
        tail = (ctx._order_values if whole else ctx._order_block)(lo, hi)
        pairs.append((t0 + inner, stop, block[inner : stop - t0], tail))
    return pairs


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
    every mode and on every backend.  Each range's order block is
    resolved in the calling thread, as the NN fold's key slabs are.
    ``window`` is already checked.
    """
    # Lazy import: threads.py imports this module at its top level.
    from repro.engine.threads import prepare_order_reads

    def kernel(ctx, t0: int, t1: int, scratch, block=None):
        return max(
            window_block_max(a, b, metric, scratch, kernels=ctx.kernels)
            for _, _, a, b in window_pairs(ctx, t0, t1, window, block)
        )

    prepare_order_reads(ctx)
    best = max(
        run_ranges(
            ctx, window_ranges(ctx, window), kernel, resolve=ctx._order_block
        )
    )
    return int(best) if metric == "manhattan" else float(best)
