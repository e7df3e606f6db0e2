"""Thread-parallel block execution inside one :class:`MetricContext`.

The fourth and final leg of the engine's parallelism story:

* PR 1 **vectorized** every metric onto dense NumPy kernels,
* PR 3 **chunked** them into fixed-size block reductions,
* PR 4 **shared** grids across process-sweep workers, and
* this module **threads** the block reductions of a single context, so
  one cell's metric set saturates several cores instead of one.

Why threads work here: the block kernels are NumPy ufunc chains over
int64/float64 arrays, and NumPy releases the GIL for the duration of
each array operation.  A :class:`BlockScheduler` therefore fans the
engine's block iterators (key slabs, window-pair ranges) out to a
``ThreadPoolExecutor`` and the workers genuinely run concurrently —
no process spawn, no pickling, zero-copy access to every cached array.

There is one NN fold, :func:`repro.engine.chunked.nn_block_reduction`;
a threaded context runs its range tasks through the context's
scheduler instead of inline.  Determinism needs nothing extra:

* every range task is **self-contained** (a task owning grid planes
  ``[lo, hi)`` reads the two adjacent boundary planes itself, so no
  cross-task carry exists to race on);
* integer reductions (``Λ`` sums, per-cell maxima, boundary pairs) are
  associative, so per-task partials sum to the dense value exactly;
* the one order-sensitive reduction — the float mean behind ``D^avg``
  — is merged **in range order** through
  :func:`repro.engine.chunked.pairwise_sum_stream`, which replays
  NumPy's pairwise summation tree over the logical value stream.  The
  stream's content and order are independent of which thread produced
  which range, so threaded results are **bit-for-bit identical** to
  serial ones.

Workers write into per-thread :class:`ScratchBuffers` (``out=`` ufunc
targets reused across blocks), so steady-state kernels allocate only
their result arrays.

>>> sched = BlockScheduler(threads=2)
>>> sched.map([lambda i=i: i * i for i in range(5)])  # order preserved
[0, 1, 4, 9, 16]
"""

from __future__ import annotations

import itertools
import os
import threading
import weakref
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Union

import numpy as np

from repro.engine.chunked import _DENSE_OVERSUBSCRIPTION, nn_block_reduction

__all__ = [
    "BlockScheduler",
    "ScratchBuffers",
    "resolve_threads",
    "quiesce_schedulers",
    "prepare_box_reads",
    "threaded_window_max",
]

#: Every live scheduler, so a process sweep can join their worker
#: threads before forking (see :func:`quiesce_schedulers`).
_LIVE_SCHEDULERS: "weakref.WeakSet[BlockScheduler]" = weakref.WeakSet()


def quiesce_schedulers() -> None:
    """Join every live scheduler's worker threads (executors rebuild).

    ``fork()`` in a multi-threaded process is hazardous: a forked
    child inherits lock state from threads that no longer exist in it.
    Idle scheduler workers linger until their executor is garbage
    collected, so a process sweep calls this immediately before
    creating its ``ProcessPoolExecutor`` — schedulers stay usable
    (each lazily recreates its executor on next use), only the idle
    threads are reaped.

    Best-effort by design: a threaded reduction *actively running* in
    another thread rebuilds its executor on its next submit, so this
    guarantees a thread-free fork only when process sweeps are
    launched while no threaded reduction is in flight (the normal
    case).  Launching a process sweep concurrently with threaded
    metric calls keeps the generic CPython fork-with-threads caveat.
    """
    for scheduler in list(_LIVE_SCHEDULERS):
        scheduler.close()


def resolve_threads(
    threads: Union[None, int, str],
    processes: Optional[int] = None,
    cores: Optional[int] = None,
) -> int:
    """Resolve a ``threads`` spec to a concrete worker count.

    ``None`` means serial (1).  ``"auto"`` divides the machine's cores
    by the number of sweep worker *processes* (if any), so
    ``processes × threads <= cores`` and a process sweep is never
    oversubscribed by its own cells.  An explicit positive int is taken
    as given.

    >>> resolve_threads(None)
    1
    >>> resolve_threads(3)
    3
    >>> resolve_threads("auto", processes=4, cores=8)
    2
    >>> resolve_threads("auto", processes=16, cores=8)
    1
    """
    if threads is None:
        return 1
    if threads == "auto":
        if cores is None:
            cores = os.cpu_count() or 1
        per_process = int(processes) if processes else 1
        return max(1, cores // max(1, per_process))
    if isinstance(threads, bool) or not isinstance(threads, int):
        raise ValueError(
            f'threads must be a positive int, "auto" or None, '
            f"got {threads!r}"
        )
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    return threads


class ScratchBuffers:
    """Named, growable ``out=`` targets for one worker thread.

    ``take(tag, shape, dtype)`` returns a view of a thread-private
    backing buffer, reallocating only when the request outgrows what
    the tag has seen before — so a kernel that runs over many blocks
    allocates its temporaries once and reuses them for every block.
    Returned views are *uninitialized* (they alias the previous
    block's values); callers must fully overwrite or zero them.
    """

    def __init__(self) -> None:
        self._buffers: Dict[str, np.ndarray] = {}

    def take(self, tag: str, shape, dtype) -> np.ndarray:
        """An uninitialized ``shape``/``dtype`` view under ``tag``."""
        size = int(np.prod(shape, dtype=np.int64))
        backing = self._buffers.get(tag)
        if (
            backing is None
            or backing.size < size
            or backing.dtype != np.dtype(dtype)
        ):
            backing = np.empty(max(size, 1), dtype=dtype)
            self._buffers[tag] = backing
        return backing[:size].reshape(shape)

    @property
    def nbytes(self) -> int:
        """Total bytes currently held by this thread's buffers."""
        return sum(buf.nbytes for buf in self._buffers.values())


class BlockScheduler:
    """Order-preserving fan-out of block tasks over a thread pool.

    The scheduler owns a lazily created ``ThreadPoolExecutor`` and a
    per-thread :class:`ScratchBuffers` set.  :meth:`imap` submits
    callables with a bounded prefetch window and yields their results
    **in submission order**, so a streaming consumer (such as
    :func:`repro.engine.chunked.pairwise_sum_stream`) sees the same
    deterministic block sequence a serial loop would produce while at
    most ``threads + 2`` block results are in flight.

    ``threads=1`` degenerates to inline execution on the calling
    thread — no executor is created, which keeps serial contexts free
    of thread machinery.
    """

    def __init__(self, threads: int = 1) -> None:
        if threads < 1:
            raise ValueError(f"threads must be >= 1, got {threads}")
        self.threads = int(threads)
        self._executor: Optional[ThreadPoolExecutor] = None
        self._local = threading.local()
        self._lock = threading.Lock()
        _LIVE_SCHEDULERS.add(self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "live" if self._executor is not None else "idle"
        return f"BlockScheduler(threads={self.threads}, {state})"

    def scratch(self) -> ScratchBuffers:
        """The calling thread's private scratch-buffer set."""
        buffers = getattr(self._local, "buffers", None)
        if buffers is None:
            buffers = ScratchBuffers()
            self._local.buffers = buffers
        return buffers

    def _ensure_executor(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=self.threads,
                    thread_name_prefix="repro-block",
                )
            return self._executor

    def imap(
        self, tasks: Iterable[Callable[[], object]]
    ) -> Iterator[object]:
        """Run ``tasks`` concurrently, yielding results in task order.

        The prefetch window bounds in-flight results to
        ``threads + 2``, so streaming over an ``O(n / block)``-long
        task list holds ``O(threads × block)`` values, not ``O(n)``.
        A task exception propagates at its position in the stream.
        """
        it = iter(tasks)
        if self.threads == 1:
            for fn in it:
                yield fn()
            return
        window = self.threads + 2
        pending: deque = deque()
        for fn in itertools.islice(it, window):
            pending.append(self._submit(fn))
        while pending:
            done = pending.popleft()
            fn = next(it, None)
            if fn is not None:
                pending.append(self._submit(fn))
            yield done.result()

    def _submit(self, fn: Callable[[], object]):
        """Submit, transparently rebuilding a concurrently closed pool."""
        try:
            return self._ensure_executor().submit(fn)
        except RuntimeError:
            # close()/quiesce_schedulers() shut the executor between
            # our lookup and the submit; rebuild and retry once.
            with self._lock:
                self._executor = None
            return self._ensure_executor().submit(fn)

    def map(self, tasks: Iterable[Callable[[], object]]) -> List[object]:
        """:meth:`imap`, materialized."""
        return list(self.imap(tasks))

    def close(self) -> None:
        """Shut the executor down (idempotent; scheduler stays usable)."""
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)


# ----------------------------------------------------------------------
# Fan-out preparation
# ----------------------------------------------------------------------
def _warm_curve_caches(ctx, inverse: bool) -> None:
    """Touch the curve's lazy cache in the calling thread before fan-out.

    A cold first touch raced by N workers builds N copies of the
    curve-level ``O(n)`` table (the argsort inverse behind generic
    ``coords``, or a table-backed curve's key grid behind ``index``) —
    multiplying transient memory by the thread count in the mode that
    exists to bound memory.  One single-element probe warms exactly
    the table the workers will read; analytic curves pay a no-op.
    Transform wrappers delegate, so their inner curve warms too.
    """
    if inverse:
        ctx.curve.coords(np.zeros(1, dtype=np.int64))
    else:
        ctx.curve.index(np.zeros((1, ctx.universe.d), dtype=np.int64))


def prepare_box_reads(ctx) -> None:
    """Resolve the state box-sampling workers share, before fan-out.

    The sampling loops threaded through the scheduler (cluster counts,
    range-query costs) evaluate per-box kernels that read the dense key
    grid — or, in chunked mode, call ``curve.index`` on rectangle
    cells.  Both sit behind lazy caches whose cold first touch must not
    be raced by N workers (N redundant ``O(n)`` builds); resolving them
    once in the calling thread makes the fanned-out tasks pure readers.
    """
    if ctx.chunked:
        _warm_curve_caches(ctx, inverse=False)
    else:
        ctx.key_grid()


#: The NN fold is :func:`repro.engine.chunked.nn_block_reduction` in
#: every mode; this name survives only because the benchmark harness
#: (``perfbench/layers.py``) looks it up to install its trace span.
threaded_nn_reduction = nn_block_reduction


# ----------------------------------------------------------------------
# The threaded window-dilation reduction
# ----------------------------------------------------------------------
def _block_max_distance(
    a: np.ndarray,
    b: np.ndarray,
    metric: str,
    scratch: ScratchBuffers,
    kernels=None,
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


def threaded_window_max(ctx, window: int, metric: str = "manhattan"):
    """``window_dilation`` reduced block-parallel across threads.

    Dense contexts slice the cached curve order (zero-copy); chunked
    contexts evaluate coordinate blocks exactly like
    :meth:`~repro.engine.MetricContext.iter_window_pairs`, but each
    block on its own worker thread.  The merge is a plain ``max`` over
    block maxima — order-free, hence bit-for-bit equal to both serial
    paths.
    """
    universe = ctx.universe
    n = universe.n
    scheduler = ctx.scheduler
    total = n - window
    if ctx.chunked:
        _warm_curve_caches(ctx, inverse=True)
        step = ctx.chunk_cells
        path = None
    else:
        parts = max(1, scheduler.threads * _DENSE_OVERSUBSCRIPTION)
        step = max(1, -(-total // parts))
        path = ctx.order()

    def make(t0: int, t1: int):
        def run():
            if path is None:
                idx = np.arange(t0, t1, dtype=np.int64)
                a = ctx.curve.coords_of(idx, backend=ctx.backend)
                b = ctx.curve.coords_of(idx + window, backend=ctx.backend)
            else:
                a, b = path[t0:t1], path[t0 + window : t1 + window]
            return _block_max_distance(
                a, b, metric, scheduler.scratch(), kernels=ctx.kernels
            )

        return run

    tasks = [
        make(t0, min(total, t0 + step)) for t0 in range(0, total, step)
    ]
    best = None
    for value in scheduler.imap(tasks):
        best = value if best is None else max(best, value)
    return int(best) if metric == "manhattan" else float(best)
