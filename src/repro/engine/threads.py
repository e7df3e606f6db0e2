"""Thread-parallel block execution inside one :class:`MetricContext`.

This module **threads** the block reductions of a single context, so
one cell's metric set saturates several cores instead of one.  Why
threads work here: the block kernels are NumPy ufunc chains over
int64/float64 arrays, and NumPy releases the GIL for the duration of
each array operation.  A :class:`BlockScheduler` therefore fans the
engine's block iterators (key slabs, window-pair ranges) out to a
``ThreadPoolExecutor`` and the workers genuinely run concurrently —
no process spawn, no pickling, zero-copy access to every cached array.

There is one range runner, :func:`repro.engine.chunked.run_ranges`,
with two folds on it (the NN fold and the window fold); a threaded
context runs their range tasks through the context's scheduler
instead of inline.  Determinism needs nothing extra:

* every range task is **self-contained** (a task owning grid planes
  ``[lo, hi)`` is handed the two adjacent boundary planes with its own,
  read in the calling thread, so no cross-task carry exists to race
  on);
* every partial is an integer (``Λ`` sums, per-cell maxima, the
  ``D^avg`` class totals, window maxima) or a maximum, so per-task
  partials merge to the dense value in any order, and each NN scalar
  is one ``int / int`` division of the merged totals.  Threaded
  results are therefore **bit-for-bit identical** to serial ones.

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

from repro.engine.chunked import nn_block_reduction

__all__ = [
    "BlockScheduler",
    "ScratchBuffers",
    "resolve_threads",
    "quiesce_schedulers",
    "prepare_key_reads",
    "prepare_order_reads",
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
    **in submission order**, so a streaming consumer sees the same
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
def prepare_key_reads(ctx) -> None:
    """Resolve the first canonical key slab before the NN fold fans out.

    A dense context's threaded ranges slice its one slab, the key grid,
    only when it is resident: caching it here keeps N workers from
    building it N times.  A budget too small to keep the slab resolves
    nothing ahead, and each range builds its own keys.
    """
    lo, hi = ctx._slab_ranges()[0]
    side, d = ctx.universe.side, ctx.universe.d
    if ctx._store.retains(8 * (hi - lo) * side ** (d - 1)):
        ctx._key_slab(lo, hi)


def prepare_order_reads(ctx) -> None:
    """:func:`prepare_key_reads` for the window fold's order blocks."""
    t0, t1 = ctx._order_span(0)
    if ctx._store.retains(8 * ctx.universe.d * (t1 - t0)):
        ctx._order_block(t0, t1)


#: The NN fold is :func:`repro.engine.chunked.nn_block_reduction` in
#: every mode; this name survives only because the benchmark harness
#: (``perfbench/layers.py``) looks it up to install its trace span.
threaded_nn_reduction = nn_block_reduction

