"""The ContextPool: shared metric contexts across curves of a universe.

A :class:`repro.engine.MetricContext` kills redundancy *within* one
curve; a :class:`ContextPool` kills it *across* curves:

* **Transform derivation** — the curves in
  :mod:`repro.curves.transforms` are grid automorphisms of an inner
  curve, and each derives its key slabs from the inner curve's in its
  own ``key_slab`` (negate / flip / transpose).  The pool points a
  transform's context at the inner curve's pooled context
  (``ctx._base``), so those slabs are read from that context's cache:
  **bit-for-bit identical** to from-scratch computation, ``O(n)``
  array ops instead of a curve evaluation, and counted under
  :attr:`CacheStats.derived` rather than ``computes``.  Everything
  else (flat keys, curve order) follows from the grid.

:class:`repro.engine.Sweep` runs over a pool by default; the aggregate
:attr:`ContextPool.stats` land on the sweep result (and behind
``repro sweep --stats``).
"""

from __future__ import annotations

import threading
from typing import Dict, Optional, Union

from repro.curves.base import SpaceFillingCurve
from repro.curves.transforms import CurveTransform
from repro.engine.context import (
    DEFAULT_CACHE_BYTES,
    CacheStats,
    MetricContext,
)

__all__ = ["ContextPool"]


class ContextPool:
    """A family of :class:`MetricContext`\\ s with shared state.

    ``get(curve)`` returns the pool's context for the curve's
    *canonical spec* — the key is
    :meth:`repro.curves.base.SpaceFillingCurve.cache_key`
    ``(type, universe, parameters)`` — so two separately instantiated
    but equivalent curves (e.g. two ``ZCurve`` objects on equal
    universes, or two ``RandomCurve(seed=3)``) share one context and
    one cached intermediate set.  A transform curve's context reads
    its inner curve's slabs through that curve's pooled context
    (created transitively).
    ``get`` also accepts an existing :class:`MetricContext` and returns
    it unchanged, so the pool composes with the ``get_context``
    coercion used throughout :mod:`repro.analysis` and
    :mod:`repro.apps`.

    ``chunk_cells`` puts every pooled context into the engine's chunked
    mode.  Transform derivation is the same either way: a transform
    maps slab ranges (see :mod:`repro.curves.transforms`), and a dense
    context is the one-slab case.

    ``shared_store`` plugs in a :class:`repro.engine.shm.SharedGridStore`
    (typically attached inside a process-sweep worker): dense-mode
    contexts then resolve their key grid as a zero-copy view of the
    parent-published segment before falling back to local compute,
    counted under :attr:`repro.engine.CacheStats.shared`, and derive
    flat keys and curve order from it.  Chunked contexts
    ignore the store — they exist precisely to avoid dense ``O(n)``
    arrays.

    ``store``/``store_dir`` additionally wires every member context to
    one persistent :class:`repro.engine.store.GridStore`: dense
    contexts resolve (and write through) their key grid as a
    checksummed on-disk memmap, counted under
    :attr:`repro.engine.CacheStats.mmap`, and chunked contexts slice
    their key slabs from a grid a dense run committed (see
    ``docs/persistence.md``).  Both tiers hold only grids
    :func:`repro.engine.shm.reuse_key` keys.

    The pool holds strong references to its curves: its lifetime should
    be scoped to a unit of work (one sweep, one report), not global.

    >>> from repro import Universe, ZCurve
    >>> from repro.engine import ContextPool
    >>> pool = ContextPool()
    >>> ctx = pool.get(ZCurve(Universe.power_of_two(d=2, k=3)))
    >>> pool.get(ctx.curve) is ctx
    True
    """

    def __init__(
        self,
        max_bytes: Optional[int] = DEFAULT_CACHE_BYTES,
        chunk_cells: Optional[int] = None,
        shared_store: Optional[object] = None,
        threads: Union[None, int, str] = None,
        backend: str = "auto",
        store: Optional[object] = None,
        store_dir: Optional[str] = None,
    ) -> None:
        self.max_bytes = max_bytes
        self.chunk_cells = chunk_cells
        self.shared_store = shared_store
        #: One persistent :class:`repro.engine.store.GridStore` shared
        #: by every member context (``store_dir`` constructs it), so
        #: per-process verification state and counters aggregate in one
        #: place.  ``None`` leaves contexts purely in-memory.
        if store is None and store_dir is not None:
            from repro.engine.store import GridStore

            store = GridStore(store_dir)
        self.grid_store = store
        #: Worker-thread count handed to every member context (see
        #: :class:`MetricContext`); ``None`` keeps contexts serial.
        self.threads = threads
        #: Compute backend handed to every member context
        #: (``"numpy"``/``"native"``/``"auto"``; see
        #: :mod:`repro.engine.native`).
        self.backend = backend
        #: One scheduler shared by every member context: without it a
        #: threaded multi-curve sweep would hold threads-per-curve
        #: idle OS threads (each context lazily building its own
        #: executor) for the pool's lifetime.
        self._scheduler = None
        self._contexts: Dict[tuple, MetricContext] = {}
        # Strong curve refs: instance-keyed curves (explicit
        # PermutationCurve tables) stay alive with the pool so their
        # contexts remain reachable through `get` for its lifetime.
        self._curves: Dict[tuple, SpaceFillingCurve] = {}
        # Reentrant: `get` recurses into itself for transform inners.
        # The pool is hammered concurrently when per-cell contexts run
        # threaded reductions or callers share one pool across threads.
        self._lock = threading.RLock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._contexts)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ContextPool({len(self)} contexts, {self.stats!r})"

    def get(
        self, curve: Union[SpaceFillingCurve, MetricContext]
    ) -> MetricContext:
        """The pooled context of ``curve``'s spec (contexts pass through).

        Thread-safe: concurrent callers racing on the same spec get
        the same context object (creation and registration happen
        under the pool lock).
        """
        if isinstance(curve, MetricContext):
            return curve
        key = curve.cache_key()
        with self._lock:
            ctx = self._contexts.get(key)
            if ctx is not None:
                return ctx
            ctx = MetricContext(
                curve,
                max_bytes=self.max_bytes,
                chunk_cells=self.chunk_cells,
                threads=self.threads,
                backend=self.backend,
                store=self.grid_store,
            )
            if ctx.threads > 1:
                # All pooled contexts resolve the same thread count,
                # so they can share one scheduler (and its worker
                # threads / per-thread scratch buffers).
                if self._scheduler is None:
                    from repro.engine.threads import BlockScheduler

                    self._scheduler = BlockScheduler(ctx.threads)
                ctx._scheduler = self._scheduler
            if self.shared_store is not None and self.chunk_cells is None:
                self._wire_shared(ctx, curve)
            if isinstance(curve, CurveTransform):
                ctx._base = self.get(curve.inner)
            self._contexts[key] = ctx
            self._curves[key] = curve
            return ctx

    def _wire_shared(
        self, ctx: MetricContext, curve: SpaceFillingCurve
    ) -> None:
        """Point ``ctx`` at its parent-published key-grid segment.

        Curves :func:`repro.engine.shm.reuse_key` exempts are left on
        the local compute path; specs the parent did not publish
        resolve to ``None`` at lookup time and likewise fall through.
        """
        from repro.engine.shm import reuse_key

        store = self.shared_store
        skey = reuse_key(curve, ctx.backend)
        if skey is not None:
            ctx._grid_views["shared"] = lambda: store.get(skey, "key_grid")

    @property
    def stats(self) -> CacheStats:
        """Aggregate counters over all member contexts.

        Snapshots the member list under the pool lock so a stats read
        racing a concurrent ``get`` cannot observe the registry
        mid-mutation.
        """
        with self._lock:
            contexts = list(self._contexts.values())
        return CacheStats.aggregate(ctx.stats for ctx in contexts)

    @property
    def cache_bytes(self) -> int:
        """Total bytes held across all member contexts."""
        with self._lock:
            contexts = list(self._contexts.values())
        return sum(ctx.cache_bytes for ctx in contexts)

    def clear(self) -> None:
        """Drop every context and curve reference."""
        with self._lock:
            self._contexts.clear()
            self._curves.clear()
