"""The ContextPool: shared metric contexts across curves of a universe.

A :class:`repro.engine.MetricContext` kills redundancy *within* one
curve; a :class:`ContextPool` kills it *across* curves:

* **Universe sharing** — curve-independent intermediates (today the
  neighbor-count grid ``|N(α)|``) live in one per-universe store, so a
  ten-curve sweep of a universe materializes them once instead of ten
  times.
* **Transform derivation** — the curves in
  :mod:`repro.curves.transforms` are grid automorphisms of an inner
  curve, so their key grids and curve orders are cheap array
  transforms (negate / flip / transpose) of the inner curve's cached
  arrays.  The pool wires those derivation rules into the derived
  curve's context: the arrays produced are **bit-for-bit identical** to
  from-scratch computation, but cost ``O(n)`` array ops instead of a
  full curve evaluation, and are counted under
  :attr:`CacheStats.derived` rather than ``computes``.

:class:`repro.engine.Sweep` runs over a pool by default; the aggregate
:attr:`ContextPool.stats` land on the sweep result (and behind
``repro sweep --stats``).
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, Optional, Union

import numpy as np

from repro.curves.base import SpaceFillingCurve
from repro.engine.context import (
    DEFAULT_CACHE_BYTES,
    CacheStats,
    MetricContext,
    _BoundedStore,
)
from repro.grid.universe import Universe

__all__ = [
    "ContextPool",
    "transform_derivations",
    "chunked_transform_derivations",
]


def transform_derivations(
    curve: SpaceFillingCurve, base: MetricContext
) -> Optional[Dict[str, Callable[[], np.ndarray]]]:
    """Derivation rules for a transform-derived ``curve``, or ``None``.

    ``base`` is the context of ``curve.inner``.  Each rule is a zero-arg
    factory producing an intermediate bit-for-bit equal to what the
    derived curve would compute from scratch, but built from the base
    context's cached arrays:

    * :class:`~repro.curves.transforms.ReversedCurve` —
      ``π' = n−1−π``: the key grid is an arithmetic complement and the
      curve order is the base order walked backwards.
    * :class:`~repro.curves.transforms.ReflectedCurve` — reflection
      flips the listed axes of the key grid and maps the order's
      coordinates through the same reflection.
    * :class:`~repro.curves.transforms.AxisPermutedCurve` — axis
      relabeling transposes the key grid; the order's coordinate
      columns are scattered through ``perm``.

    Everything the NN fold needs comes from the key grid, so a derived
    context folds its derived grid like any other.
    """
    from repro.curves.transforms import (
        AxisPermutedCurve,
        ReflectedCurve,
        ReversedCurve,
    )

    def frozen(array: np.ndarray) -> np.ndarray:
        array.flags.writeable = False
        return array

    universe = curve.universe
    rules: Dict[str, Callable[[], np.ndarray]] = {}
    if isinstance(curve, ReversedCurve):
        rules["key_grid"] = lambda: universe.n - 1 - base.key_grid()
        # π'^{-1}(t) = π^{-1}(n−1−t): the base path, reversed.
        rules["order"] = lambda: frozen(
            np.ascontiguousarray(base.order()[::-1])
        )
        return rules
    if isinstance(curve, ReflectedCurve):
        axes = tuple(curve.axes)
        if not axes:  # reflecting no axes is the identity transform
            rules["key_grid"] = lambda: base.key_grid().copy()
            rules["order"] = lambda: frozen(base.order().copy())
            return rules
        rules["key_grid"] = lambda: np.ascontiguousarray(
            np.flip(base.key_grid(), axis=axes)
        )

        def reflected_order() -> np.ndarray:
            # π'^{-1}(t) = reflect(π^{-1}(t)): same visit order, with
            # the listed coordinate axes mirrored.
            path = base.order().copy()
            for axis in axes:
                path[:, axis] = universe.side - 1 - path[:, axis]
            return frozen(path)

        rules["order"] = reflected_order
        return rules
    if isinstance(curve, AxisPermutedCurve):
        # grid'[x] = grid[y] with y[k] = x[perm[k]]  ⇔  transpose(inv).
        inv = tuple(int(v) for v in np.argsort(curve.perm))
        perm = tuple(int(v) for v in curve.perm)
        rules["key_grid"] = lambda: np.ascontiguousarray(
            base.key_grid().transpose(inv)
        )

        def permuted_order() -> np.ndarray:
            # coords'[..., perm] = base coords (the wrapper's inverse).
            path = np.empty_like(base.order())
            path[:, perm] = base.order()
            return frozen(path)

        rules["order"] = permuted_order
        return rules
    return None


def chunked_transform_derivations(
    curve: SpaceFillingCurve, base: MetricContext
) -> Optional[Dict[str, Callable[[int, int], np.ndarray]]]:
    """Per-block derivation rules for a transform curve in chunked mode.

    The chunked analogue of :func:`transform_derivations`: each rule
    maps a block range ``(lo, hi)`` to the derived curve's block, built
    from the inner context's (cached) blocks and bit-for-bit equal to
    direct computation.  Implemented for
    :class:`~repro.curves.transforms.ReversedCurve` (``π' = n−1−π``:
    every block is the arithmetic complement of the base block; inverse
    blocks are mirrored base blocks).  The other transforms need no
    rule — their ``index``/``coords`` delegate to the inner curve on
    transformed coordinates, which is already ``O(block)``.
    """
    from repro.curves.transforms import ReversedCurve

    if not isinstance(curve, ReversedCurve):
        return None
    n = curve.universe.n

    def base_slab(lo: int, hi: int) -> np.ndarray:
        # Canonical spans go through the base LRU (cached, reusable by
        # the base's own reductions); off-partition reads — a threaded
        # kernel's single-plane boundary lookups — bypass it, so the
        # base store never fills with overlapping off-partition keys.
        if (lo, hi) == base._slab_span(lo):
            return base._key_slab(lo, hi)
        return base._key_slab_values(lo, hi)

    return {
        "key_slab": lambda lo, hi: n - 1 - base_slab(lo, hi),
        "key_block": lambda lo, hi: n - 1 - base._key_block(lo, hi),
        "inverse_block": lambda lo, hi: np.ascontiguousarray(
            base._inverse_block(n - hi, n - lo)[::-1]
        ),
    }


class ContextPool:
    """A family of :class:`MetricContext`\\ s with shared state.

    ``get(curve)`` returns the pool's context for the curve's
    *canonical spec* — the key is
    :meth:`repro.curves.base.SpaceFillingCurve.cache_key`
    ``(type, universe, parameters)`` — so two separately instantiated
    but equivalent curves (e.g. two ``ZCurve`` objects on equal
    universes, or two ``RandomCurve(seed=3)``) share one context and
    one cached intermediate set.  Contexts of the same universe
    additionally share one store for curve-independent intermediates,
    and transform-derived curves (``curve.inner``) get derivation rules
    against their inner curve's context (created transitively).
    ``get`` also accepts an existing :class:`MetricContext` and returns
    it unchanged, so the pool composes with the ``get_context``
    coercion used throughout :mod:`repro.analysis` and
    :mod:`repro.apps`.

    ``chunk_cells`` puts every pooled context into the engine's chunked
    mode; transform derivation then happens per block (see
    :func:`chunked_transform_derivations`).

    ``shared_store`` plugs in a :class:`repro.engine.shm.SharedGridStore`
    (typically attached inside a process-sweep worker): dense-mode
    contexts then resolve their key grid, flat keys, inverse permutation
    and neighbor counts as zero-copy views of the parent-published
    segments before falling back to local compute, counted under
    :attr:`repro.engine.CacheStats.shared`.  Chunked contexts ignore the
    store — they exist precisely to avoid dense ``O(n)`` arrays.

    ``store``/``store_dir`` additionally wires every member context to
    one persistent :class:`repro.engine.store.GridStore`: dense
    contexts resolve (and write through) their grid intermediates as
    checksummed on-disk memmaps, counted under
    :attr:`repro.engine.CacheStats.mmap`, and chunked contexts use the
    same artifacts for out-of-core spill (see ``docs/persistence.md``).

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
        derive_transforms: bool = True,
        chunk_cells: Optional[int] = None,
        shared_store: Optional[object] = None,
        threads: Union[None, int, str] = None,
        backend: str = "auto",
        store: Optional[object] = None,
        store_dir: Optional[str] = None,
    ) -> None:
        self.max_bytes = max_bytes
        self.derive_transforms = derive_transforms
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
        self._universe_stores: Dict[Universe, _BoundedStore] = {}
        # Reentrant: `get` recurses into itself for transform inners.
        # The pool is hammered concurrently when per-cell contexts run
        # threaded reductions or callers share one pool across threads.
        self._lock = threading.RLock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._contexts)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        with self._lock:
            n_contexts = len(self._contexts)
            n_universes = len(self._universe_stores)
        return (
            f"ContextPool({n_contexts} contexts, "
            f"{n_universes} universes, {self.stats!r})"
        )

    def universe_store(self, universe: Universe) -> _BoundedStore:
        """The shared store for curve-independent state of ``universe``."""
        with self._lock:
            store = self._universe_stores.get(universe)
            if store is None:
                store = _BoundedStore(self.max_bytes)
                self._universe_stores[universe] = store
            return store

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
                universe_store=self.universe_store(curve.universe),
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
            if self.derive_transforms:
                inner = getattr(curve, "inner", None)
                if isinstance(inner, SpaceFillingCurve):
                    base = self.get(inner)
                    if self.chunk_cells is not None:
                        rules = chunked_transform_derivations(curve, base)
                        if rules:
                            ctx._chunk_derivations.update(rules)
                    else:
                        rules = transform_derivations(curve, base)
                        if rules:
                            ctx._derivations.update(rules)
            self._contexts[key] = ctx
            self._curves[key] = curve
            return ctx

    def _wire_shared(
        self, ctx: MetricContext, curve: SpaceFillingCurve
    ) -> None:
        """Point ``ctx`` at the parent-published shared-memory segments.

        Instance-keyed curves have no process-stable spec key and are
        left on the local compute path; specs the parent did not publish
        resolve to ``None`` at lookup time and likewise fall through.
        """
        from repro.engine.shm import SHARED_KINDS, shared_key, universe_key

        store = self.shared_store
        skey = shared_key(curve)
        if skey is not None:
            for kind in SHARED_KINDS:
                ctx._shared_sources[kind] = (
                    lambda k=skey, kd=kind: store.get(k, kd)
                )
        ukey = universe_key(curve.universe)
        ctx._shared_sources["neighbor_counts"] = (
            lambda: store.get(ukey, "neighbor_counts")
        )

    @property
    def stats(self) -> CacheStats:
        """Aggregate counters over all member contexts + shared stores.

        Snapshots the member lists under the pool lock so a stats read
        racing a concurrent ``get`` cannot observe the registries
        mid-mutation.
        """
        with self._lock:
            contexts = list(self._contexts.values())
            stores = list(self._universe_stores.values())
        return CacheStats.aggregate(
            [ctx.stats for ctx in contexts]
            + [store.stats for store in stores]
        )

    @property
    def cache_bytes(self) -> int:
        """Total bytes held across all member and shared stores."""
        with self._lock:
            contexts = list(self._contexts.values())
            stores = list(self._universe_stores.values())
        return sum(ctx.cache_bytes for ctx in contexts) + sum(
            store.nbytes for store in stores
        )

    def clear(self) -> None:
        """Drop every context, curve reference and shared store."""
        with self._lock:
            self._contexts.clear()
            self._curves.clear()
            self._universe_stores.clear()
