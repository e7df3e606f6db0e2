"""The metric engine: one cached compute core per (curve, universe).

Every exact stretch metric (Definitions 1–4, Lemma 5 groups, all-pairs
stretch) consumes the same handful of intermediates:

* the dense **key grid** ``π(α)`` (one ``O(n)`` curve evaluation),
* the **NN fold** over every nearest-neighbour key pair — one integer
  pass (:func:`repro.engine.chunked.nn_block_reduction`) that yields
  ``D^avg``, ``D^max``, ``Λ_i`` and the NN mean together, each one
  ``int / int`` division of exact totals (``D^avg`` sums the stretch
  sums per neighbour-count class ``|N(α)|``),
* the **window fold** over every pair of cells ``window`` apart on the
  curve (:func:`repro.engine.chunked.window_max_reduction`), memoized
  per ``(window, metric)`` as a scalar,
* the per-cell sum / max grids, on request,
* the **curve order** ``π^{-1}``, the one position→cell artifact, and
  the rank-ordered flat key array.

A :class:`MetricContext` materializes each intermediate **at most
once**, holds it in a memory-bounded LRU store, and exposes every
metric as a method that reuses the shared state; the free functions in
:mod:`repro.core` delegate here through :func:`get_context`.

Cached arrays are returned **read-only** (``writeable=False``): callers
share the cache, so in-place mutation would silently corrupt every later
metric.  Copy first if you need a scratch buffer.

**Two block accessors.**  Every key read goes through
:meth:`MetricContext._key_slab` (axis-0 plane ranges) and every read of
cells in curve order through :meth:`MetricContext._order_block`
(curve-position ranges).  Each caches the canonical blocks of its
partition and slices or evaluates any other range
(:meth:`~MetricContext._canonical_read`).  A dense context's partitions
are one block each, cached as ``key_grid`` and ``order``.  The NN
fold, the window fold, the cluster count and the range-query index
read these blocks in every mode.

**Chunked mode** (``chunk_cells=...``) serves universes whose dense
``(side,)*d`` arrays would not fit the cache budget (or memory): key
slabs hold about ``chunk_cells`` cells and order blocks ``chunk_cells``
positions (:meth:`MetricContext.iter_key_slabs`; curve steps stream
through :meth:`~MetricContext.iter_window_pairs`), recently used blocks
are kept in the same ``max_bytes`` LRU store, and every metric method
reduces block-wise with values bit-for-bit equal to the dense path (see
:mod:`repro.engine.chunked` for how that equality is engineered).
Memory model: ``max_bytes`` bounds what is *retained*, ``chunk_cells``
bounds what is *materialized at once*.  Methods that inherently return a
dense ``O(n)`` array raise in chunked mode and name what to use
instead.  The ``O(block)`` guarantee holds for procedural curves
(Z, Gray, Hilbert, Moore, snake, simple, spiral, diagonal);
table-backed curves (:class:`repro.curves.base.PermutationCurve`
subclasses such as ``random`` or ``peano``) are already defined by a
dense table and gain no memory over the dense mode.

**One runner, two folds.**  Every NN metric reads one memoized result
of :func:`repro.engine.chunked.nn_block_reduction`, which runs the
self-contained range task :func:`~repro.engine.chunked._nn_range_kernel`
over axis-0 plane ranges.  Every window dilation reads one memoized
result of :func:`~repro.engine.chunked.window_max_reduction`, which
walks curve-position ranges and merges block maxima.  A dense context
folds as one range, a chunked one folds its slab or order-block
partition, and both folds hand their ranges to
:func:`~repro.engine.chunked.run_ranges`, the one place that decides
how ranges run.  The NN distance values and the Lemma 5 groups read
their pairs from :func:`~repro.engine.chunked.nn_pair_blocks`, the one
slab-wise NN-pair walk.

**Threaded mode** (``threads=N`` / ``threads="auto"``): ``run_ranges``
submits the range tasks to a :class:`repro.engine.threads.BlockScheduler`
thread pool (dense work splits into ``~threads × 4`` ranges); the
NumPy block kernels release the GIL.  Each range's blocks — for the NN
fold its planes and both boundary planes
(:func:`~repro.engine.chunked.nn_reads`) — are resolved in the calling
thread, so no worker builds a cached block.  Results stay bit-for-bit
identical to serial runs: every range returns integers and maxima,
which merge the same in any order.

**Native backend** (``backend="native"``/``"auto"``): a kernel-table
swap.  The range kernel's pair fold, neighbor counts, window max and
batch curve encode/decode dispatch to the compiled C library of
:mod:`repro.engine.native` when it is available, falling back to the
NumPy bodies otherwise.  Backend choice never changes values: the
kernels return exact integers and the one division per scalar stays
in Python, so every metric is bit-for-bit equal across
``{numpy, native}`` × ``{dense, chunked, threaded}``.

**Key-slab tiers.**  A canonical slab resolves cheapest first: the
cache, a slice of a zero-copy view of the ``key_grid`` a process sweep
published in shared memory (:class:`repro.engine.shm.SharedGridStore`,
counted in :attr:`CacheStats.shared`), a slice of a read-only memmap
of a checksummed :class:`repro.engine.store.GridStore` artifact
(``store_dir=...``, counted in :attr:`CacheStats.mmap`), then the
curve's own :meth:`~repro.curves.base.SpaceFillingCurve.key_slab`.
Views are retained outside the ``max_bytes`` budget, and a computed
whole grid is written through to the store, so a later process starts
warm.  A transform curve in a :class:`repro.engine.ContextPool` reads
its inner curve's slabs through the pooled base context (``_base``),
counted in :attr:`CacheStats.derived`.  Only curves
:func:`repro.engine.shm.reuse_key` keys are shared or stored.  See
``docs/memory-model.md`` and ``docs/persistence.md``.
"""

from __future__ import annotations

import functools
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Optional, Tuple, Union

import numpy as np

from repro.core.allpairs import (
    AllPairsEstimate,
    PairTotals,
    average_allpairs_stretch_sampled,
    pair_totals,
)
from repro.core.lower_bounds import davg_lower_bound
from repro.curves.base import SpaceFillingCurve
from repro.engine import chunked
from repro.engine.threads import (
    BlockScheduler,
    ScratchBuffers,
    prepare_order_reads,
    resolve_threads,
)
from repro.grid.neighbors import axis_pair_index_arrays

__all__ = [
    "CacheStats",
    "MetricContext",
    "get_context",
    "DEFAULT_CACHE_BYTES",
]

#: Default per-context budget for cached intermediate arrays (256 MiB).
#: Generous enough to hold the full intermediate set of a ~10M-cell
#: universe; pass ``max_bytes=0`` to disable caching entirely.
DEFAULT_CACHE_BYTES = 256 * 2**20


@dataclass
class CacheStats:
    """Counters for the intermediate store (test + tuning hooks).

    Aggregation sums counters across stores — how a sweep folds every
    worker's (and the publishing parent's) counters into one summary:

    >>> a = CacheStats(hits=2, misses=1, computes={"key_grid": 1})
    >>> b = CacheStats(hits=1, misses=1, shared={"key_grid": 1})
    >>> total = CacheStats.aggregate([a, b])
    >>> total.hits, total.compute_count("key_grid"), total.total_shared
    (3, 1, 1)
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    #: How many times each intermediate's compute function actually ran.
    computes: Dict[str, int] = field(default_factory=dict)
    #: How many times an intermediate was *derived* from another context
    #: (a transform curve's slab mapped from its pooled base context's
    #: slabs) instead of materialized from scratch; see
    #: :class:`repro.engine.ContextPool`.
    derived: Dict[str, int] = field(default_factory=dict)
    #: How many times an intermediate was resolved as a zero-copy view
    #: of a :class:`repro.engine.SharedGridStore` segment published by
    #: the sweep parent, instead of being computed in this process.
    shared: Dict[str, int] = field(default_factory=dict)
    #: How many sweep cells each compute backend served (``"numpy"`` /
    #: ``"native"``); recorded by :class:`repro.engine.Sweep` as each
    #: cell finishes, so ``repro sweep --stats`` and the serve
    #: ``/stats`` payload can report which backend actually ran.
    backends: Dict[str, int] = field(default_factory=dict)
    #: How many times an intermediate was resolved as a read-only
    #: memory-mapped view of a persistent
    #: :class:`repro.engine.store.GridStore` artifact (``--store``)
    #: instead of being computed in this process.  Key slabs sliced
    #: from a mapped grid land here under their slab keys
    #: (``key_slab[lo:hi]``, or ``key_grid`` for the whole grid).
    mmap: Dict[str, int] = field(default_factory=dict)

    def compute_count(self, key: str) -> int:
        """Times the named intermediate was materialized from scratch."""
        return self.computes.get(key, 0)

    def derived_count(self, key: str) -> int:
        """Times the named intermediate was derived from a base context."""
        return self.derived.get(key, 0)

    def shared_count(self, key: str) -> int:
        """Times the named intermediate was attached from shared memory."""
        return self.shared.get(key, 0)

    def mmap_count(self, key: str) -> int:
        """Times the named intermediate was mapped from the grid store."""
        return self.mmap.get(key, 0)

    @property
    def total_computes(self) -> int:
        """Total from-scratch materializations across all intermediates."""
        return sum(self.computes.values())

    @property
    def total_derived(self) -> int:
        """Total derivations across all intermediates."""
        return sum(self.derived.values())

    @property
    def total_shared(self) -> int:
        """Total shared-memory attachments across all intermediates."""
        return sum(self.shared.values())

    @property
    def total_mmap(self) -> int:
        """Total persistent-store mappings across all intermediates."""
        return sum(self.mmap.values())

    @property
    def hit_rate(self) -> float:
        """``hits / (hits + misses)``; 0.0 before any lookup."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    @classmethod
    def aggregate(cls, parts: "Iterable[CacheStats]") -> "CacheStats":
        """Sum the counters of several stores into one summary."""
        out = cls()
        for part in parts:
            out.hits += part.hits
            out.misses += part.misses
            out.evictions += part.evictions
            for key, count in part.computes.items():
                out.computes[key] = out.computes.get(key, 0) + count
            for key, count in part.derived.items():
                out.derived[key] = out.derived.get(key, 0) + count
            for key, count in part.shared.items():
                out.shared[key] = out.shared.get(key, 0) + count
            for key, count in part.backends.items():
                out.backends[key] = out.backends.get(key, 0) + count
            for key, count in part.mmap.items():
                out.mmap[key] = out.mmap.get(key, 0) + count
        return out

    def __repr__(self) -> str:
        return (
            f"CacheStats(hits={self.hits}, misses={self.misses}, "
            f"hit_rate={self.hit_rate:.1%}, "
            f"computes={self.total_computes}, "
            f"derived={self.total_derived}, "
            f"shared={self.total_shared}, "
            f"mmap={self.total_mmap}, "
            f"evictions={self.evictions})"
        )


class _BoundedStore:
    """LRU array store bounded by total ``nbytes``.

    ``max_bytes=None`` means unbounded; ``max_bytes=0`` disables storage
    (every lookup recomputes) — useful for benchmarking the uncached
    path.  Stored arrays are frozen (``writeable=False``) because they
    are shared across all metrics of the context.

    Arrays resolved through a ``shared`` factory (zero-copy views of a
    :class:`repro.engine.shm.SharedGridStore` segment) or an ``mmap``
    factory (read-only maps of :class:`repro.engine.store.GridStore`
    artifacts) are retained in a side table that does **not** count
    against ``max_bytes``: their pages belong to a machine-wide shared
    mapping or to the kernel page cache, not to this process's private
    budget, and evicting a view would save nothing.

    The store is **thread-safe**: dict state and counters mutate under
    a lock, while compute factories run outside it so worker
    threads materializing *different* blocks proceed concurrently
    (the :class:`repro.engine.threads.BlockScheduler` regime).  Two
    threads missing the *same* key may both run its factory — results
    are deterministic, so this wastes a compute but never corrupts —
    and the first insertion wins, keeping the handed-out object
    identity stable.
    """

    def __init__(self, max_bytes: Optional[int]) -> None:
        self.max_bytes = max_bytes
        self.stats = CacheStats()
        self._items: "OrderedDict[str, np.ndarray]" = OrderedDict()
        self._views: Dict[str, np.ndarray] = {}
        self._bytes = 0
        self._lock = threading.Lock()

    @property
    def nbytes(self) -> int:
        """Total bytes currently held (shared views excluded)."""
        with self._lock:
            return self._bytes

    def get_or_compute(
        self,
        key: str,
        compute: Callable[[], np.ndarray],
        freeze: bool = True,
        derived: bool = False,
        shared: Optional[Callable[[], Optional[np.ndarray]]] = None,
        mmap: Optional[Callable[[], Optional[np.ndarray]]] = None,
        persist: Optional[Callable[[np.ndarray], object]] = None,
    ) -> np.ndarray:
        with self._lock:
            if key in self._items:
                self.stats.hits += 1
                self._items.move_to_end(key)
                return self._items[key]
            if key in self._views:
                self.stats.hits += 1
                return self._views[key]
            self.stats.misses += 1
        # The view tiers, cheapest first: a zero-copy view of a
        # parent-published shared-memory segment, then a read-only map
        # of a verified persistent-store artifact.  Each is counted in
        # its own counter and retained outside the LRU budget; a
        # factory returning None ("not published", "not on disk" or
        # rejected by its checksum) falls through to the next tier.
        for tier, view in (("shared", shared), ("mmap", mmap)):
            value = None if view is None else view()
            if value is None:
                continue
            with self._lock:
                existing = self._views.get(key)
                if existing is not None:
                    # A concurrent miss resolved the view first;
                    # reclassify our lookup as the hit it effectively
                    # was (the miss was provisional) so hits + misses
                    # equals actual lookups and view counters stay
                    # one-per-intermediate.
                    self.stats.misses -= 1
                    self.stats.hits += 1
                    return existing
                counter = getattr(self.stats, tier)
                counter[key] = counter.get(key, 0) + 1
                if self.max_bytes != 0:
                    self._views[key] = value
            return value
        # ``derived``: ``compute`` maps another context's arrays, so the
        # value counts under ``derived`` instead of ``computes``.
        value = np.asarray(compute())
        with self._lock:
            counter = self.stats.derived if derived else self.stats.computes
            counter[key] = counter.get(key, 0) + 1
        if freeze:
            value.flags.writeable = False
        if persist is not None:
            # Write-through to the persistent store.  Best effort: the
            # store swallows I/O errors.
            persist(value)
        with self._lock:
            if self.max_bytes != 0:
                if key in self._items:
                    # A concurrent miss on the same key beat us to the
                    # insert; serve its (identical) array.
                    return self._items[key]
                self._items[key] = value
                self._bytes += value.nbytes
                self._evict()
        return value

    def retains(self, nbytes: int) -> bool:
        """Whether a computed array of ``nbytes`` would stay cached."""
        return self.max_bytes is None or nbytes <= self.max_bytes

    def peek(self, key: str) -> Optional[np.ndarray]:
        """The cached array for ``key``, or ``None`` — never computes.

        Silent: no counters move and the LRU order is untouched, so
        opportunistic consumers (a threaded kernel checking whether a
        neighbor block is already resident) do not distort the stats
        the tests and tuning hooks read.
        """
        with self._lock:
            value = self._items.get(key)
            if value is not None:
                return value
            return self._views.get(key)

    def _evict(self) -> None:
        if self.max_bytes is None:
            return
        # Never evict the most-recently-inserted entry: an oversized
        # single array is simply not retained after being handed out.
        while self._bytes > self.max_bytes and len(self._items) > 1:
            _, dropped = self._items.popitem(last=False)
            self._bytes -= dropped.nbytes
            self.stats.evictions += 1
        if self._bytes > self.max_bytes and self._items:
            _, dropped = self._items.popitem(last=False)
            self._bytes -= dropped.nbytes
            self.stats.evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._items.clear()
            self._views.clear()
            self._bytes = 0


def _span(x: int, step: int, total: int) -> tuple:
    """The range ``(lo, hi)`` of ``[0, total)`` cut into spans of
    ``step`` that holds ``x``."""
    lo = x - x % step
    return lo, min(total, lo + step)


class MetricContext:
    """Cached metric engine for one curve on its universe.

    All metric methods are exact and bit-for-bit identical to the legacy
    free functions in :mod:`repro.core`; they differ only in sharing the
    intermediates.  Scalar results (``davg``, all-pairs values, …) are
    memoized unconditionally; array intermediates live in a
    memory-bounded LRU store (see :data:`DEFAULT_CACHE_BYTES`).

    >>> from repro import Universe, ZCurve
    >>> from repro.engine import MetricContext
    >>> ctx = MetricContext(ZCurve(Universe.power_of_two(d=2, k=3)))
    >>> ctx.davg() >= ctx.lower_bound()
    True
    """

    def __init__(
        self,
        curve: SpaceFillingCurve,
        max_bytes: Optional[int] = DEFAULT_CACHE_BYTES,
        chunk_cells: Optional[int] = None,
        threads: Union[None, int, str] = None,
        backend: str = "auto",
        store: Optional[object] = None,
        store_dir: Optional[str] = None,
    ) -> None:
        from repro.engine import native

        if chunk_cells is not None and chunk_cells < 1:
            raise ValueError(
                f"chunk_cells must be >= 1, got {chunk_cells}"
            )
        self.curve = curve
        self.universe = curve.universe
        #: Block size (cells) of the chunked execution mode; ``None``
        #: selects the dense mode.  In chunked mode no dense ``O(n)``
        #: array is materialized: state is streamed in blocks and
        #: recently used blocks are retained under ``max_bytes``.
        self.chunk_cells = chunk_cells
        #: Worker-thread count for block-parallel metric reductions
        #: (``None``/1 = serial; ``"auto"`` = one per core).  Threaded
        #: results are bit-for-bit identical to the serial paths; see
        #: :mod:`repro.engine.threads`.
        self.threads = resolve_threads(threads)
        #: The backend actually serving this context: ``"native"`` when
        #: the compiled kernels of :mod:`repro.engine.native` loaded,
        #: else ``"numpy"``.  An explicit ``"native"`` request on a host
        #: without the kernels warns once and degrades to ``"numpy"``;
        #: results are bit-for-bit identical either way.
        self.backend = native.resolve_backend(backend)
        #: The loaded :class:`repro.engine.native.NativeKernels`, or
        #: ``None`` on the NumPy backend.  Block kernels consult this
        #: and fall back to their NumPy bodies when it is ``None``.
        self.kernels = (
            native.load_kernels() if self.backend == "native" else None
        )
        self._scheduler = None
        self._scalar_lock = threading.RLock()
        self._store = _BoundedStore(max_bytes)
        #: The pooled context of ``curve.inner``, set by a
        #: :class:`repro.engine.ContextPool` for a transform curve: the
        #: curve's slabs then map this context's cached slabs.
        self._base: Optional["MetricContext"] = None
        #: View tier → zero-arg factory mapping the whole key grid:
        #: ``"shared"``, a zero-copy view of a parent-published
        #: :class:`repro.engine.shm.SharedGridStore` segment (wired by
        #: a :class:`repro.engine.ContextPool`), and ``"mmap"``, a
        #: read-only memmap of a persistent
        #: :class:`repro.engine.store.GridStore` artifact.  A factory
        #: returning ``None`` (not published, not on disk or rejected
        #: by its checksum) falls through to the next tier.
        self._grid_views: Dict[str, Callable[[], Optional[np.ndarray]]] = {}
        #: Write-through sink persisting a computed whole key grid to
        #: the grid store (best effort), or ``None``.
        self._grid_sink: Optional[Callable[[np.ndarray], object]] = None
        #: The wired :class:`repro.engine.store.GridStore`, or ``None``.
        if store is None and store_dir is not None:
            from repro.engine.store import GridStore

            store = GridStore(store_dir)
        self.grid_store = store
        if store is not None:
            self._wire_store(store)
        self._scalars: Dict[Tuple, object] = {}

    def _wire_store(self, store) -> None:
        """Point this context at a persistent grid store.

        A context with a reuse key gets a ``key_grid`` mmap source
        (mapped at most once per context) and a write-through sink.
        The key slabs (see :meth:`_key_slab`) slice the mapped grid, so
        a chunked context maps the artifact without materializing
        anything dense.  Curves :func:`repro.engine.shm.reuse_key`
        exempts (instance-keyed ones, tables, and those a native codec
        builds faster than the store reads them) map and write nothing.
        """
        from repro.engine.shm import reuse_key

        skey = reuse_key(self.curve, self.backend)
        if skey is None:
            return
        self._grid_views["mmap"] = functools.lru_cache(maxsize=None)(
            lambda: store.get(skey, "key_grid")
        )
        self._grid_sink = lambda grid: store.put(skey, "key_grid", grid)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def stats(self) -> CacheStats:
        """Hit/miss/compute counters of the intermediate store."""
        return self._store.stats

    @property
    def cache_bytes(self) -> int:
        """Bytes of intermediates currently cached."""
        return self._store.nbytes

    def clear_cache(self) -> None:
        """Drop every cached intermediate and memoized scalar."""
        self._store.clear()
        with self._scalar_lock:
            self._scalars.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MetricContext({self.curve!r})"

    @property
    def chunked(self) -> bool:
        """True when the context runs in chunked (block-streaming) mode."""
        return self.chunk_cells is not None

    @property
    def threaded(self) -> bool:
        """True when block reductions fan out over worker threads."""
        return self.threads > 1

    @property
    def scheduler(self):
        """The context's :class:`repro.engine.threads.BlockScheduler`.

        Created lazily (a serial context never spawns a thread pool)
        and reused across every threaded reduction of this context, so
        worker threads and their scratch buffers amortize over all
        metrics of a cell.
        """
        if self._scheduler is None:
            self._scheduler = BlockScheduler(self.threads)
        return self._scheduler

    def _require_dense(self, name: str, alternative: str) -> None:
        if self.chunked:
            raise ValueError(
                f"{name}() materializes a dense O(n) array and is "
                f"unavailable in chunked mode; use {alternative} instead"
            )

    def _scalar(self, key: Tuple, compute: Callable[[], object]) -> object:
        # Reentrant lock: scalar computes nest (davg_ratio -> davg,
        # lower_bound) and may fan work out to the block scheduler,
        # whose workers never touch the scalar memo.  Holding the lock
        # across the compute keeps concurrent callers (one ContextPool
        # hammered from many threads) from duplicating a reduction.
        with self._scalar_lock:
            if key not in self._scalars:
                self._scalars[key] = compute()
            return self._scalars[key]

    def _cached(
        self,
        key: str,
        compute: Callable[[], np.ndarray],
        freeze: bool = True,
    ) -> np.ndarray:
        """Budgeted store lookup: the cached array, else ``compute``."""
        return self._store.get_or_compute(key, compute, freeze=freeze)

    # ------------------------------------------------------------------
    # Shared intermediates
    # ------------------------------------------------------------------
    def key_grid(self) -> np.ndarray:
        """The curve's dense key grid: the one slab ``(0, side)``.

        Resolved by :meth:`_key_slab` like every other slab and cached
        as ``key_grid`` under the ``max_bytes`` budget: the context,
        not the curve, retains it.  A table curve's grid is a read-only
        view of its table; any other curve's is computed by the native
        slab kernel or the NumPy codec, with bytes equal to the
        reference ``curve.key_grid()``.
        """
        self._require_dense("key_grid", "iter_key_slabs()")
        return self._key_slab(0, self.universe.side)

    def order(self) -> np.ndarray:
        """Cells in curve order, ``(n, d)``: ``order()[j]`` is ``π^{-1}(j)``.

        The whole order block ``(0, n)`` (see :meth:`_order_block`):
        scattered from the key grid, cached under the ``max_bytes``
        budget.
        """
        self._require_dense("order", "iter_window_pairs()")
        return self._order_block(0, self.universe.n)

    def flat_keys(self) -> np.ndarray:
        """Keys in cell-rank order: ``flat_keys()[rank(α)] = π(α)``.

        The rank order is the simple-curve enumeration (axis 0 fastest),
        matching :meth:`repro.grid.universe.Universe.all_coords`.
        """
        self._require_dense("flat_keys", "iter_key_slabs()")
        return self._cached(
            "flat_keys",
            lambda: self.key_grid().reshape(-1, order="F"),
        )

    def axis_pair_curve_distances(self, axis: int) -> np.ndarray:
        """``∆π`` over the NN pairs of ``G_{axis+1}`` (cached per axis)."""
        if not 0 <= axis < self.universe.d:
            raise ValueError(
                f"axis must be in [0, {self.universe.d}), got {axis}"
            )
        self._require_dense(
            "axis_pair_curve_distances",
            "the block-wise metric methods (davg/dmax/lambda_sums)",
        )

        def compute() -> np.ndarray:
            grid = self.key_grid()
            lo, hi = axis_pair_index_arrays(self.universe, axis)
            return np.abs(grid[hi] - grid[lo])

        return self._cached(f"axis_dist[{axis}]", compute)

    def window_shift_distances(
        self, window: int, metric: str = "manhattan"
    ) -> np.ndarray:
        """Grid distances of all curve steps of size ``window`` (cached).

        Entry ``t`` is ``∆(π^{-1}(t), π^{-1}(t+window))`` in the chosen
        grid metric — the array behind the Gotsman–Lindenbaum window
        dilation metrics (which run the window fold and keep no such
        array).
        """
        window = chunked.check_window(self, window)
        if metric not in ("manhattan", "euclidean"):
            raise ValueError("metric must be 'manhattan' or 'euclidean'")
        self._require_dense(
            "window_shift_distances",
            "iter_window_pairs(window) or window_dilation(window)",
        )

        def compute() -> np.ndarray:
            from repro.grid.metrics import euclidean, manhattan

            path = self.order()
            a, b = path[:-window], path[window:]
            return manhattan(a, b) if metric == "manhattan" else euclidean(a, b)

        return self._cached(f"win_dist[{window},{metric}]", compute)

    def neighbor_counts(self) -> np.ndarray:
        """Dense ``|N(α)|`` grid (cached; curve-independent).

        Assembled slab by slab with
        :func:`repro.engine.chunked.slab_neighbor_counts` over the slab
        partition (a dense context is one slab); each slab write is
        independent, so the result equals
        :func:`repro.grid.neighbors.neighbor_count_grid` exactly in
        every mode.  The NN fold never reads this grid — each fold range
        computes its own counts into scratch — so it exists for callers
        that ask for the dense ``O(n)`` grid itself.
        """

        def compute() -> np.ndarray:
            counts = np.empty(self.universe.shape, dtype=np.int64)
            for lo, hi in self._slab_ranges():
                chunked.slab_neighbor_counts(
                    self.universe,
                    lo,
                    hi,
                    out=counts[lo:hi],
                    kernels=self.kernels,
                )
            return counts

        return self._cached("neighbor_counts", compute)

    # ------------------------------------------------------------------
    # Block iteration (the chunked mode's public surface; also usable in
    # dense mode, where each iterator yields one full-size block)
    # ------------------------------------------------------------------
    def _slab_thickness(self) -> int:
        """Planes per canonical slab, shared by :meth:`_slab_ranges` and
        :meth:`_slab_span`: the serial NN fold's range, so the partition
        arithmetic lives in :func:`repro.engine.chunked.fold_step`."""
        return chunked.fold_step(self.universe, self.chunk_cells, 1)

    def _slab_ranges(self) -> list:
        """Axis-0 plane ranges ``(lo, hi)`` of the slab partition."""
        return chunked._spans(self.universe.side, self._slab_thickness())

    def _slab_span(self, x0: int) -> tuple:
        """The canonical slab range ``(lo, hi)`` containing plane ``x0``."""
        return _span(x0, self._slab_thickness(), self.universe.side)

    def _order_span(self, t: int) -> tuple:
        """The canonical order block ``(t0, t1)`` holding position ``t``:
        the order is one block in a dense context and is cut into
        ``chunk_cells`` positions in a chunked one."""
        n = self.universe.n
        return _span(t, min(n, self.chunk_cells) if self.chunked else n, n)

    def _slab_key(self, lo: int, hi: int) -> str:
        """Cache key of slab ``[lo, hi)``; the whole grid is ``key_grid``."""
        if (lo, hi) == (0, self.universe.side):
            return "key_grid"
        return f"key_slab[{lo}:{hi}]"

    def _order_key(self, t0: int, t1: int) -> str:
        """Cache key of order block ``[t0, t1)``; the whole is ``order``."""
        if (t0, t1) == (0, self.universe.n):
            return "order"
        return f"order_block[{t0}:{t1}]"

    def _mapped_slab(
        self, tier: str, lo: int, hi: int
    ) -> Optional[np.ndarray]:
        """Slab ``[lo, hi)`` of the key grid the view ``tier`` (shared
        or mmap) maps, or ``None`` when it maps none."""
        source = self._grid_views.get(tier)
        grid = None if source is None else source()
        return None if grid is None else grid[lo:hi]

    def _key_slab_values(self, lo: int, hi: int) -> np.ndarray:
        """Key-grid slab for ``x_0 ∈ [lo, hi)``, uncached.

        A slice of the mapped ``key_grid`` (shared memory, then the
        store), else the curve's own ``key_slab`` — a transform's read
        from the pooled base context's slabs when it has one.  The
        whole axis ``(0, side)`` is no special case.
        """
        for tier in ("shared", "mmap"):
            slab = self._mapped_slab(tier, lo, hi)
            if slab is not None:
                return slab
        if self._base is None:
            return self.curve.key_slab(lo, hi, self.backend)
        return self.curve.key_slab(
            lo, hi, self.backend, self._base._key_slab
        )

    def _order_values(self, t0: int, t1: int) -> np.ndarray:
        """Cells at curve positions ``[t0, t1)``, uncached: the whole
        order is scattered from the key grid (``order[π(α)] = α``, read
        where resident, else resolved without being retained); any other
        block is ``curve.coords_of`` on its positions."""
        side, d, n = self.universe.side, self.universe.d, self.universe.n
        if (t0, t1) != (0, n):
            positions = np.arange(t0, t1, dtype=np.int64)
            return self.curve.coords_of(positions, backend=self.backend)
        grid = self._store.peek("key_grid")
        if grid is None:
            grid = self._key_slab_values(0, side)
        path = np.empty((n, d), dtype=np.int64)
        for axis in range(d):
            shape = [1] * d
            shape[axis] = side
            path[:, axis][grid] = np.arange(side).reshape(shape)
        return path

    def _canonical_read(self, lo, hi, span, key, values, cached):
        """The range resolver of both block accessors: ``[lo, hi)``
        equal to its canonical range ``span(lo)`` is ``cached()``; any
        other range (a threaded fold's sub-range, a boundary plane, a
        shifted order read) is a slice of the resident canonical block
        holding it, found with a silent ``peek``, or else ``values(lo,
        hi)`` uncached, so off-partition reads add no cache keys."""
        span_lo, span_hi = span(lo)
        if (lo, hi) == (span_lo, span_hi):
            return cached()
        block = self._store.peek(key(span_lo, span_hi))
        if block is None or hi > span_hi:
            return values(lo, hi)
        return block[lo - span_lo : hi - span_lo]

    def _key_slab(self, lo: int, hi: int) -> np.ndarray:
        """Key-grid slab for ``x_0 ∈ [lo, hi)`` — the one key accessor.

        A canonical slab resolves cheapest-first and is LRU-cached:
        cached slab, a slice of the shared-memory ``key_grid``, a slice
        of the store's, the curve's slab (a computed whole grid is
        written through to the store; one mapped from a pooled base
        counts as derived and is not).
        """

        def cached() -> np.ndarray:
            derived = self._base is not None and self.curve.derives_slab(
                lo, hi
            )
            whole = (lo, hi) == (0, self.universe.side)
            return self._store.get_or_compute(
                self._slab_key(lo, hi),
                lambda: self._key_slab_values(lo, hi),
                derived=derived,
                shared=lambda: self._mapped_slab("shared", lo, hi),
                mmap=lambda: self._mapped_slab("mmap", lo, hi),
                persist=self._grid_sink if whole and not derived else None,
            )

        span, key = self._slab_span, self._slab_key
        return self._canonical_read(
            lo, hi, span, key, self._key_slab_values, cached
        )

    def _order_block(self, t0: int, t1: int) -> np.ndarray:
        """Cells at curve positions ``[t0, t1)`` — the order's
        counterpart of :meth:`_key_slab`: a canonical block is resolved
        once and LRU-cached under the ``max_bytes`` budget."""
        key, values = self._order_key(t0, t1), self._order_values
        return self._canonical_read(
            t0, t1, self._order_span, self._order_key, values,
            lambda: self._cached(key, lambda: values(t0, t1)),
        )

    def iter_key_slabs(self):
        """Yield ``(lo, hi, slab)``: the key grid for ``x_0 ∈ [lo, hi)``.

        Slabs walk the grid along axis 0 (C order); ``slab`` has shape
        ``(hi - lo,) + (side,) * (d - 1)`` and equals
        ``key_grid()[lo:hi]`` bit-for-bit.  A dense context yields its
        one slab, the whole grid; a chunked one yields slabs of roughly
        ``chunk_cells`` cells, LRU-cached under the ``max_bytes``
        budget.
        """
        for lo, hi in self._slab_ranges():
            yield lo, hi, self._key_slab(lo, hi)

    def iter_window_pairs(self, window: int):
        """Yield ``(t0, t1, a, b)`` coordinate blocks of curve steps.

        ``a`` and ``b`` are the cells at curve positions ``[t0, t1)``
        and ``[t0 + window, t1 + window)`` — the pairs behind the
        Gotsman–Lindenbaum window metrics, in curve order, read from
        the order blocks the window fold reads
        (:func:`repro.engine.chunked.window_pairs`); ``window`` is
        checked before the first block.
        """
        window = chunked.check_window(self, window)
        prepare_order_reads(self)
        return (
            pair
            for t0, t1 in chunked.window_ranges(self, window)
            for pair in chunked.window_pairs(self, t0, t1, window)
        )

    def _nn_stats(self) -> dict:
        """Memoized NN fold: every NN scalar of the context in one pass.

        ``{"davg", "dmax", "lambdas", "nn_sum"}`` from
        :func:`repro.engine.chunked.nn_block_reduction`, the one fold
        behind :meth:`davg`, :meth:`dmax`, :meth:`lambda_sums` and
        :meth:`nn_mean` in every mode (dense, chunked, threaded) and
        on every backend.
        """
        return self._scalar(("nn",), lambda: chunked.nn_block_reduction(self))

    # ------------------------------------------------------------------
    # Per-cell grids
    # ------------------------------------------------------------------
    def _per_cell_grids(self) -> tuple[np.ndarray, np.ndarray]:
        """Cached ``(sums, best)`` per-cell grids, built together.

        One walk over the fold ranges runs
        :func:`repro.engine.chunked.nn_planes` into slices of the two
        result grids — the same kernel the scalar fold uses, so every
        entry is final when its range is done.  The *results* are
        inherently ``O(n)`` dense grids (the caller asked for them);
        the walk itself allocates no dense intermediate.  All updates
        are integer sums and maxima, so the grids are bit-for-bit
        equal in every mode and on every backend.
        """
        sums = self._store.peek("per_cell_sums")
        best = self._store.peek("per_cell_max")
        if sums is None or best is None:
            shape = self.universe.shape
            computed_sums = np.empty(shape, dtype=np.int64)
            computed_best = np.empty(shape, dtype=np.int64)
            lambdas = [0] * self.universe.d
            scratch = ScratchBuffers()
            for lo, hi in chunked.fold_ranges(self):
                chunked.nn_planes(
                    self,
                    lo,
                    hi,
                    computed_sums[lo:hi],
                    computed_best[lo:hi],
                    lambdas,
                    scratch,
                )
            sums = self._store.get_or_compute(
                "per_cell_sums", lambda: computed_sums
            )
            best = self._store.get_or_compute(
                "per_cell_max", lambda: computed_best
            )
        return sums, best

    def per_cell_stretch_sums(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-cell ``(Σ_{β∈N(α)} ∆π(α,β), |N(α)|)`` as dense grids.

        Works in chunked mode as well — the grids are assembled range
        by range without dense intermediates (see
        :meth:`_per_cell_grids`); the returned arrays are inherently
        ``O(n)``.
        """
        return self._per_cell_grids()[0], self.neighbor_counts()

    def per_cell_avg_stretch(self) -> np.ndarray:
        """Dense grid of ``δ^avg_π(α)`` (Definition 1).

        Each entry is one rounded float64 division, so the grid's
        ``.mean()`` may differ from :meth:`davg` (the correctly
        rounded exact mean) by an ulp.  On a degenerate universe
        (``side == 1``: no NN pairs) the per-cell average over the
        empty neighbor set is defined as 0.
        """
        sums, counts = self.per_cell_stretch_sums()
        if self.universe.side < 2:
            return self._store.get_or_compute(
                "per_cell_avg",
                lambda: np.zeros(self.universe.shape, dtype=np.float64),
            )
        return self._store.get_or_compute(
            "per_cell_avg", lambda: sums / counts
        )

    def per_cell_max_stretch(self) -> np.ndarray:
        """Dense grid of ``δ^max_π(α)`` (Definition 3; 0 for side == 1).

        Assembled range by range with the per-cell sums (integer maxima
        are order-free, so the grid is the same in every mode); the
        result is inherently ``O(n)``.
        """
        return self._per_cell_grids()[1]

    def nn_distance_values(self) -> np.ndarray:
        """Flat ``∆π`` over all unordered NN pairs (each once).

        Empty (not an error) on degenerate universes with no NN pairs.
        The per-axis distance arrays are assembled block by block from
        :func:`repro.engine.chunked.nn_pair_blocks`, each pair at its
        flat offset in the per-axis C enumeration order; a dense
        context is one slab.  The result is inherently ``O(n·d)``.
        """
        if self.universe.side < 2:
            empty = np.empty(0, dtype=np.int64)
            empty.flags.writeable = False
            return empty
        return self._store.get_or_compute(
            "nn_values", self._nn_values_blockwise
        )

    def _nn_values_blockwise(self) -> np.ndarray:
        """Slab-wise assembly behind :meth:`nn_distance_values`.

        Allocation-free per block (R004): the flat result is allocated
        once up front and every block of
        :func:`repro.engine.chunked.nn_pair_blocks` lands in a reshaped
        *view* of it through ``subtract``/``abs`` with ``out=``
        targets, so the walk does zero allocator traffic no matter how
        many blocks stream through.  The per-axis segments occupy the
        flat offsets a ``concatenate`` of the per-axis arrays would
        give them.
        """
        universe = self.universe
        d, side = universe.d, universe.side
        per_axis = (side - 1) * side ** (d - 1)
        # The one sanctioned allocation: the O(n·d) result itself,
        # made before the slab walk starts.
        # repro: allow[R004] — single up-front result, not per-block
        values = np.empty(d * per_axis, dtype=np.int64)
        parts = []
        for axis in range(d):
            shape = tuple(
                side - 1 if i == axis else side for i in range(d)
            )
            parts.append(
                values[axis * per_axis : (axis + 1) * per_axis].reshape(
                    shape
                )
            )
        for axis, p, a, b in chunked.nn_pair_blocks(self):
            out = parts[axis][p : p + len(a)]
            np.subtract(b, a, out=out)
            np.abs(out, out=out)
        return values

    # ------------------------------------------------------------------
    # Scalar metrics
    # ------------------------------------------------------------------
    def lambda_sums(self) -> np.ndarray:
        """``[Λ_1(π), …, Λ_d(π)]`` (Lemma 5 per-dimension totals).

        Zeros on degenerate universes (no NN pairs to sum over).
        """
        if self.universe.side < 2:
            zeros = np.zeros(self.universe.d, dtype=np.int64)
            zeros.flags.writeable = False
            return zeros
        return self._store.get_or_compute(
            "lambda_sums",
            lambda: np.array(self._nn_stats()["lambdas"], dtype=np.int64),
        )

    def davg(self) -> float:
        """``D^avg(π)`` (Definition 2): the exact rational, correctly
        rounded to float64.

        0.0 on degenerate universes (the average over each empty
        neighbor set is defined as 0).
        """
        if self.universe.side < 2:
            return 0.0
        return self._nn_stats()["davg"]

    def dmax(self) -> float:
        """``D^max(π)`` (Definition 4), exact; 0.0 when side == 1."""
        if self.universe.side < 2:
            return 0.0
        return self._nn_stats()["dmax"]

    def nn_mean(self) -> float:
        """Mean ``∆π`` over all NN pairs (0.0 when there are none).

        The exact integer pair sum over the pair count, divided once
        (``int / int`` rounds correctly at any size): equal to a
        float64 mean of the pair values while the sum stays below
        ``2^53``, where every partial sum is exact.
        """
        if self.universe.side < 2:
            return 0.0
        from repro.grid.neighbors import nn_pair_count

        return self._nn_stats()["nn_sum"] / nn_pair_count(self.universe)

    def lower_bound(self) -> float:
        """Theorem 1 lower bound on ``D^avg``; 0.0 for the 1-cell grid."""
        if self.universe.n < 2:
            return 0.0
        return self._scalar(
            ("lower_bound",),
            lambda: davg_lower_bound(self.universe.n, self.universe.d),
        )

    def davg_ratio(self) -> float:
        """``D^avg / LB`` — the paper's optimality ratio.

        Defined as 1.0 on the 1-cell universe, where measured value and
        bound are both trivially 0.
        """
        bound = self.lower_bound()
        if bound == 0.0:
            return 1.0 if self.davg() == 0.0 else float("inf")
        return self.davg() / bound

    def window_dilation(self, window: int, metric: str = "manhattan"):
        """Max grid distance of a curve step of exactly ``window``.

        The Gotsman–Lindenbaum reverse metric: one memoized run of the
        window fold (:func:`repro.engine.chunked.window_max_reduction`),
        equal in every mode and on every backend.  Returns 0 on the
        1-cell universe, where no step exists.
        """
        if metric not in ("manhattan", "euclidean"):
            raise ValueError("metric must be 'manhattan' or 'euclidean'")
        if self.universe.n < 2:
            return 0 if metric == "manhattan" else 0.0
        window = chunked.check_window(self, window)
        return self._scalar(
            ("window_dilation", window, metric),
            lambda: chunked.window_max_reduction(self, window, metric),
        )

    # ------------------------------------------------------------------
    # All-pairs stretch (Section V-B)
    # ------------------------------------------------------------------
    def pair_totals(self) -> PairTotals:
        """Memoized :func:`repro.core.allpairs.pair_totals` of the key
        grid joined from :meth:`iter_key_slabs`: the integer totals
        behind both all-pairs metrics and the stretch profile, equal in
        every mode and on every backend."""
        return self._scalar(
            ("pair_totals",),
            lambda: pair_totals(
                np.concatenate([slab for *_, slab in self.iter_key_slabs()])
            ),
        )

    def allpairs_exact(self, metric: str = "manhattan") -> float:
        """Exact ``str_{avg,m}(π)`` from :meth:`pair_totals`, memoized
        per grid metric; 0.0 on the 1-cell universe (no pairs)."""
        if self.universe.n < 2:
            return 0.0
        return self._scalar(
            ("allpairs_exact", metric),
            lambda: self.pair_totals().stretch(metric),
        )

    def allpairs_sampled(
        self,
        n_pairs: int = 100_000,
        metric: str = "manhattan",
        seed: int = 0,
    ) -> AllPairsEstimate:
        """Sampled ``str_{avg,m}(π)``, memoized per (budget, metric, seed)."""
        if self.universe.n < 2:
            return AllPairsEstimate(
                mean=0.0, stderr=0.0, n_pairs=0, metric=metric
            )
        return self._scalar(
            ("allpairs_sampled", n_pairs, metric, seed),
            lambda: average_allpairs_stretch_sampled(
                self.curve,
                n_pairs,
                metric,
                seed,
                scheduler=self.scheduler,
            ),
        )

    # ------------------------------------------------------------------
    # Lemma 5 decomposition
    # ------------------------------------------------------------------
    def gij_decomposition(
        self, axis: int
    ) -> dict[int, tuple[int, np.ndarray]]:
        """Split ``G_{axis+1}`` into the Lemma 5 groups ``G_{i,j}``.

        Walks the NN-pair blocks (a dense context is one slab) and
        groups each block's pair distances by the trailing-ones index
        of the pair's coordinate along ``axis``; membership depends
        only on that coordinate, and block order preserves the C-order
        value enumeration, so every mode gives the same groups.  Note the
        *result* is inherently ``O(n)`` — it partitions every NN pair
        along the axis — so decomposing a beyond-memory universe still
        needs a consumer that reduces the groups streamwise.
        """
        if not 0 <= axis < self.universe.d:
            raise ValueError(
                f"axis must be in [0, {self.universe.d}), got {axis}"
            )
        return self._scalar(("gij", axis), lambda: self._gij(axis))

    def _gij(self, axis: int) -> dict[int, tuple[int, np.ndarray]]:
        """The pair walk behind :meth:`gij_decomposition`.

        Reads the ``axis`` blocks of
        :func:`repro.engine.chunked.nn_pair_blocks`, which come in the
        C-order enumeration, and appends each group's distances in
        block order.  An axis-0 block spans the planes ``[p, p + t)``,
        so its pairs are grouped by those planes' indices.
        """
        from repro.core.stretch import trailing_ones

        side = self.universe.side
        k = self.universe.k  # requires power-of-two side, as in the paper
        groups = trailing_ones(np.arange(max(side - 1, 0), dtype=np.int64)) + 1
        parts: dict[int, list] = {j: [] for j in range(1, k + 1)}
        for block_axis, p, a, b in chunked.nn_pair_blocks(self):
            if block_axis != axis:
                continue
            dist = np.abs(b - a)
            of_block = groups[p : p + len(a)] if axis == 0 else groups
            # An axis-0 block of a few planes holds few groups: stop at
            # its largest rather than testing all k.
            for j in range(1, int(of_block.max(initial=0)) + 1):
                picked = np.compress(of_block == j, dist, axis=axis)
                if picked.size:
                    parts[j].append(picked.reshape(-1))
        out: dict[int, tuple[int, np.ndarray]] = {}
        for j in range(1, k + 1):
            values = (
                np.concatenate(parts[j])
                if parts[j]
                else np.empty(0, dtype=np.int64)
            )
            out[j] = (int(values.size), values)
        return out

    # ------------------------------------------------------------------
    # Reports
    # ------------------------------------------------------------------
    def stretch_report(
        self,
        include_allpairs: bool = False,
        allpairs_samples: int = 50_000,
        seed: int = 0,
    ):
        """Full :class:`repro.core.summary.StretchReport` off the cache."""
        from repro.core.summary import stretch_report

        return stretch_report(
            self.curve,
            include_allpairs=include_allpairs,
            allpairs_samples=allpairs_samples,
            seed=seed,
            context=self,
        )


def get_context(
    curve: Union[SpaceFillingCurve, MetricContext],
) -> MetricContext:
    """The shared :class:`MetricContext` of ``curve`` (created lazily).

    Also the coercion point of the whole downstream stack: every
    function in :mod:`repro.analysis` and :mod:`repro.apps` accepts
    either a bare curve or an existing context and calls this first, so
    passing an already-built context (e.g. one obtained from a
    :class:`repro.engine.ContextPool`) is a no-op that reuses its cache.

    The legacy free functions route through this, so repeated metric
    calls on the same curve reuse intermediates no matter which API
    layer computed them first.  The context is stored on the curve
    object itself, so its cached intermediates live and die with the
    curve (the curve↔context reference cycle is ordinary gc fodder —
    a registry keyed by curves would pin them forever instead).

    The shared context always uses :data:`DEFAULT_CACHE_BYTES`; for a
    custom budget (or ``max_bytes=0`` to disable caching), construct a
    private :class:`MetricContext` directly.
    """
    if isinstance(curve, MetricContext):
        return curve
    ctx = getattr(curve, "_metric_context", None)
    if ctx is None:
        ctx = MetricContext(curve, max_bytes=DEFAULT_CACHE_BYTES)
        curve._metric_context = ctx
    return ctx
