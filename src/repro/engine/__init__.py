"""The metric engine: cached per-curve compute contexts + declarative sweeps.

* :mod:`repro.engine.context` — :class:`MetricContext`, one memory-bounded
  cached compute core per (curve, universe); every stretch metric as a
  method over shared intermediates, plus the curve-order / flat-key /
  windowed-shift arrays the analysis and app layers consume.
  ``chunk_cells=...`` switches the context into **chunked mode**: state
  is produced as iterators of fixed-size blocks (LRU-cached under the
  same ``max_bytes`` budget) and every metric reduces block-wise with
  values bit-for-bit equal to the dense path — the door to universes
  whose dense ``(side,)*d`` arrays would not fit the budget.
* :mod:`repro.engine.chunked` — the block-streaming machinery (the
  engine's one NN fold ``nn_block_reduction`` that every mode runs,
  integer-only, and per-slab neighbor counts).
* :mod:`repro.engine.threads` — :class:`BlockScheduler`, fanning the
  block iterators of one context out over a thread pool (the NumPy
  block kernels release the GIL) with per-thread scratch buffers and
  an order-preserving merge, so threaded results stay bit-for-bit
  identical to the serial paths; ``MetricContext(threads=N)`` /
  ``Sweep(threads="auto")`` switch it on.
* :mod:`repro.engine.pool` — :class:`ContextPool`, sharing one context
  per *canonical curve spec* of a universe and deriving transform
  curves' arrays (dense) or blocks (chunked) from their inner curve's
  cache.
* :mod:`repro.engine.native` — the compiled kernel backend: C
  implementations of the hot block paths (NN pair fold, neighbor
  counts, window maxima, batch curve encode/decode) built on demand
  with the system compiler, loaded via ``ctypes``, and degrading
  gracefully to the NumPy kernels when no compiler exists.
  ``backend="numpy"|"native"|"auto"`` on :class:`MetricContext` /
  :class:`ContextPool` / :class:`Sweep` selects it; values are
  bit-for-bit identical across backends.
* :mod:`repro.engine.shm` — :class:`SharedGridStore`, shared-memory
  segments holding one key grid per canonical spec, published by a
  process sweep's parent and attached by its workers as zero-copy
  read-only views (counted in :attr:`CacheStats.shared`).
* :mod:`repro.engine.store` — :class:`GridStore`, the *persistent*
  tier: content-addressed ``.npy`` artifacts (format-version + dtype/
  shape/SHA-256 headers, temp-file + atomic-rename publish) memory-
  mapped read-only across processes, slotted into the resolution order
  as shared → **mmap** → derived → compute (counted in
  :attr:`CacheStats.mmap`); it stores key grids only, and only for
  curves :func:`repro.engine.shm.reuse_key` keys.  ``store_dir=`` on
  :class:`MetricContext` / :class:`ContextPool` / :class:`Sweep`
  (``repro sweep/serve --store``) wires it in.
* :mod:`repro.engine.sweep` — :class:`Sweep`, the declarative
  curve × universe × metric runner (curve/metric spec strings with
  plan-time parameter validation, capability-based applicability,
  pooled execution, process parallelism with shared-memory grids and
  aggregated worker cache stats, spec-keyed dedup of identical cells,
  automatic chunked-mode selection via ``chunk_cells`` /
  ``max_bytes``) behind ``survey()`` and the CLI, and the pluggable
  :data:`METRICS` registry where new metrics land.
"""

from repro.engine.chunked import DEFAULT_CHUNK_CELLS
from repro.engine.dynamic import (
    DynamicMetrics,
    DynamicUniverse,
    ReselectionEvent,
)
from repro.engine.context import (
    DEFAULT_CACHE_BYTES,
    CacheStats,
    MetricContext,
    get_context,
)
from repro.engine.pool import ContextPool
from repro.engine.shm import SharedGridStore, shared_key
from repro.engine.store import (
    FORMAT_VERSION,
    GridStore,
    canonical_key,
    render_key,
)
from repro.engine.threads import (
    BlockScheduler,
    ScratchBuffers,
    resolve_threads,
)
from repro.engine.sweep import (
    METRICS,
    CurveSpec,
    MetricEntry,
    MetricSpec,
    SkippedCell,
    Sweep,
    SweepRecord,
    SweepResult,
    parse_curve_spec,
    parse_metric_spec,
    register_metric,
)

__all__ = [
    "MetricContext",
    "CacheStats",
    "get_context",
    "DEFAULT_CACHE_BYTES",
    "DEFAULT_CHUNK_CELLS",
    "BlockScheduler",
    "ScratchBuffers",
    "resolve_threads",
    "ContextPool",
    "DynamicMetrics",
    "DynamicUniverse",
    "ReselectionEvent",
    "SharedGridStore",
    "shared_key",
    "GridStore",
    "FORMAT_VERSION",
    "canonical_key",
    "render_key",
    "Sweep",
    "SweepRecord",
    "SweepResult",
    "SkippedCell",
    "CurveSpec",
    "MetricSpec",
    "MetricEntry",
    "parse_curve_spec",
    "parse_metric_spec",
    "METRICS",
    "register_metric",
]
