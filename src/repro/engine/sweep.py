"""Declarative curve × universe sweeps over the metric engine.

Every benchmark, example and CLI table in this repo is some flavor of
"for each universe, for each applicable curve, compute these metrics".
:class:`Sweep` makes that loop a declared object::

    Sweep(dims=[2, 3], sides=[16, 32],
          curves=["hilbert", "z", "random:seed=3"],
          metrics=["davg", "dilation:window=16", "partition:parts=8"]).run()

* **Curve specs** are strings ``name[:key=val[,key=val...]]`` parsed
  into registry kwargs (``"random:seed=3"`` →
  ``make_curve("random", u, seed=3)``); see :class:`CurveSpec`.
* **Metric specs** use the same grammar over the :data:`METRICS`
  registry (``"dilation:window=16"``); see :class:`MetricSpec`.  Each
  registered metric is a function of a
  :class:`repro.engine.MetricContext` (plus declared parameters), so
  every metric of a cell shares one cached set of intermediates —
  stretch, clustering, dilation and the application metrics all pull
  from the same context.
* **Applicability** uses the curve registry's capability metadata and,
  when a metric or report reads the NN fold, the fold's int64 envelope;
  skipped (universe, curve) cells are reported on the result, and
  ``strict=True`` raises on genuine construction errors.
* Every cell runs on a :class:`repro.engine.ContextPool` built from
  the cell's knobs, so equivalent specs share one context and
  transform-derived curves reuse their inner curve's arrays.  A serial
  sweep scopes one pool to each universe (``pooled=False``: to each
  cell); the pools' aggregate :class:`repro.engine.CacheStats` land on
  the result.
* ``processes=N`` fans the (universe, curve) cells out over a process
  pool — each cell is independent, so the sweep parallelizes trivially
  — and each worker runs its cell on a cell-scoped pool, whose stats
  are piped back and aggregated on the result.  With ``shared`` on
  (the ``"auto"`` default), the parent precomputes one key grid per
  canonical curve spec into
  :class:`repro.engine.shm.SharedGridStore` segments and the workers'
  pools attach zero-copy views instead of rebuilding every key grid
  privately (counted in :attr:`repro.engine.CacheStats.shared`) —
  except for specs :func:`repro.engine.shm.reuse_key` exempts:
  tables, and curves a native codec builds faster than a segment
  copy; identical cells are deduplicated spec-keyed before any work
  runs.  ``shared=False`` leaves every worker to build its own grids.
* ``chunk_cells`` (or the automatic selection against ``max_bytes``)
  runs cells in the engine's **chunked mode**, so universes whose dense
  ``(side,)*d`` key grid would blow the cache budget still sweep, with
  block-wise metric reductions bit-for-bit equal to the dense path.

:func:`repro.core.summary.survey` is now a thin wrapper over ``Sweep``;
the structured :class:`SweepResult` additionally carries per-metric
value dicts, a ready-to-print table, and the engine cache counters.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.summary import StretchReport, stretch_report
from repro.curves.registry import (
    available_curves,
    curve_applicability,
    curve_holds_table,
    curve_is_hidden,
    make_curve,
)
from repro.engine.chunked import DEFAULT_CHUNK_CELLS, check_fold_envelope
from repro.engine.context import (
    DEFAULT_CACHE_BYTES,
    CacheStats,
    MetricContext,
)
from repro.engine.pool import ContextPool
from repro.grid.universe import Universe

__all__ = [
    "CurveSpec",
    "MetricSpec",
    "MetricEntry",
    "parse_curve_spec",
    "parse_metric_spec",
    "METRICS",
    "register_metric",
    "Sweep",
    "SweepRecord",
    "SweepResult",
    "SkippedCell",
]


# ----------------------------------------------------------------------
# Spec grammar (shared by curve and metric specs)
# ----------------------------------------------------------------------
def _coerce(text: str) -> object:
    """Parse a spec value: int, then float, then bool, else string."""
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    if text.lower() in ("true", "false"):
        return text.lower() == "true"
    return text


def _render(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _parse_spec_text(
    spec: str, kind: str
) -> Tuple[str, Tuple[Tuple[str, object], ...]]:
    """Parse ``name[:key=val,...]`` into (name, kwargs tuple).

    A key given twice is refused rather than resolved last-wins: the
    label keeps both, so ``random:seed=1,seed=2`` would run as seed 2
    yet be a different cell from ``random:seed=2``.
    """
    text = spec.strip()
    if not text:
        raise ValueError(f"empty {kind} spec")
    name, _, tail = text.partition(":")
    name = name.strip()
    if not name:
        raise ValueError(f"{kind} spec {spec!r} has no name")
    kwargs: List[Tuple[str, object]] = []
    if tail:
        for part in tail.split(","):
            key, eq, raw = part.partition("=")
            key = key.strip()
            if not eq or not key:
                raise ValueError(
                    f"bad {kind} spec {spec!r}: expected key=value, "
                    f"got {part!r}"
                )
            if any(seen == key for seen, _ in kwargs):
                raise ValueError(
                    f"bad {kind} spec {spec!r}: parameter {key!r} "
                    f"is given more than once"
                )
            kwargs.append((key, _coerce(raw.strip())))
    return name, tuple(kwargs)


@dataclass(frozen=True)
class _Spec:
    """A name plus kwargs, round-trippable to ``name:key=val,...``."""

    #: Spec flavor used in error messages ("curve" / "metric").
    _kind = "spec"

    name: str
    kwargs: Tuple[Tuple[str, object], ...] = ()

    @classmethod
    def parse(cls, spec):
        if isinstance(spec, cls):
            return spec
        name, kwargs = _parse_spec_text(spec, cls._kind)
        return cls(name=name, kwargs=kwargs)

    @property
    def label(self) -> str:
        """Canonical string form, ``name`` or ``name:key=val,...``."""
        if not self.kwargs:
            return self.name
        tail = ",".join(f"{k}={_render(v)}" for k, v in self.kwargs)
        return f"{self.name}:{tail}"

    def __str__(self) -> str:
        return self.label


@dataclass(frozen=True)
class CurveSpec(_Spec):
    """A curve name plus constructor kwargs.

    >>> CurveSpec.parse("random:seed=3")
    CurveSpec(name='random', kwargs=(('seed', 3),))
    >>> str(CurveSpec.parse("random:seed=3"))
    'random:seed=3'
    """

    _kind = "curve"

    def make(self, universe: Universe):
        """Instantiate the spec'd curve on ``universe``.

        A keyword the curve does not take (``z:bogus=1``) raises
        ``ValueError``, like every other bad spec, not ``TypeError``.
        """
        try:
            return make_curve(self.name, universe, **dict(self.kwargs))
        except TypeError as exc:
            raise ValueError(f"curve spec {self.label!r}: {exc}") from exc

    def check_names(self) -> None:
        """Refuse an unknown curve name, here or in a nested ``inner=``.

        Raises ``KeyError`` for a name the registry does not know and
        ``ValueError`` for an empty nested spec, as a top-level name
        does, so a sweep refuses ``reversed:inner=bogus`` at plan time
        instead of after other cells have run.  Only the hidden
        transform wrappers take an ``inner=`` curve; on any other curve
        it is an unexpected keyword like any other (``z:inner=bogus``),
        and the cell is skipped when it fails to construct.

        >>> CurveSpec.parse("reversed:inner=bogus").check_names()
        ... # doctest: +ELLIPSIS
        Traceback (most recent call last):
        ...
        KeyError: "unknown curve 'bogus'; ...
        """
        inner = dict(self.kwargs).get("inner")
        if curve_is_hidden(self.name) and inner is not None:
            CurveSpec.parse(str(inner)).check_names()


@dataclass(frozen=True)
class MetricSpec(_Spec):
    """A metric name plus parameters, e.g. ``"dilation:window=16"``.

    >>> MetricSpec.parse("dilation:window=16").kwargs
    (('window', 16),)
    """

    _kind = "metric"

    def bind(self) -> "Callable[[MetricContext], object]":
        """Resolve against :data:`METRICS` into a context function."""
        if self.name not in METRICS:
            raise KeyError(
                f"unknown metrics [{self.label!r}]; "
                f"available: {sorted(METRICS)}"
            )
        return METRICS[self.name].bind(dict(self.kwargs))


def parse_curve_spec(spec: Union[str, CurveSpec]) -> CurveSpec:
    """Parse ``"name:key=val,..."`` into a :class:`CurveSpec`."""
    return CurveSpec.parse(spec)


def parse_metric_spec(spec: Union[str, MetricSpec]) -> MetricSpec:
    """Parse ``"name:key=val,..."`` into a :class:`MetricSpec`."""
    return MetricSpec.parse(spec)


# ----------------------------------------------------------------------
# Metric registry
# ----------------------------------------------------------------------
MetricFn = Callable[..., object]


@dataclass(frozen=True)
class MetricEntry:
    """One registered sweep metric: function + declared parameters."""

    name: str
    fn: MetricFn
    description: str = ""
    #: Accepted parameters as ``(name, default)`` pairs; metric-spec
    #: kwargs outside this set are rejected at plan time.
    params: Tuple[Tuple[str, object], ...] = ()
    #: Optional value validator (called with the explicit kwargs after
    #: the type checks).  Must raise an actionable ``ValueError`` for
    #: out-of-domain values, so ``"dilation:window=0"`` fails at plan
    #: time instead of deep inside NumPy mid-sweep.
    validate: Optional[Callable[[Dict[str, object]], None]] = None

    @property
    def signature(self) -> str:
        """Human-readable parameter list, e.g. ``"window=1,metric=..."``."""
        return ",".join(f"{k}={_render(v)}" for k, v in self.params)

    def bind(self, kwargs: Dict[str, object]) -> MetricFn:
        """The metric as a one-arg context function with bound params.

        Validates both parameter *names* and *value types* (against each
        declared default), so a bad spec fails at plan time with a clean
        ``ValueError`` instead of mid-sweep with an arbitrary exception.
        """
        allowed = dict(self.params)
        unknown = sorted(set(kwargs) - set(allowed))
        if unknown:
            accepts = self.signature or "no parameters"
            raise ValueError(
                f"metric {self.name!r} got unknown parameter(s) "
                f"{unknown}; accepts {accepts}"
            )
        for key, value in kwargs.items():
            default = allowed[key]
            if isinstance(default, bool):
                ok = isinstance(value, bool)
            elif isinstance(default, float):
                # ints are acceptable where a float is expected
                ok = isinstance(value, (int, float)) and not isinstance(
                    value, bool
                )
            elif isinstance(default, int):
                ok = isinstance(value, int) and not isinstance(value, bool)
            elif isinstance(default, str):
                ok = isinstance(value, str)
            else:
                ok = True
            if not ok:
                raise ValueError(
                    f"metric {self.name!r} parameter {key!r} expects "
                    f"{type(default).__name__} (default {_render(default)}), "
                    f"got {value!r}"
                )
        if self.validate is not None:
            self.validate(dict(kwargs))
        if not kwargs:
            return self.fn
        fn = self.fn
        return lambda ctx: fn(ctx, **kwargs)


#: Declarative metric names → :class:`MetricEntry` (functions of a
#: :class:`MetricContext` plus declared parameters).
METRICS: Dict[str, MetricEntry] = {}


def register_metric(
    name: str,
    fn: Optional[MetricFn] = None,
    *,
    overwrite: bool = False,
    description: str = "",
    params: Sequence[Tuple[str, object]] = (),
    validate: Optional[Callable[[Dict[str, object]], None]] = None,
):
    """Register a sweep metric (direct call or decorator form).

    ``fn`` takes a :class:`MetricContext` plus the keyword parameters
    declared in ``params`` (as ``(name, default)`` pairs).  Policy: new
    metrics land here — as a :class:`MetricContext`-consuming function —
    rather than as free functions in the analysis/apps layers.
    """

    def _register(f: MetricFn) -> MetricFn:
        if not overwrite and name in METRICS:
            raise ValueError(
                f"metric {name!r} is already registered; pass "
                "overwrite=True to replace it"
            )
        METRICS[name] = MetricEntry(
            name=name,
            fn=f,
            description=description,
            params=tuple(params),
            validate=validate,
        )
        return f

    if fn is None:
        return _register
    _register(fn)
    return None


def _min_validator(metric_name: str, **minimums):
    """A :class:`MetricEntry` validator enforcing per-param minimums."""

    def validate(params: Dict[str, object]) -> None:
        for key, minimum in minimums.items():
            value = params.get(key)
            if value is not None and value < minimum:
                raise ValueError(
                    f"metric {metric_name!r} parameter {key!r} must be "
                    f">= {minimum}, got {value}"
                )

    return validate


def _validate_dilation(params: Dict[str, object]) -> None:
    _min_validator("dilation", window=1)(params)
    metric = params.get("metric")
    if metric is not None and metric not in ("manhattan", "euclidean"):
        raise ValueError(
            "metric 'dilation' parameter 'metric' must be 'manhattan' "
            f"or 'euclidean', got {metric!r}"
        )


def _allpairs_metric(grid_metric: str) -> MetricFn:
    """All-pairs stretch with ``survey()``'s exact/sampled policy."""
    from repro.core.summary import _EXACT_ALLPAIRS_LIMIT

    def fn(ctx: MetricContext) -> float:
        if ctx.universe.n <= _EXACT_ALLPAIRS_LIMIT:
            return ctx.allpairs_exact(grid_metric)
        return ctx.allpairs_sampled(metric=grid_metric).mean

    return fn


def _dilation_metric(ctx: MetricContext, window: int = 1, metric: str = "manhattan"):
    from repro.analysis.locality import window_dilation

    return window_dilation(ctx, window, metric=metric)


def _partition_metric(ctx: MetricContext, parts: int = 8) -> float:
    from repro.apps.partition import partition_quality

    return partition_quality(ctx, parts).cut_fraction


def _clusters_metric(
    ctx: MetricContext, box: int = 4, samples: int = 100, seed: int = 0
) -> float:
    from repro.analysis.clustering import expected_clusters

    return expected_clusters(
        ctx, (box,) * ctx.universe.d, n_samples=samples, seed=seed
    )


def _rangequery_metric(
    ctx: MetricContext,
    box: int = 4,
    samples: int = 50,
    seed: int = 0,
    seek: float = 10.0,
    scan: float = 1.0,
) -> float:
    from repro.apps.rangequery import SFCIndex

    index = SFCIndex(ctx, seek_cost=seek, scan_cost=scan)
    return index.average_query_cost(
        (box,) * ctx.universe.d, n_samples=samples, seed=seed
    )


register_metric(
    "davg", lambda ctx: ctx.davg(),
    description="average-average NN stretch D^avg (Definition 2), exact",
)
register_metric(
    "dmax", lambda ctx: ctx.dmax(),
    description="average-maximum NN stretch D^max (Definition 4), exact",
)
register_metric(
    "lower_bound", lambda ctx: ctx.lower_bound(),
    description="Theorem 1 universal lower bound on D^avg",
)
register_metric(
    "davg_ratio", lambda ctx: ctx.davg_ratio(),
    description="D^avg / lower bound — the paper's optimality ratio",
)
register_metric(
    "lambdas",
    lambda ctx: tuple(int(v) for v in ctx.lambda_sums()),
    description="Lemma 5 per-dimension stretch totals (Λ_1..Λ_d)",
)
register_metric(
    "allpairs_manhattan", _allpairs_metric("manhattan"),
    description="all-pairs stretch, Manhattan (exact ≤4096 cells, else sampled)",
)
register_metric(
    "allpairs_euclidean", _allpairs_metric("euclidean"),
    description="all-pairs stretch, Euclidean (exact ≤4096 cells, else sampled)",
)
register_metric(
    "nn_mean", lambda ctx: ctx.nn_mean(),
    description="mean ∆π over NN pairs (expected key shift of a unit move)",
)
register_metric(
    "dilation", _dilation_metric,
    description="window dilation: max grid distance of a fixed curve-index "
    "step (Gotsman-Lindenbaum reverse metric)",
    params=(("window", 1), ("metric", "manhattan")),
    validate=_validate_dilation,
)
register_metric(
    "partition", _partition_metric,
    description="edge-cut fraction of the p-way contiguous curve partition "
    "(communication fraction)",
    params=(("parts", 8),),
    validate=_min_validator("partition", parts=1),
)
register_metric(
    "clusters", _clusters_metric,
    description="Moon et al. expected cluster count over random cubic boxes",
    params=(("box", 4), ("samples", 100), ("seed", 0)),
    validate=_min_validator("clusters", box=1, samples=1),
)
register_metric(
    "rangequery", _rangequery_metric,
    description="mean seek+scan I/O cost of random cubic box queries",
    params=(
        ("box", 4),
        ("samples", 50),
        ("seed", 0),
        ("seek", 10.0),
        ("scan", 1.0),
    ),
    validate=_min_validator(
        "rangequery", box=1, samples=1, seek=0, scan=0
    ),
)

#: The metrics that read the NN fold (so do the cell reports).
_NN_FOLD_METRICS = {"davg", "dmax", "davg_ratio", "lambdas", "nn_mean"}


#: Metric set matching the legacy ``survey()`` columns.
DEFAULT_METRICS: Tuple[str, ...] = (
    "davg",
    "dmax",
    "lower_bound",
    "davg_ratio",
    "lambdas",
)


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SweepRecord:
    """One computed (universe, curve) cell of a sweep."""

    spec: str
    curve_name: str
    d: int
    side: int
    n: int
    values: Dict[str, object]
    report: Optional[StretchReport] = None

    def as_row(self) -> Dict[str, object]:
        """Flat dict for table formatting."""
        row: Dict[str, object] = {
            "curve": self.spec,
            "d": self.d,
            "side": self.side,
            "n": self.n,
        }
        row.update(self.values)
        return row


@dataclass(frozen=True)
class SkippedCell:
    """A (universe, curve) cell the sweep did not compute, and why."""

    spec: str
    d: int
    side: int
    reason: str


@dataclass(frozen=True)
class SweepResult:
    """Structured output of :meth:`Sweep.run`."""

    records: List[SweepRecord]
    skipped: List[SkippedCell] = field(default_factory=list)
    #: Aggregate engine cache counters of the run: the stats of every
    #: pool the run's cells ran on (process workers pipe theirs back
    #: through the executor), so they cover every execution mode.
    cache_stats: CacheStats = field(default_factory=CacheStats)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    @property
    def reports(self) -> List[StretchReport]:
        """The :class:`StretchReport` of every computed cell."""
        return [r.report for r in self.records if r.report is not None]

    def rows(self) -> List[Dict[str, object]]:
        """Flat metric rows, one per computed cell."""
        return [r.as_row() for r in self.records]

    def to_table(self) -> str:
        """The sweep as a formatted text table."""
        from repro.viz.tables import format_table

        return format_table(self.rows())


# ----------------------------------------------------------------------
# The sweep runner
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CellTask:
    """One planned sweep cell: a universe, a curve spec and the knobs.

    Frozen, so it hashes and compares by value: the sweep's dedup dict
    and the serve single-flight table key on it, and process workers
    receive it pickled.
    """

    d: int
    side: int
    spec: str
    metrics: Tuple[str, ...]
    with_report: bool
    include_allpairs: bool
    allpairs_samples: int
    seed: int
    strict: bool
    chunk_cells: Optional[int]
    max_bytes: Optional[int]
    threads: int
    backend: str
    store_dir: Optional[str]


def _task_pool(task: CellTask, shared_store=None) -> ContextPool:
    """The :class:`ContextPool` a cell runs on, built from its knobs.

    ``shared_store`` is a process worker's attached
    :class:`repro.engine.shm.SharedGridStore` (``None`` when the sweep
    does not share).
    """
    return ContextPool(
        max_bytes=task.max_bytes,
        chunk_cells=task.chunk_cells,
        shared_store=shared_store,
        threads=task.threads,
        backend=task.backend,
        store_dir=task.store_dir,
    )


def _run_cell(task: CellTask, pool: ContextPool):
    """Compute one (universe, curve) cell on ``pool``; top-level for
    pickling.  The cell's cache counters land in ``pool.stats``."""
    d, side = task.d, task.side
    universe = Universe(d=d, side=side)
    spec = CurveSpec.parse(task.spec)
    try:
        curve = spec.make(universe)
    except ValueError as exc:
        # Bad spec kwargs ("z:bogus=1") included; one bad cell
        # must not crash the rest of the sweep.
        if task.strict:
            raise ValueError(
                f"curve {spec.label!r} failed to construct on "
                f"{universe}: {exc}"
            ) from exc
        return SkippedCell(
            spec=spec.label,
            d=d,
            side=side,
            reason=f"construction error: {exc}",
        )
    ctx = pool.get(curve)
    # Record which backend actually serves this cell (the *resolved*
    # backend: an unavailable "native" request degrades to "numpy"), so
    # --stats / the serve /stats payload can report it.
    ctx.stats.backends[ctx.backend] = (
        ctx.stats.backends.get(ctx.backend, 0) + 1
    )
    values = {}
    for text in task.metrics:
        metric_spec = MetricSpec.parse(text)
        values[metric_spec.label] = metric_spec.bind()(ctx)
    report = None
    if task.with_report:
        report = stretch_report(
            curve,
            include_allpairs=task.include_allpairs,
            allpairs_samples=task.allpairs_samples,
            seed=task.seed,
            context=ctx,
        )
    return SweepRecord(
        spec=spec.label,
        curve_name=curve.name,
        d=d,
        side=side,
        n=universe.n,
        values=values,
        report=report,
    )


def _assemble(
    tasks: List[CellTask],
    outcome_of: Dict[CellTask, object],
    skipped: List[SkippedCell],
) -> Tuple[List[SweepRecord], List[SkippedCell]]:
    """The records and skips of a run, in plan order.

    Each task's outcome (a record or a cell-level skip) is looked up
    by value, so repeated cells reuse one outcome positionally; cell
    skips follow the planned ``skipped``, which is extended in place.
    """
    records: List[SweepRecord] = []
    for task in tasks:
        outcome = outcome_of[task]
        if isinstance(outcome, SkippedCell):
            skipped.append(outcome)
        else:
            records.append(outcome)
    return records, skipped


#: Worker-process handle on the parent's published segments, set by
#: :func:`_worker_attach_shared` through the executor initializer.
_WORKER_SHARED_STORE = None


def _worker_attach_shared(manifest) -> None:
    """Executor initializer: attach the parent's shared-grid manifest."""
    global _WORKER_SHARED_STORE
    from repro.engine.shm import SharedGridStore

    _WORKER_SHARED_STORE = SharedGridStore.attach(manifest)


def _run_cell_with_stats(task: CellTask):
    """Process-pool entry point: one cell plus its worker cache stats.

    The cell runs on a cell-scoped pool, wired to the parent's
    published segments when the sweep shares (see
    :func:`_worker_attach_shared`), so a transform's base context is
    created transitively in it.  Returning the pool's
    :class:`CacheStats` after the cell ran lets the parent aggregate
    engine counters across workers.
    """
    pool = _task_pool(task, shared_store=_WORKER_SHARED_STORE)
    return _run_cell(task, pool), pool.stats


def _publish_shared(tasks: List[CellTask]):
    """Publish one key grid per canonical spec into shared memory.

    Returns ``(store, stats)``: the owning
    :class:`repro.engine.shm.SharedGridStore` and the publishing pools'
    :class:`CacheStats` (folded into the sweep result, so parent-side
    computes and transform derivations stay visible).  Only dense
    cells whose spec :func:`repro.engine.shm.reuse_key` keys on the
    cells' backend publish; workers derive flat keys and curve order
    from the attached grid.  Chunked cells are skipped —
    materializing a beyond-budget dense grid in the parent would
    defeat the point of chunking — as are cells whose curve fails to
    construct (the worker reports those as skipped) and table curves,
    which :func:`repro.engine.shm.reuse_key` never keys: their
    constructor alone already costs the full grid build.  One pool per
    universe, built from the cells' knobs as a worker's is, builds the
    grids, so a transform's grid is derived from its inner curve's,
    and with a ``store_dir`` a warm parent maps each grid from disk
    while a cold one writes its computes through for the next run.
    """
    from repro.engine.shm import SharedGridStore, reuse_key

    store = SharedGridStore.create()
    stats: List[CacheStats] = []
    pool: Optional[ContextPool] = None
    pool_universe = None
    try:
        for task in tasks:
            if task.chunk_cells is not None:
                continue
            d, side = task.d, task.side
            if pool is None or pool_universe != (d, side):
                if pool is not None:
                    stats.append(pool.stats)
                pool, pool_universe = _task_pool(task), (d, side)
            spec = CurveSpec.parse(task.spec)
            if curve_holds_table(spec.name):
                continue  # reuse_key would refuse it, after the build
            try:
                curve = spec.make(Universe(d=d, side=side))
            except ValueError:
                continue
            skey = reuse_key(curve, task.backend)
            if skey is not None and (skey, "key_grid") not in store:
                store.put(skey, "key_grid", pool.get(curve).key_grid())
    except BaseException:
        store.unlink()  # publishing died midway: leak nothing
        raise
    if pool is not None:
        stats.append(pool.stats)
    return store, CacheStats.aggregate(stats)


@dataclass
class Sweep:
    """A declared curve × universe × metric sweep.

    Universes come from the cross product ``dims × sides`` and/or an
    explicit ``universes`` list.  ``curves=None`` selects every
    registered curve applicable to each universe (sorted by name, like
    the legacy ``survey()``); otherwise curves is a list of names or
    ``"name:key=val"`` spec strings, kept in the given order.

    ``metrics`` names entries of :data:`METRICS`, optionally
    parameterized (``"dilation:window=16"``).  ``reports=True``
    additionally builds a full :class:`StretchReport` per cell (sharing
    the cell's cached intermediates, so this costs nothing extra for the
    default metric set).  Every cell runs on a
    :class:`repro.engine.ContextPool`: a serial run scopes one to each
    universe (``pooled=False``: to each cell); ``processes`` > 1
    distributes cells over a process pool instead, each worker running
    its cell on a cell-scoped pool, and the workers' cache stats are
    aggregated on the result.  ``pooled`` only sets a serial run's
    pool scope, just as ``shared`` only applies to process runs.

    **Process-pool sharing** (``shared``): with ``"auto"`` (the
    default) or ``True``, a process sweep publishes one key grid per
    canonical curve spec into
    :class:`repro.engine.shm.SharedGridStore` segments before the
    executor starts; workers attach zero-copy views instead of
    recomputing (counted under :attr:`CacheStats.shared`) and derive
    flat keys and curve order from them.  Specs
    :func:`repro.engine.shm.reuse_key` exempts publish nothing: table
    curves, and on the native backend every curve with a native codec,
    whose grid a worker builds faster than the parent publishes it.  The
    parent unlinks every segment when the sweep finishes, even on
    worker failure.  Identical (universe, curve, metrics) cells are
    deduplicated before any work runs, in every execution mode.
    ``shared=False`` leaves every worker to build its own grids.

    **Intra-cell threading** (``threads``): each cell's block
    reductions can additionally fan out over a per-context thread pool
    (:mod:`repro.engine.threads`) — the NumPy block kernels release
    the GIL, so this composes with *every* execution mode, including
    process sweeps (``"auto"`` sizes threads-per-cell so
    ``processes × threads <= cores``).  Results stay bit-for-bit
    identical; the worker-thread cache traffic lands in the same
    aggregated :class:`CacheStats`.

    **Memory model**: ``max_bytes`` is each context's LRU budget for
    retained intermediates; ``chunk_cells`` bounds what is materialized
    at once.  With the default ``chunk_cells=None`` the engine's
    chunked mode is auto-selected per universe whenever the dense
    ``(side,)*d`` key grid alone would exceed ``max_bytes``; an
    explicit positive ``chunk_cells`` forces chunked execution with
    that block size, and ``chunk_cells=0`` forces the dense mode.
    Chunked cells never use the shared store — they exist precisely to
    avoid materializing dense ``O(n)`` arrays — so a worker builds
    their slabs itself.

    >>> from repro import Universe
    >>> result = Sweep(universes=[Universe(d=2, side=4)],
    ...                curves=["z", "snake"], metrics=("davg",),
    ...                reports=False).run()
    >>> [r.spec for r in result.records]
    ['z', 'snake']
    >>> result.records[0].values["davg"] > 0
    True
    """

    dims: Optional[Sequence[int]] = None
    sides: Optional[Sequence[int]] = None
    universes: Optional[Sequence[Universe]] = None
    curves: Optional[Sequence[Union[str, CurveSpec]]] = None
    metrics: Sequence[Union[str, MetricSpec]] = DEFAULT_METRICS
    reports: bool = True
    include_allpairs: bool = False
    allpairs_samples: int = 50_000
    seed: int = 0
    strict: bool = False
    processes: Optional[int] = None
    pooled: bool = True
    chunk_cells: Optional[int] = None
    max_bytes: Optional[int] = DEFAULT_CACHE_BYTES
    #: Shared-memory grid store policy for process sweeps: ``"auto"``
    #: (share whenever ``processes`` > 1), ``True`` (same, stated
    #: explicitly) or ``False`` (each worker builds its own grids).
    shared: Union[bool, str] = "auto"
    #: Worker threads per cell for block-parallel metric reductions:
    #: ``None`` (serial), a positive int, or ``"auto"`` — which sizes
    #: threads-per-cell so ``processes × threads <= cores`` when a
    #: process pool is also in play, and uses every core otherwise.
    #: Threaded results are bit-for-bit identical to serial runs; see
    #: :mod:`repro.engine.threads`.
    threads: Union[None, int, str] = None
    #: Compute backend for every cell: ``"numpy"``, ``"native"`` (warn
    #: once and fall back when the compiled kernels are unavailable) or
    #: ``"auto"`` (native when available).  Backend choice never
    #: changes values — see :mod:`repro.engine.native`.  The per-cell
    #: resolution is recorded in :attr:`CacheStats.backends`.
    backend: str = "auto"
    #: Directory of a persistent :class:`repro.engine.store.GridStore`
    #: (``repro sweep --store``), or ``None``.  Every execution mode
    #: threads it through: serial pools, shared-mode publishing parents
    #: and process workers all resolve grid intermediates from (and
    #: write them through to) the same on-disk artifacts, counted in
    #: :attr:`CacheStats.mmap`.  Only key grids are stored, and only
    #: for curves :func:`repro.engine.shm.reuse_key` keys: tables are
    #: exempt, and so are curves a native codec encodes on the native
    #: backend.  Values are bit-for-bit
    #: identical with and without a store; only where the bytes come
    #: from changes.
    store_dir: Optional[str] = None

    def resolve_thread_count(self) -> int:
        """The concrete per-cell worker-thread count of this sweep."""
        from repro.engine.threads import resolve_threads

        return resolve_threads(self.threads, processes=self.processes)

    def resolve_chunk_cells(self, universe: Universe) -> Optional[int]:
        """The block size to use for ``universe`` (``None`` = dense).

        Explicit ``chunk_cells`` wins (0 forcing dense); otherwise
        chunked mode is selected exactly when the universe's dense
        int64 key grid would not fit the ``max_bytes`` cache budget,
        with the block scaled so one block's working set (keys, block
        coordinates and reduction temporaries — roughly 64 bytes/cell)
        also fits the budget.
        """
        if self.chunk_cells is not None:
            if self.chunk_cells < 0:
                raise ValueError(
                    "chunk_cells must be >= 0 (0 forces the dense "
                    f"mode), got {self.chunk_cells}"
                )
            return self.chunk_cells if self.chunk_cells > 0 else None
        if self.max_bytes is not None and universe.n * 8 > self.max_bytes:
            scaled = self.max_bytes // 64
            return int(min(DEFAULT_CHUNK_CELLS, max(1024, scaled)))
        return None

    def resolved_universes(self) -> List[Universe]:
        """The universe list the sweep will visit, in order."""
        out: List[Universe] = []
        if self.universes is not None:
            out.extend(self.universes)
        if self.dims is not None or self.sides is not None:
            if self.dims is None or self.sides is None:
                raise ValueError("dims and sides must be given together")
            for d in self.dims:
                for side in self.sides:
                    out.append(Universe(d=d, side=side))
        if not out:
            raise ValueError(
                "empty sweep: provide universes or dims+sides"
            )
        return out

    def _curve_specs(self) -> List[CurveSpec]:
        """The curve specs of every universe, names checked."""
        if self.curves is None:
            return [CurveSpec(name) for name in available_curves()]
        specs = [CurveSpec.parse(c) for c in self.curves]
        for spec in specs:
            spec.check_names()
        return specs

    def _plan(self) -> Tuple[List[CellTask], List[SkippedCell]]:
        specs = [MetricSpec.parse(m) for m in self.metrics]
        unknown = [s.label for s in specs if s.name not in METRICS]
        if unknown:
            raise KeyError(
                f"unknown metrics {unknown}; available: {sorted(METRICS)}"
            )
        for spec in specs:  # validate params eagerly, before any work
            spec.bind()
        from repro.engine.native import BACKENDS

        if self.backend not in BACKENDS:
            raise ValueError(
                f"backend must be one of {list(BACKENDS)}, "
                f"got {self.backend!r}"
            )
        metric_texts = tuple(s.label for s in specs)
        thread_count = self.resolve_thread_count()
        # Normalized to str (accepts Path) so tasks stay hashable and
        # picklable for the dedup dict and the process executor.
        store_dir = None if self.store_dir is None else str(self.store_dir)
        curve_specs = self._curve_specs()
        folds = self.reports or any(s.name in _NN_FOLD_METRICS for s in specs)
        tasks: List[CellTask] = []
        skipped: List[SkippedCell] = []
        for universe in self.resolved_universes():
            chunk_cells = self.resolve_chunk_cells(universe)
            envelope = None
            try:  # refuse what the NN fold would, before any build
                if folds:
                    check_fold_envelope(universe, chunk_cells, thread_count)
            except ValueError as exc:
                envelope = str(exc)
            for spec in curve_specs:
                applicable, reason = curve_applicability(
                    spec.name, universe
                )
                if applicable is not False and envelope:
                    applicable, reason = False, envelope
                if applicable is False:
                    skipped.append(
                        SkippedCell(
                            spec=spec.label,
                            d=universe.d,
                            side=universe.side,
                            reason=reason or "not applicable",
                        )
                    )
                    continue
                tasks.append(
                    CellTask(
                        d=universe.d,
                        side=universe.side,
                        spec=spec.label,
                        metrics=metric_texts,
                        with_report=self.reports,
                        include_allpairs=self.include_allpairs,
                        allpairs_samples=self.allpairs_samples,
                        seed=self.seed,
                        strict=self.strict,
                        chunk_cells=chunk_cells,
                        max_bytes=self.max_bytes,
                        threads=thread_count,
                        backend=self.backend,
                        store_dir=store_dir,
                    )
                )
        return tasks, skipped

    def _shared_active(self) -> bool:
        """Whether a process sweep should publish a shared grid store."""
        # Identity checks: 0/1 equal False/True but must not pass as
        # opt-out/opt-in ("shared=0" silently *enabling* sharing was a
        # review catch).
        if not any(self.shared is v for v in (True, False, "auto")):
            raise ValueError(
                'shared must be True, False or "auto", '
                f"got {self.shared!r}"
            )
        return self.shared is not False

    def run(self) -> SweepResult:
        """Execute the sweep and return structured results."""
        tasks, skipped = self._plan()
        shared_active = self._shared_active()  # validated in every mode
        # Spec-keyed result reuse: identical (universe, curve, metrics)
        # cells are computed once and their outcome reused positionally.
        unique_tasks = list(dict.fromkeys(tasks))
        stats: List[CacheStats] = []
        outcome_of: Dict[CellTask, object] = {}
        if self.processes is not None and self.processes > 1 and tasks:
            store = None
            initializer = None
            initargs = ()
            if shared_active:
                store, publish_stats = _publish_shared(unique_tasks)
                stats.append(publish_stats)
                initializer = _worker_attach_shared
                initargs = (store.manifest(),)
            # fork() in a multi-threaded parent is hazardous (a child
            # inherits lock state from threads it does not have): join
            # any idle block-scheduler workers left by earlier threaded
            # contexts before the executor forks.  Schedulers rebuild
            # their pools lazily on next use.
            from repro.engine.threads import quiesce_schedulers

            quiesce_schedulers()
            try:
                with ProcessPoolExecutor(
                    max_workers=min(self.processes, len(unique_tasks)),
                    initializer=initializer,
                    initargs=initargs,
                ) as executor:
                    pairs = list(
                        executor.map(_run_cell_with_stats, unique_tasks)
                    )
            finally:
                # Unlink even when a worker raised or died: shared
                # segments must never outlive the sweep.
                if store is not None:
                    store.unlink()
            for task, (outcome, cell_stats) in zip(unique_tasks, pairs):
                outcome_of[task] = outcome
                stats.append(cell_stats)
        else:
            # One pool per universe: cross-curve sharing happens within
            # a universe, and plan order groups cells by universe, so a
            # finished universe's contexts are dead weight — scoping the
            # pool bounds peak memory to one universe's curve set.
            # ``pooled=False`` scopes a pool to each cell instead.
            pool: Optional[ContextPool] = None
            scope = None
            for task in unique_tasks:
                cell_scope = (task.d, task.side) if self.pooled else task
                if pool is None or cell_scope != scope:
                    if pool is not None:
                        stats.append(pool.stats)
                    pool, scope = _task_pool(task), cell_scope
                outcome_of[task] = _run_cell(task, pool)
            if pool is not None:
                stats.append(pool.stats)
        records, skipped = _assemble(tasks, outcome_of, skipped)
        return SweepResult(
            records=records,
            skipped=skipped,
            cache_stats=CacheStats.aggregate(stats),
        )
