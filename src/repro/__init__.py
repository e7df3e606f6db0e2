"""repro — reproduction of Xu & Tirthapura (IPDPS 2012),
"A Lower Bound on Proximity Preservation by Space Filling Curves".

Public API highlights
---------------------
* :class:`repro.Universe` — the d-dimensional grid model (Section III).
* Curves: :class:`repro.ZCurve`, :class:`repro.SimpleCurve`,
  :class:`repro.HilbertCurve`, :class:`repro.GrayCurve`, … (see
  :mod:`repro.curves`).
* Metrics: :class:`repro.MetricContext` — one cached compute core per
  (curve, universe) exposing ``D^avg``, ``D^max``, ``Λ_i`` sums, per-cell
  grids, all-pairs stretch, the curve order and windowed curve-shift
  arrays over shared intermediates.  Every function in
  :mod:`repro.analysis` and :mod:`repro.apps` accepts a curve *or* a
  context, and the classic free functions
  (:func:`repro.average_average_nn_stretch`, …) remain as thin wrappers.
* Pooling: :class:`repro.ContextPool` — shares one context per
  canonical curve spec of a universe and derives transform-curve
  arrays (reversed/reflected/axis-permuted) from their inner curve's
  cache.  Process sweeps extend the sharing
  across workers: :class:`repro.SharedGridStore` publishes one key
  grid per curve spec into shared memory and workers attach zero-copy
  views (see ``docs/parallelism.md``).
* Sweeps: :class:`repro.Sweep` — declarative curve × universe × metric
  runs (``"random:seed=3"``-style curve specs,
  ``"dilation:window=16"``-style metric specs over the pluggable
  :data:`repro.engine.METRICS` registry, capability-aware curve
  selection, pooled execution, optional process parallelism, and
  thread-parallel block reductions inside each cell via
  ``threads="auto"|N`` — bit-for-bit identical to serial) behind
  :func:`repro.survey` and the CLI.  Policy: new metrics land in the
  engine (as context functions registered via
  :func:`repro.register_metric`).
* Bounds: :func:`repro.davg_lower_bound` (Theorem 1) and the closed
  forms in :mod:`repro.core.asymptotics`.

Quickstart
----------
>>> from repro import Universe, ZCurve, MetricContext, Sweep
>>> u = Universe.power_of_two(d=2, k=4)      # 16x16 grid, n = 256
>>> ctx = MetricContext(ZCurve(u))           # one cached compute core
>>> ctx.davg() >= ctx.lower_bound()          # Theorem 1
True
>>> result = Sweep(dims=[2], sides=[8, 16],  # declarative sweep
...                curves=["z", "hilbert", "random:seed=3"],
...                metrics=["davg", "dilation:window=16"]).run()
>>> len(result.records)
6
>>> result.cache_stats.total_computes > 0    # pooled engine counters
True
"""

from repro.grid.universe import Universe
from repro.curves import (
    DiagonalCurve,
    GrayCurve,
    HilbertCurve,
    PeanoCurve,
    PermutationCurve,
    RandomCurve,
    SimpleCurve,
    SnakeCurve,
    SpaceFillingCurve,
    SpiralCurve,
    ZCurve,
    available_curves,
    curves_for_universe,
    figure1_pi1,
    figure1_pi2,
    make_curve,
    register_curve,
)
from repro.core import (
    average_allpairs_stretch_exact,
    average_allpairs_stretch_sampled,
    average_average_nn_stretch,
    average_maximum_nn_stretch,
    davg_lower_bound,
    davg_simple_exact,
    davg_z_limit,
    dmax_lower_bound,
    dmax_simple_exact,
    gap_survey,
    lambda_sums,
    lambda_z_exact,
    lemma2_sum_exact,
    optimality_ratio,
    stretch_report,
    survey,
    theorem1_certificate,
)
from repro.engine import (
    CacheStats,
    ContextPool,
    CurveSpec,
    MetricContext,
    MetricSpec,
    SharedGridStore,
    Sweep,
    SweepResult,
    get_context,
    parse_curve_spec,
    parse_metric_spec,
    register_metric,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "Universe",
    "SpaceFillingCurve",
    "PermutationCurve",
    "ZCurve",
    "SimpleCurve",
    "SnakeCurve",
    "GrayCurve",
    "HilbertCurve",
    "PeanoCurve",
    "DiagonalCurve",
    "SpiralCurve",
    "RandomCurve",
    "figure1_pi1",
    "figure1_pi2",
    "available_curves",
    "curves_for_universe",
    "register_curve",
    "make_curve",
    "average_average_nn_stretch",
    "average_maximum_nn_stretch",
    "average_allpairs_stretch_exact",
    "average_allpairs_stretch_sampled",
    "lambda_sums",
    "lambda_z_exact",
    "lemma2_sum_exact",
    "davg_lower_bound",
    "dmax_lower_bound",
    "davg_z_limit",
    "davg_simple_exact",
    "dmax_simple_exact",
    "optimality_ratio",
    "gap_survey",
    "stretch_report",
    "survey",
    "theorem1_certificate",
    "MetricContext",
    "CacheStats",
    "ContextPool",
    "SharedGridStore",
    "get_context",
    "Sweep",
    "SweepResult",
    "CurveSpec",
    "MetricSpec",
    "parse_curve_spec",
    "parse_metric_spec",
    "register_metric",
]
