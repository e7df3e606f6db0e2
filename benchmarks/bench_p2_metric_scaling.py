"""P2 — stretch-metric computation scaling and the metric-engine win.

Times the exact D^avg/D^max/Λ computation on growing universes; the
cost must stay O(d·n) (vectorized slice arithmetic, no per-cell
Python).  The free functions now share a cached
:class:`repro.engine.MetricContext` per curve, so the scaling benches
time a *cache-disabled* context (``max_bytes=0``) to keep measuring the
raw compute.  ``test_p2_multimetric_engine_speedup`` measures the point
of the engine: the full multi-metric set over one cached context vs
the seed behavior of rebuilding every intermediate per metric.
"""

import time

import pytest

from repro import Universe
from repro.core.asymptotics import lambda_z_exact
from repro.core.lower_bounds import davg_lower_bound
from repro.curves.zcurve import ZCurve
from repro.engine.context import MetricContext

CASES = {
    "d2_k8": Universe.power_of_two(d=2, k=8),  # 65k cells
    "d2_k10": Universe.power_of_two(d=2, k=10),  # 1M cells
    "d3_k6": Universe.power_of_two(d=3, k=6),  # 262k cells
}


def _uncached(curve) -> MetricContext:
    """A context that recomputes every intermediate on each call."""
    return MetricContext(curve, max_bytes=0)


@pytest.mark.parametrize("case", sorted(CASES))
def test_p2_davg_scaling(benchmark, case):
    universe = CASES[case]
    curve = ZCurve(universe)
    curve.key_grid()  # exclude one-time grid construction from timing
    value = benchmark(lambda: _uncached(curve).davg())
    assert value >= davg_lower_bound(universe.n, universe.d)


def test_p2_dmax_large(benchmark):
    universe = CASES["d2_k10"]
    curve = ZCurve(universe)
    curve.key_grid()
    value = benchmark(lambda: _uncached(curve).dmax())
    assert value > 0


def test_p2_lambda_large(benchmark):
    universe = CASES["d2_k10"]
    curve = ZCurve(universe)
    curve.key_grid()
    values = benchmark(lambda: _uncached(curve).lambda_sums())
    for i in (1, 2):
        assert int(values[i - 1]) == lambda_z_exact(universe, i)


def _full_metric_set(ctx: MetricContext) -> tuple:
    """The stretch_report + per-cell-heatmap metric set.

    This is what one ``survey`` row plus one heatmap render plus the
    distribution analysis consume: scalars, Λ sums, the NN distance
    pool and both per-cell grids.
    """
    return (
        ctx.davg(),
        ctx.dmax(),
        ctx.davg_ratio(),
        tuple(int(v) for v in ctx.lambda_sums()),
        float(ctx.nn_distance_values().mean()),
        float(ctx.per_cell_avg_stretch().max()),
        int(ctx.per_cell_max_stretch().max()),
    )


def _best_of(fn, repeats: int = 3) -> tuple[float, object]:
    best = float("inf")
    value = None
    for _ in range(repeats):
        start = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - start)
    return best, value


def test_p2_multimetric_engine_speedup(results_writer):
    """One cached context beats per-metric recomputation measurably."""
    universe = CASES["d2_k10"]
    curve = ZCurve(universe)
    curve.key_grid()  # both paths start from a built key grid

    # Seed behavior: every metric rebuilds the axis-distance arrays
    # (and the per-cell grids rebuild their reductions).
    def naive() -> tuple:
        return (
            _uncached(curve).davg(),
            _uncached(curve).dmax(),
            _uncached(curve).davg_ratio(),
            tuple(int(v) for v in _uncached(curve).lambda_sums()),
            float(_uncached(curve).nn_distance_values().mean()),
            float(_uncached(curve).per_cell_avg_stretch().max()),
            int(_uncached(curve).per_cell_max_stretch().max()),
        )

    # Engine behavior: one context, intermediates shared across metrics.
    def engine() -> tuple:
        return _full_metric_set(MetricContext(curve))

    naive_time, naive_values = _best_of(naive)
    engine_time, engine_values = _best_of(engine)
    assert engine_values == naive_values  # bit-for-bit identical metrics

    speedup = naive_time / engine_time
    results_writer(
        "p2_engine_speedup",
        "P2 — full NN metric set (Davg, Dmax, ratio, Lambda, NN mean, "
        "per-cell grids) on "
        f"{universe}\n\n"
        f"per-metric recompute (seed): {naive_time * 1e3:8.2f} ms\n"
        f"shared MetricContext:        {engine_time * 1e3:8.2f} ms\n"
        f"speedup:                     {speedup:8.2f}x\n",
    )
    print(f"\nmulti-metric speedup: {speedup:.2f}x")
    # The cached path does strictly less work (d axis-distance builds
    # instead of 4d); demand a measurable win with slack for noise.
    assert speedup > 1.1, f"expected engine speedup, got {speedup:.2f}x"


def test_p2_pooled_multimetric_no_regression(results_writer):
    """The ContextPool path keeps the multi-metric speedup (no regression).

    PR 2 moved sweeps onto a shared :class:`repro.engine.ContextPool`;
    the pooled context must deliver the same bit-for-bit values and the
    same order of speedup over per-metric recomputation as a private
    context does.
    """
    from repro.engine.pool import ContextPool

    universe = CASES["d2_k10"]
    curve = ZCurve(universe)
    curve.key_grid()  # both paths start from a built key grid

    def naive() -> tuple:
        return (
            _uncached(curve).davg(),
            _uncached(curve).dmax(),
            _uncached(curve).davg_ratio(),
            tuple(int(v) for v in _uncached(curve).lambda_sums()),
            float(_uncached(curve).nn_distance_values().mean()),
            float(_uncached(curve).per_cell_avg_stretch().max()),
            int(_uncached(curve).per_cell_max_stretch().max()),
        )

    def pooled() -> tuple:
        return _full_metric_set(ContextPool().get(curve))

    naive_time, naive_values = _best_of(naive)
    pooled_time, pooled_values = _best_of(pooled)
    assert pooled_values == naive_values  # bit-for-bit identical metrics

    speedup = naive_time / pooled_time
    results_writer(
        "p2_pool_speedup",
        "P2 — full NN metric set through a ContextPool context on "
        f"{universe}\n\n"
        f"per-metric recompute (seed): {naive_time * 1e3:8.2f} ms\n"
        f"pooled MetricContext:        {pooled_time * 1e3:8.2f} ms\n"
        f"speedup:                     {speedup:8.2f}x\n",
    )
    print(f"\npooled multi-metric speedup: {speedup:.2f}x")
    assert speedup > 1.1, f"pooled path regressed: {speedup:.2f}x"


def test_p2_context_computes_each_intermediate_once(monkeypatch):
    from repro.engine import chunked

    folds = []
    original = chunked.nn_block_reduction

    def counting(ctx):
        folds.append(ctx)
        return original(ctx)

    monkeypatch.setattr(chunked, "nn_block_reduction", counting)
    universe = CASES["d2_k8"]
    ctx = MetricContext(ZCurve(universe))
    _full_metric_set(ctx)
    ctx.stretch_report()
    assert folds == [ctx]
    assert ctx.stats.compute_count("key_grid") == 1
    assert ctx.stats.compute_count("neighbor_counts") == 1
    assert ctx.stats.hits > 0
