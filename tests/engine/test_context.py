"""Tests for the MetricContext caching engine."""

import numpy as np
import pytest

from repro import Universe
from repro.core import stretch as stretch_mod
from repro.core.summary import stretch_report
from repro.curves.hilbert import HilbertCurve
from repro.curves.random_curve import RandomCurve
from repro.curves.zcurve import ZCurve
from repro.engine import chunked, native
from repro.engine import sweep as sweep_mod
from repro.engine.context import MetricContext, get_context
from repro.engine.pool import ContextPool
from repro.engine.sweep import Sweep

requires_native = pytest.mark.skipif(
    not native.available(),
    reason=f"native backend unavailable: {native.unavailable_reason()}",
)


@pytest.fixture
def fold_calls(monkeypatch):
    """Contexts passed to the NN fold, in call order."""
    calls = []
    original = chunked.nn_block_reduction

    def counting(ctx):
        calls.append(ctx)
        return original(ctx)

    monkeypatch.setattr(chunked, "nn_block_reduction", counting)
    return calls


class TestComputeOnce:
    def test_full_metric_set_single_build(self, u2_8, fold_calls):
        ctx = MetricContext(ZCurve(u2_8))
        ctx.davg()
        ctx.dmax()
        ctx.davg_ratio()
        ctx.lambda_sums()
        ctx.nn_mean()
        ctx.nn_distance_values()
        ctx.per_cell_avg_stretch()
        ctx.per_cell_max_stretch()
        ctx.gij_decomposition(0)
        stretch_report(ZCurve(u2_8))  # unrelated curve, fresh context
        assert fold_calls.count(ctx) == 1
        assert ctx.stats.compute_count("key_grid") == 1
        assert ctx.stats.compute_count("neighbor_counts") == 1
        assert ctx.stats.compute_count("per_cell_sums") == 1
        assert ctx.stats.compute_count("per_cell_max") == 1
        assert ctx.stats.hits > 0

    def test_report_reuses_context_intermediates(self, u2_8, fold_calls):
        ctx = MetricContext(ZCurve(u2_8))
        ctx.stretch_report(include_allpairs=True)
        ctx.stretch_report(include_allpairs=True)
        assert fold_calls == [ctx]
        assert ctx.stats.compute_count("key_grid") == 1

    def test_scalars_memoized(self, u2_8):
        ctx = MetricContext(ZCurve(u2_8))
        first = ctx.davg()
        computes = dict(ctx.stats.computes)
        assert ctx.davg() == first
        assert ctx.allpairs_exact() == ctx.allpairs_exact()
        assert dict(ctx.stats.computes) == computes

    def test_cache_disabled_recomputes(self, u2_8, fold_calls):
        ctx = MetricContext(ZCurve(u2_8), max_bytes=0)
        ctx.lambda_sums()
        ctx.lambda_sums()
        ctx.nn_distance_values()
        ctx.nn_distance_values()
        assert ctx.stats.compute_count("lambda_sums") == 2
        assert ctx.stats.compute_count("nn_values") == 2
        # The fold result is a memoized scalar, kept regardless of the
        # store.
        assert fold_calls == [ctx]


class TestOneFold:
    @pytest.mark.parametrize("chunk", [None, 16])
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize(
        "backend", ["numpy", pytest.param("native", marks=requires_native)]
    )
    def test_nn_scalars_share_one_fold(
        self, u2_8, fold_calls, chunk, threads, backend
    ):
        ctx = MetricContext(
            HilbertCurve(u2_8),
            chunk_cells=chunk,
            threads=threads,
            backend=backend,
        )
        for _ in range(2):
            ctx.davg()
            ctx.dmax()
            ctx.lambda_sums()
            ctx.nn_mean()
            ctx.davg_ratio()
        assert fold_calls == [ctx]

    def test_fold_ranges_per_mode(self, u2_8):
        curve = ZCurve(u2_8)
        assert chunked.fold_ranges(MetricContext(curve)) == [(0, 8)]
        assert chunked.fold_ranges(MetricContext(curve, threads=2)) == [
            (lo, lo + 1) for lo in range(8)
        ]
        assert chunked.fold_ranges(
            MetricContext(curve, chunk_cells=16, threads=2)
        ) == [(0, 2), (2, 4), (4, 6), (6, 8)]

    def test_pooled_scalar_sweep_keeps_no_per_cell_grids(self, monkeypatch):
        pools = []

        class RecordingPool(ContextPool):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                pools.append(self)

        monkeypatch.setattr(sweep_mod, "ContextPool", RecordingPool)
        Sweep(
            dims=[2, 3],
            sides=[8],
            curves=["z", "hilbert", "snake"],
            metrics=("davg", "dmax", "lambdas", "nn_mean"),
            reports=False,
            chunk_cells=0,
        ).run()
        contexts = [
            ctx for pool in pools for ctx in pool._contexts.values()
        ]
        assert len(contexts) == 6
        for ctx in contexts:
            keys = list(ctx._store._items) + list(ctx._store._views)
            assert "key_grid" in keys
            assert not [k for k in keys if k.startswith("per_cell_")]


class TestBoundedStore:
    def test_eviction_under_budget(self, u2_8, fold_calls):
        ctx = MetricContext(ZCurve(u2_8), max_bytes=2048)
        ctx.davg()
        ctx.dmax()
        ctx.nn_distance_values()
        ctx.per_cell_avg_stretch()
        ctx.per_cell_max_stretch()
        ctx.lambda_sums()
        assert ctx.stats.evictions > 0
        assert ctx.cache_bytes <= 2048
        assert fold_calls == [ctx]

    def test_values_correct_despite_eviction(self, u2_8):
        curve = ZCurve(u2_8)
        tight = MetricContext(curve, max_bytes=1024)
        loose = MetricContext(curve)
        assert tight.davg() == loose.davg()
        assert tight.dmax() == loose.dmax()
        assert np.array_equal(tight.lambda_sums(), loose.lambda_sums())

    def test_order_is_budgeted(self, u2_8):
        """order() is an ordinary intermediate: frozen, charged to the
        LRU budget and evictable; the curve keeps no copy."""
        ctx = MetricContext(ZCurve(u2_8))
        ctx.key_grid()
        before_bytes = ctx.cache_bytes
        path = ctx.order()
        assert not path.flags.writeable
        assert np.array_equal(path, ctx.curve.order())
        assert ctx.cache_bytes == before_bytes + path.nbytes
        hits = ctx.stats.hits
        assert ctx.order() is path  # second lookup is a store hit
        assert ctx.stats.hits == hits + 1
        tight = MetricContext(ZCurve(u2_8), max_bytes=path.nbytes)
        tight.order()
        tight.key_grid()
        assert tight.stats.evictions == 1
        assert tight.cache_bytes == tight.key_grid().nbytes

    def test_store_peek_is_silent(self, u2_8):
        ctx = MetricContext(ZCurve(u2_8))
        assert ctx._store.peek("key_grid") is None
        grid = ctx.key_grid()
        stats = (ctx.stats.hits, ctx.stats.misses, ctx.stats.total_computes)
        assert ctx._store.peek("key_grid") is grid
        assert (
            ctx.stats.hits,
            ctx.stats.misses,
            ctx.stats.total_computes,
        ) == stats

    def test_cached_arrays_read_only(self, u2_8):
        ctx = MetricContext(ZCurve(u2_8))
        arr = ctx.axis_pair_curve_distances(0)
        with pytest.raises(ValueError):
            arr[0] = 0

    def test_clear_cache(self, u2_8, fold_calls):
        ctx = MetricContext(ZCurve(u2_8))
        ctx.davg()
        assert ctx.cache_bytes > 0
        ctx.clear_cache()
        assert ctx.cache_bytes == 0
        ctx.davg()
        assert fold_calls == [ctx, ctx]
        assert ctx.stats.compute_count("key_grid") == 2


class TestParity:
    @pytest.mark.parametrize("factory", [ZCurve, HilbertCurve, RandomCurve])
    def test_engine_matches_legacy(self, u2_8, factory, legacy_metrics):
        curve = factory(u2_8)
        ctx = MetricContext(curve)
        legacy = legacy_metrics(curve)
        assert ctx.davg() == legacy["davg"]
        assert ctx.dmax() == legacy["dmax"]
        assert list(ctx.lambda_sums()) == legacy["lambdas"]
        assert np.array_equal(
            ctx.nn_distance_values(), legacy["nn_values"]
        )
        assert np.array_equal(
            ctx.per_cell_avg_stretch(), legacy["per_cell_avg"]
        )
        assert np.array_equal(
            ctx.per_cell_max_stretch(), legacy["per_cell_max"]
        )

    def test_engine_matches_legacy_3d(self, u3_4, legacy_metrics):
        curve = ZCurve(u3_4)
        ctx = MetricContext(curve)
        legacy = legacy_metrics(curve)
        assert ctx.davg() == legacy["davg"]
        assert list(ctx.lambda_sums()) == legacy["lambdas"]

    def test_wrappers_delegate_to_shared_context(self, u2_8):
        curve = ZCurve(u2_8)
        ctx = get_context(curve)
        assert stretch_mod.average_average_nn_stretch(curve) == ctx.davg()
        assert stretch_mod.lambda_sums(curve) is ctx.lambda_sums()
        before = ctx.stats.hits
        stretch_mod.nn_distance_values(curve)
        stretch_mod.nn_distance_values(curve)
        assert ctx.stats.hits > before

    def test_gij_matches_wrapper(self, u2_8):
        curve = ZCurve(u2_8)
        via_wrapper = stretch_mod.gij_decomposition(curve, 0)
        via_ctx = MetricContext(curve).gij_decomposition(0)
        assert via_wrapper.keys() == via_ctx.keys()
        for j in via_ctx:
            assert via_wrapper[j][0] == via_ctx[j][0]
            assert np.array_equal(via_wrapper[j][1], via_ctx[j][1])


class TestContextIdentity:
    def test_get_context_is_per_curve(self, u2_8):
        a, b = ZCurve(u2_8), ZCurve(u2_8)
        assert get_context(a) is get_context(a)
        assert get_context(a) is not get_context(b)

    def test_context_does_not_keep_curve_alive(self, u2_8):
        import gc
        import weakref

        curve = ZCurve(u2_8)
        get_context(curve).davg()
        ref = weakref.ref(curve)
        del curve
        gc.collect()
        # The shared-context registry holds curves weakly: dropping the
        # curve frees it (and its cached intermediates with it).
        assert ref() is None


class TestValidation:
    def test_side_one_defined_values(self):
        # No NN pairs exist on a 1-cell-per-axis universe; every NN
        # metric returns a defined value (no ValueError, no NaN, no
        # RuntimeWarning) so degenerate sweep cells complete.
        ctx = MetricContext(ZCurve(Universe(d=2, side=1)))
        assert ctx.davg() == 0.0
        assert ctx.dmax() == 0.0
        assert ctx.nn_mean() == 0.0
        assert ctx.lower_bound() == 0.0
        assert ctx.davg_ratio() == 1.0
        assert list(ctx.lambda_sums()) == [0, 0]
        assert ctx.nn_distance_values().size == 0
        assert ctx.window_dilation(3) == 0
        assert ctx.allpairs_exact() == 0.0

    def test_bad_axis_raises(self, u2_8):
        ctx = MetricContext(ZCurve(u2_8))
        with pytest.raises(ValueError, match="axis"):
            ctx.axis_pair_curve_distances(5)


class TestOrderCaching:
    def test_order_values_unchanged(self, u2_8):
        curve = ZCurve(u2_8)
        path = curve.order()
        expect = curve.coords(np.arange(u2_8.n, dtype=np.int64))
        assert np.array_equal(path, expect)
