"""Tests for ContextPool sharing, transform derivation, and pooled sweeps."""

import numpy as np
import pytest

from repro import Universe
from repro.curves.hilbert import HilbertCurve
from repro.curves.snake import SnakeCurve
from repro.curves.transforms import (
    AxisPermutedCurve,
    ReflectedCurve,
    ReversedCurve,
)
from repro.curves.zcurve import ZCurve
from repro.engine import native
from repro.engine.context import CacheStats, MetricContext, get_context
from repro.engine.pool import ContextPool
from repro.engine.sweep import Sweep
from repro.grid.neighbors import neighbor_count_grid

requires_native = pytest.mark.skipif(
    not native.available(),
    reason=f"native backend unavailable: {native.unavailable_reason()}",
)


class TestPoolIdentity:
    def test_same_curve_same_context(self, u2_8):
        pool = ContextPool()
        curve = ZCurve(u2_8)
        assert pool.get(curve) is pool.get(curve)
        assert len(pool) == 1

    def test_equivalent_curves_share_one_context(self, u2_8):
        # The pool is keyed by (universe, canonical curve spec): two
        # separately instantiated but equivalent curves share a context.
        pool = ContextPool()
        first = pool.get(ZCurve(u2_8))
        assert pool.get(ZCurve(u2_8)) is first
        assert len(pool) == 1

    def test_inequivalent_curves_distinct_contexts(self, u2_8, u3_4):
        from repro.curves.random_curve import RandomCurve
        from repro.curves.snake import SnakeCurve

        pool = ContextPool()
        assert pool.get(ZCurve(u2_8)) is not pool.get(SnakeCurve(u2_8))
        assert pool.get(ZCurve(u2_8)) is not pool.get(ZCurve(u3_4))
        assert pool.get(RandomCurve(u2_8, seed=1)) is not pool.get(
            RandomCurve(u2_8, seed=2)
        )

    def test_equivalent_specs_reuse_cached_work(self, u2_8):
        pool = ContextPool()
        pool.get(ZCurve(u2_8)).davg()
        before = pool.stats.total_computes
        assert pool.get(ZCurve(u2_8)).davg() == pool.get(ZCurve(u2_8)).davg()
        assert pool.stats.total_computes == before

    def test_random_curves_share_by_seed(self, u2_8):
        from repro.curves.random_curve import RandomCurve

        pool = ContextPool()
        assert pool.get(RandomCurve(u2_8, seed=3)) is pool.get(
            RandomCurve(u2_8, seed=3)
        )

    def test_explicit_permutations_stay_instance_keyed(self, u2_8):
        # Raw key-grid curves are not provably equal without an O(n)
        # comparison, so they deliberately do not alias.
        import numpy as np

        from repro.curves.base import PermutationCurve

        grid = ZCurve(u2_8).key_grid().copy()
        pool = ContextPool()
        a = PermutationCurve(u2_8, key_grid=grid)
        b = PermutationCurve(u2_8, key_grid=np.array(grid))
        assert pool.get(a) is not pool.get(b)

    def test_context_passthrough(self, u2_8):
        pool = ContextPool()
        ctx = pool.get(ZCurve(u2_8))
        assert pool.get(ctx) is ctx
        foreign = MetricContext(ZCurve(u2_8))
        assert pool.get(foreign) is foreign

    def test_get_context_coerces_contexts(self, u2_8):
        ctx = MetricContext(ZCurve(u2_8))
        assert get_context(ctx) is ctx

    def test_clear(self, u2_8):
        pool = ContextPool()
        pool.get(ZCurve(u2_8)).davg()
        assert pool.cache_bytes > 0
        pool.clear()
        assert len(pool) == 0
        assert pool.cache_bytes == 0


class TestUniverseSharing:
    """Nothing curve-independent is shared per universe: the NN fold
    computes each range's neighbor counts into scratch, and an explicit
    ``neighbor_counts()`` builds the grid once per context."""

    def test_pooled_davg_computes_no_neighbor_counts(self, u2_8):
        pool = ContextPool()
        for curve in (ZCurve(u2_8), HilbertCurve(u2_8), SnakeCurve(u2_8)):
            ctx = pool.get(curve)
            ctx.davg()
            assert ctx._store.peek("neighbor_counts") is None
        assert pool.stats.compute_count("neighbor_counts") == 0

    def test_isolated_contexts_compute_per_curve(self, u2_8):
        stats = []
        for curve in (ZCurve(u2_8), HilbertCurve(u2_8), SnakeCurve(u2_8)):
            ctx = MetricContext(curve)
            ctx.neighbor_counts()
            ctx.neighbor_counts()
            stats.append(ctx.stats)
        total = CacheStats.aggregate(stats)
        assert total.compute_count("neighbor_counts") == 3

    def test_shared_values_match_isolated(self, u2_8):
        curve = ZCurve(u2_8)
        pooled = ContextPool().get(curve)
        isolated = MetricContext(ZCurve(u2_8))
        assert pooled.davg() == isolated.davg()
        assert pooled.dmax() == isolated.dmax()

    def test_distinct_universes_distinct_stores(self, u2_8, u3_4):
        pool = ContextPool()
        for curve in (ZCurve(u2_8), HilbertCurve(u2_8), ZCurve(u3_4)):
            pool.get(curve).neighbor_counts()
            pool.get(curve).neighbor_counts()
        # once per context: same-universe contexts share nothing
        assert pool.stats.compute_count("neighbor_counts") == 3


#: ``(d, side)`` for the neighbor-count parity matrix: sides 1, 2, an
#: odd side and 64 for d = 1..4, except 4-D side 64 (16.7M cells).
_COUNT_UNIVERSES = [
    (d, side)
    for d in (1, 2, 3, 4)
    for side in (1, 2, 5, 64)
    if (d, side) != (4, 64)
]

#: Context modes of the parity matrix: dense, chunked and threaded.
_COUNT_MODES = [
    {},
    {"chunk_cells": 1},
    {"chunk_cells": 7},
    {"threads": 2},
    {"threads": 4},
]


class TestNeighborCountParity:
    """``neighbor_counts()`` is the reference grid in every mode."""

    @pytest.mark.parametrize(
        "backend", ["numpy", pytest.param("native", marks=requires_native)]
    )
    @pytest.mark.parametrize("d, side", _COUNT_UNIVERSES)
    def test_equals_neighbor_count_grid(self, d, side, backend):
        universe = Universe(d=d, side=side)
        expected = neighbor_count_grid(universe)
        for mode in _COUNT_MODES:
            ctx = MetricContext(SnakeCurve(universe), backend=backend, **mode)
            counts = ctx.neighbor_counts()
            assert counts.dtype == expected.dtype, mode
            assert np.array_equal(counts, expected), mode
            assert not counts.flags.writeable
            assert ctx.neighbor_counts() is counts
            assert ctx.stats.compute_count("neighbor_counts") == 1


def _transform_zoo(u2_8):
    return [
        ReversedCurve(ZCurve(u2_8)),
        ReflectedCurve(ZCurve(u2_8), axes=[0]),
        ReflectedCurve(ZCurve(u2_8), axes=[0, 1]),
        ReflectedCurve(ZCurve(u2_8), axes=[]),
        AxisPermutedCurve(ZCurve(u2_8), perm=[1, 0]),
        ReversedCurve(AxisPermutedCurve(HilbertCurve(u2_8), perm=[1, 0])),
    ]


class TestTransformDerivation:
    def test_bit_for_bit_identical_metrics(self, u2_8):
        """Derived contexts reproduce isolated computation exactly."""
        pool = ContextPool()
        for curve in _transform_zoo(u2_8):
            derived = pool.get(curve)
            isolated = MetricContext(curve.__class__(**_clone_args(curve)))
            assert np.array_equal(derived.key_grid(), isolated.key_grid())
            for axis in range(u2_8.d):
                assert np.array_equal(
                    derived.axis_pair_curve_distances(axis),
                    isolated.axis_pair_curve_distances(axis),
                )
            assert derived.davg() == isolated.davg()
            assert derived.dmax() == isolated.dmax()
            assert np.array_equal(
                derived.lambda_sums(), isolated.lambda_sums()
            )
            assert np.array_equal(
                derived.nn_distance_values(), isolated.nn_distance_values()
            )
            assert np.array_equal(
                derived.per_cell_avg_stretch(),
                isolated.per_cell_avg_stretch(),
            )

    def test_strictly_fewer_computes_than_isolated(self, u2_8):
        """Pooling inner + derived curves does strictly less from-scratch
        work than isolating them, for the same metric values."""
        inner = ZCurve(u2_8)
        derived_curves = [
            ReversedCurve(inner),
            ReflectedCurve(inner, axes=[0]),
            AxisPermutedCurve(inner, perm=[1, 0]),
        ]

        pool = ContextPool()
        pooled_values = [pool.get(inner).davg()] + [
            pool.get(c).davg() for c in derived_curves
        ]

        isolated_stats = []
        isolated_values = []
        for curve in [ZCurve(u2_8)] + [
            ReversedCurve(ZCurve(u2_8)),
            ReflectedCurve(ZCurve(u2_8), axes=[0]),
            AxisPermutedCurve(ZCurve(u2_8), perm=[1, 0]),
        ]:
            ctx = MetricContext(curve)
            isolated_values.append(ctx.davg())
            # include the curve's own key-grid build in the comparison
            isolated_stats.append(ctx.stats)
        assert pooled_values == isolated_values
        pooled_total = pool.stats.total_computes
        isolated_total = CacheStats.aggregate(isolated_stats).total_computes
        assert pooled_total < isolated_total
        # ...and the gap is exactly the work that became derivations
        # plus the universe-store sharing.
        assert pool.stats.total_derived > 0

    def test_reversed_key_grid_is_derived(self, u2_8):
        pool = ContextPool()
        inner = ZCurve(u2_8)
        derived = pool.get(ReversedCurve(inner))
        base = pool.get(inner)
        assert np.array_equal(
            derived.key_grid(), u2_8.n - 1 - base.key_grid()
        )
        assert derived.stats.derived_count("key_grid") == 1
        assert derived.stats.compute_count("key_grid") == 0

    def test_derivations_not_counted_as_computes(self, u2_8):
        pool = ContextPool()
        rev = ReversedCurve(ZCurve(u2_8))
        ctx = pool.get(rev)
        ctx.davg()
        assert ctx.stats.compute_count("key_grid") == 0
        assert ctx.stats.derived_count("key_grid") == 1

    def test_permuted_3d(self, u3_4):
        """Non-trivial 3-D permutation derives bit-for-bit too."""
        pool = ContextPool()
        perm = [2, 0, 1]
        derived = pool.get(AxisPermutedCurve(ZCurve(u3_4), perm=perm))
        isolated = MetricContext(AxisPermutedCurve(ZCurve(u3_4), perm=perm))
        assert np.array_equal(derived.key_grid(), isolated.key_grid())
        for axis in range(u3_4.d):
            assert np.array_equal(
                derived.axis_pair_curve_distances(axis),
                isolated.axis_pair_curve_distances(axis),
            )
        assert derived.davg() == isolated.davg()


def _clone_args(curve):
    """Constructor kwargs rebuilding ``curve`` with a fresh inner curve."""
    inner = curve.inner
    if isinstance(inner, (ReversedCurve, ReflectedCurve, AxisPermutedCurve)):
        fresh_inner = inner.__class__(**_clone_args(inner))
    else:
        fresh_inner = inner.__class__(inner.universe)
    if isinstance(curve, ReversedCurve):
        return {"inner": fresh_inner}
    if isinstance(curve, ReflectedCurve):
        return {"inner": fresh_inner, "axes": list(curve.axes)}
    return {"inner": fresh_inner, "perm": list(curve.perm)}


class TestEvictionWithNewIntermediates:
    def test_tiny_budget_still_correct(self, u2_8):
        curve = ZCurve(u2_8)
        tight = MetricContext(curve, max_bytes=512)
        loose = MetricContext(curve)
        assert np.array_equal(tight.flat_keys(), loose.flat_keys())
        assert np.array_equal(tight.order(), loose.order())
        for window in (1, 5):
            assert np.array_equal(
                tight.window_shift_distances(window),
                loose.window_shift_distances(window),
            )
        assert tight.davg() == loose.davg()
        assert tight.stats.evictions > 0
        assert tight.cache_bytes <= 512

    def test_tiny_budget_derived_context(self, u2_8):
        """Eviction + rederivation of transform-derived intermediates."""
        pool = ContextPool(max_bytes=512)
        rev = ReversedCurve(ZCurve(u2_8))
        ctx = pool.get(rev)
        reference = MetricContext(ReversedCurve(ZCurve(u2_8)))
        assert ctx.davg() == reference.davg()
        ctx.window_shift_distances(3)
        ctx.flat_keys()
        assert np.array_equal(
            ctx.axis_pair_curve_distances(0),
            reference.axis_pair_curve_distances(0),
        )
        assert pool.stats.evictions > 0


class TestCacheStats:
    def test_hit_rate_empty(self):
        assert CacheStats().hit_rate == 0.0

    def test_hit_rate_counts(self, u2_8):
        ctx = MetricContext(ZCurve(u2_8))
        ctx.davg()
        ctx.davg()
        stats = ctx.stats
        assert 0.0 <= stats.hit_rate <= 1.0
        assert stats.hit_rate == stats.hits / (stats.hits + stats.misses)

    def test_repr_readable(self, u2_8):
        ctx = MetricContext(ZCurve(u2_8))
        ctx.davg()
        text = repr(ctx.stats)
        assert "hits=" in text
        assert "hit_rate=" in text
        assert "%" in text
        assert "computes=" in text

    def test_aggregate_sums(self):
        a = CacheStats(hits=1, misses=2, computes={"x": 1})
        b = CacheStats(hits=3, misses=4, computes={"x": 2, "y": 1})
        total = CacheStats.aggregate([a, b])
        assert total.hits == 4
        assert total.misses == 6
        assert total.computes == {"x": 3, "y": 1}
        assert total.total_computes == 4


class TestPooledSweep:
    def test_pooled_sweep_fewer_computes(self, u2_8):
        """Acceptance: pooling performs fewer intermediate computations
        than the same multi-metric sweep with pooling disabled."""
        kwargs = dict(
            universes=[u2_8],
            curves=["z", "hilbert", "snake", "reversed:inner=hilbert"],
            metrics=("davg", "dmax", "nn_mean"),
            reports=False,
        )
        pooled = Sweep(**kwargs, pooled=True).run()
        unpooled = Sweep(**kwargs, pooled=False).run()
        assert pooled.records == unpooled.records
        assert pooled.cache_stats is not None
        assert unpooled.cache_stats is not None
        assert (
            pooled.cache_stats.total_computes
            < unpooled.cache_stats.total_computes
        )

    def test_metric_spec_sweep_end_to_end(self, u2_8):
        """Acceptance: davg + dilation + partition in one pooled sweep."""
        result = Sweep(
            universes=[u2_8],
            curves=["z", "hilbert"],
            metrics=("davg", "dilation:window=16", "partition:parts=8"),
            reports=False,
        ).run()
        assert len(result.records) == 2
        for record in result.records:
            assert record.values["davg"] > 0
            assert record.values["dilation:window=16"] >= 1
            assert 0 < record.values["partition:parts=8"] < 1
        assert result.cache_stats.hits > 0

    def test_unknown_metric_param_raises(self, u2_8):
        with pytest.raises(ValueError, match="unknown parameter"):
            Sweep(
                universes=[u2_8],
                curves=["z"],
                metrics=("dilation:bogus=1",),
            ).run()

    def test_plain_metric_rejects_params(self, u2_8):
        with pytest.raises(ValueError, match="no parameters"):
            Sweep(
                universes=[u2_8],
                curves=["z"],
                metrics=("davg:window=2",),
            ).run()

    def test_process_sweep_aggregates_worker_stats(self, u2_8):
        # Worker cache stats are piped back through the executor and
        # aggregated; with shared=False every worker's cell still runs
        # on a pool of its own, so no warning is raised.
        import warnings as warnings_mod

        with warnings_mod.catch_warnings(record=True) as caught:
            warnings_mod.simplefilter("always")
            result = Sweep(
                universes=[u2_8],
                curves=["z", "simple"],
                metrics=("davg",),
                reports=False,
                processes=2,
                shared=False,
            ).run()
        assert not caught
        assert result.cache_stats.total_computes > 0
        # each worker context builds its own key grid (no sharing)
        assert result.cache_stats.compute_count("key_grid") == 2
        assert result.cache_stats.total_shared == 0
        assert len(result.records) == 2

    def test_process_sweep_shared_store_no_warning(self, u2_8):
        # The default shared="auto" publishes a grid store, so pooling
        # is effective and the bypass warning must stay silent.  NumPy
        # backend: native codecs would exempt z and simple from sharing.
        import warnings as warnings_mod

        with warnings_mod.catch_warnings(record=True) as caught:
            warnings_mod.simplefilter("always")
            result = Sweep(
                universes=[u2_8],
                curves=["z", "simple"],
                metrics=("davg",),
                reports=False,
                processes=2,
                backend="numpy",
            ).run()
        assert not caught
        # grids computed once each by the publishing parent, attached
        # (not recomputed) by the workers
        assert result.cache_stats.compute_count("key_grid") == 2
        assert result.cache_stats.shared_count("key_grid") == 2
        assert len(result.records) == 2

    def test_process_sweep_pooled_false_no_warning(self, u2_8):
        import warnings as warnings_mod

        with warnings_mod.catch_warnings(record=True) as caught:
            warnings_mod.simplefilter("always")
            result = Sweep(
                universes=[u2_8],
                curves=["z"],
                metrics=("davg",),
                reports=False,
                processes=2,
                pooled=False,
            ).run()
        assert not caught
        assert result.cache_stats is not None


class TestMetricParamValueValidation:
    def test_wrong_value_type_fails_at_plan_time(self, u2_8):
        with pytest.raises(ValueError, match="expects int"):
            Sweep(
                universes=[u2_8],
                curves=["z"],
                metrics=("dilation:window=1.5",),
            ).run()

    def test_wrong_string_value_fails_at_plan_time(self, u2_8):
        with pytest.raises(ValueError, match="expects int"):
            Sweep(
                universes=[u2_8],
                curves=["z"],
                metrics=("partition:parts=many",),
            ).run()

    def test_int_accepted_for_float_param(self, u2_8):
        result = Sweep(
            universes=[u2_8],
            curves=["z"],
            metrics=("rangequery:box=2,samples=5,seek=5",),
            reports=False,
        ).run()
        assert result.records[0].values["rangequery:box=2,samples=5,seek=5"] > 0


class TestPerUniversePooling:
    def test_multi_universe_sweep_stats_cover_all_universes(self, u2_8, u3_4):
        result = Sweep(
            universes=[u2_8, u3_4],
            curves=["z", "hilbert"],
            metrics=("davg",),
            reports=False,
        ).run()
        assert sorted((r.d, r.side, r.spec) for r in result.records) == [
            (2, 8, "hilbert"),
            (2, 8, "z"),
            (3, 4, "hilbert"),
            (3, 4, "z"),
        ]
        # one key-grid build per (universe, curve) cell
        assert result.cache_stats.compute_count("key_grid") == 4
