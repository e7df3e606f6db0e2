"""Chunked-mode tests: dense parity, block cache LRU, auto-selection.

The contract under test is strong: every registered metric computed by
a chunked context must be **bit-for-bit equal** to the dense path, for
any block size — including block sizes that do not divide the cell
count — while never materializing a dense ``O(n)`` array.
"""

import math
import warnings

import numpy as np
import pytest

from repro import Universe
from repro.curves.base import inverse_ranks
from repro.curves.random_curve import RandomCurve
from repro.curves.snake import SnakeCurve
from repro.curves.transforms import ReversedCurve
from repro.curves.zcurve import ZCurve
from repro.engine.chunked import pairwise_sum_stream, slab_neighbor_counts
from repro.engine.context import MetricContext
from repro.engine.pool import ContextPool
from repro.engine.sweep import METRICS, MetricSpec, Sweep
from repro.grid.neighbors import neighbor_count_grid

#: One spec per registered metric (every METRICS entry must appear, so
#: a newly registered metric without chunked parity fails loudly).
ALL_METRIC_SPECS = (
    "davg",
    "dmax",
    "lower_bound",
    "davg_ratio",
    "lambdas",
    "nn_mean",
    "allpairs_manhattan",
    "allpairs_euclidean",
    "dilation:window=3",
    "dilation:window=5,metric=euclidean",
    "partition:parts=8",
    "clusters:box=3,samples=20",
    "rangequery:box=3,samples=10",
)

#: Block sizes exercising: single cells, non-divisors of n=64, a
#: divisor, and a block larger than the whole universe.
BLOCK_SIZES = (1, 7, 16, 100)


def test_every_registered_metric_is_covered():
    covered = {MetricSpec.parse(s).name for s in ALL_METRIC_SPECS}
    assert covered == set(METRICS)


class TestMetricParity:
    @pytest.mark.parametrize("spec", ALL_METRIC_SPECS)
    @pytest.mark.parametrize("chunk", BLOCK_SIZES)
    def test_bit_for_bit_2d(self, u2_8, spec, chunk):
        fn = MetricSpec.parse(spec).bind()
        dense = fn(MetricContext(ZCurve(u2_8)))
        chunked = fn(MetricContext(ZCurve(u2_8), chunk_cells=chunk))
        assert chunked == dense

    @pytest.mark.parametrize("chunk", BLOCK_SIZES)
    def test_bit_for_bit_3d(self, u3_4, chunk):
        for spec in ("davg", "dmax", "lambdas", "nn_mean", "dilation:window=2"):
            fn = MetricSpec.parse(spec).bind()
            assert fn(MetricContext(ZCurve(u3_4), chunk_cells=chunk)) == fn(
                MetricContext(ZCurve(u3_4))
            )

    @pytest.mark.parametrize("chunk", (1, 5, 64))
    def test_bit_for_bit_1d(self, chunk):
        u = Universe(d=1, side=17)  # odd side: non-power-of-two path
        for spec in ("davg", "dmax", "lambdas", "nn_mean"):
            fn = MetricSpec.parse(spec).bind()
            assert fn(MetricContext(SnakeCurve(u), chunk_cells=chunk)) == fn(
                MetricContext(SnakeCurve(u))
            )

    @pytest.mark.parametrize("chunk", BLOCK_SIZES)
    def test_gij_decomposition_blockwise(self, u2_8, chunk):
        # The first formerly dense-only surface with a block path:
        # counts and group value arrays (order included) must match.
        dense = MetricContext(ZCurve(u2_8))
        ctx = MetricContext(ZCurve(u2_8), chunk_cells=chunk)
        for axis in range(u2_8.d):
            expected = dense.gij_decomposition(axis)
            got = ctx.gij_decomposition(axis)
            assert got.keys() == expected.keys()
            for j, (count, values) in expected.items():
                assert got[j][0] == count
                assert np.array_equal(got[j][1], values)

    def test_gij_decomposition_3d_and_axis_validation(self, u3_4):
        dense = MetricContext(ZCurve(u3_4))
        ctx = MetricContext(ZCurve(u3_4), chunk_cells=5)
        for axis in range(u3_4.d):
            expected = dense.gij_decomposition(axis)
            got = ctx.gij_decomposition(axis)
            for j in expected:
                assert np.array_equal(got[j][1], expected[j][1])
        with pytest.raises(ValueError, match="axis"):
            ctx.gij_decomposition(u3_4.d)

    def test_bit_for_bit_table_backed_curve(self, u2_8):
        # PermutationCurve-backed curves gain no memory but must agree.
        dense = MetricContext(RandomCurve(u2_8, seed=5))
        chunked = MetricContext(RandomCurve(u2_8, seed=5), chunk_cells=9)
        assert chunked.davg() == dense.davg()
        assert chunked.dmax() == dense.dmax()

    def test_larger_universe_awkward_blocks(self):
        # The pairwise-replicated D^avg mean is the one genuinely
        # order-sensitive reduction; hammer it on a bigger grid.
        u = Universe(d=2, side=64)
        dense = MetricContext(ZCurve(u))
        for chunk in (13, 100, 1000, 4097):
            ctx = MetricContext(ZCurve(u), chunk_cells=chunk)
            assert ctx.davg() == dense.davg()
            assert ctx.dmax() == dense.dmax()


class TestBlockIterators:
    @pytest.mark.parametrize("chunk", BLOCK_SIZES)
    def test_key_slabs_concatenate_to_key_grid(self, u2_8, chunk):
        dense = MetricContext(ZCurve(u2_8))
        ctx = MetricContext(ZCurve(u2_8), chunk_cells=chunk)
        slabs = [slab for _, _, slab in ctx.iter_key_slabs()]
        assert np.array_equal(
            np.concatenate(slabs, axis=0), dense.key_grid()
        )

    def test_dense_mode_yields_single_full_blocks(self, u2_8):
        ctx = MetricContext(ZCurve(u2_8))
        (lo, hi, slab), = list(ctx.iter_key_slabs())
        assert (lo, hi) == (0, u2_8.side) and slab.size == u2_8.n

    def test_window_pairs_match_order_slices(self, u2_8):
        dense = MetricContext(ZCurve(u2_8))
        path = dense.order()
        window = 5
        ctx = MetricContext(ZCurve(u2_8), chunk_cells=7)
        a = np.concatenate([blk for _, _, blk, _ in ctx.iter_window_pairs(window)])
        b = np.concatenate([blk for _, _, _, blk in ctx.iter_window_pairs(window)])
        assert np.array_equal(a, path[:-window])
        assert np.array_equal(b, path[window:])


class TestPerCellExports:
    """The per-cell grid surfaces gained chunked paths (PR 6): the
    exported arrays — not just the scalar metrics over them — must be
    bit-for-bit the dense arrays, for any block size."""

    @pytest.mark.parametrize("chunk", BLOCK_SIZES)
    def test_stretch_grids_match_dense_2d(self, u2_8, chunk):
        dense = MetricContext(ZCurve(u2_8))
        ctx = MetricContext(ZCurve(u2_8), chunk_cells=chunk)
        dense_sums, dense_counts = dense.per_cell_stretch_sums()
        sums, counts = ctx.per_cell_stretch_sums()
        assert np.array_equal(sums, dense_sums)
        assert np.array_equal(counts, dense_counts)
        assert np.array_equal(
            ctx.per_cell_max_stretch(), dense.per_cell_max_stretch()
        )
        assert np.array_equal(
            ctx.per_cell_avg_stretch(), dense.per_cell_avg_stretch()
        )

    @pytest.mark.parametrize("chunk", (1, 5, 64))
    def test_stretch_grids_match_dense_3d(self, u3_4, chunk):
        dense = MetricContext(ZCurve(u3_4))
        ctx = MetricContext(ZCurve(u3_4), chunk_cells=chunk)
        assert np.array_equal(
            ctx.per_cell_avg_stretch(), dense.per_cell_avg_stretch()
        )
        assert np.array_equal(
            ctx.per_cell_max_stretch(), dense.per_cell_max_stretch()
        )

    @pytest.mark.parametrize("chunk", BLOCK_SIZES)
    def test_nn_distance_values_match_dense(self, u2_8, chunk):
        dense = MetricContext(RandomCurve(u2_8, seed=11))
        ctx = MetricContext(RandomCurve(u2_8, seed=11), chunk_cells=chunk)
        assert np.array_equal(
            ctx.nn_distance_values(), dense.nn_distance_values()
        )

    def test_neighbor_counts_match_dense(self, u3_4):
        dense = MetricContext(ZCurve(u3_4)).neighbor_counts()
        for chunk in (1, 7, 100):
            ctx = MetricContext(ZCurve(u3_4), chunk_cells=chunk)
            assert np.array_equal(ctx.neighbor_counts(), dense)

    def test_awkward_blocks_larger_universe(self):
        u = Universe(d=2, side=24)  # 576 cells, chunk 37 is a non-divisor
        dense = MetricContext(SnakeCurve(u))
        ctx = MetricContext(SnakeCurve(u), chunk_cells=37)
        assert np.array_equal(
            ctx.per_cell_avg_stretch(), dense.per_cell_avg_stretch()
        )
        assert np.array_equal(
            ctx.nn_distance_values(), dense.nn_distance_values()
        )


class TestDenseOnlyGuards:
    def test_dense_arrays_raise_with_pointer_to_blocks(self, u2_8):
        ctx = MetricContext(ZCurve(u2_8), chunk_cells=8)
        for method, hint in (
            (ctx.key_grid, "iter_key_slabs"),
            (ctx.flat_keys, "iter_key_slabs"),
            (ctx.inverse_permutation, "coords_of"),
        ):
            with pytest.raises(ValueError, match=hint):
                method()
        with pytest.raises(ValueError, match="chunked"):
            ctx.axis_pair_curve_distances(0)
        with pytest.raises(ValueError, match="chunked"):
            ctx.window_shift_distances(3)

    def test_order_raises_in_chunked_mode(self, u2_8):
        ctx = MetricContext(ZCurve(u2_8), chunk_cells=8)
        with pytest.raises(ValueError, match="iter_window_pairs"):
            ctx.order()

    def test_invalid_chunk_cells(self, u2_8):
        with pytest.raises(ValueError, match="chunk_cells"):
            MetricContext(ZCurve(u2_8), chunk_cells=0)

    def test_negative_sweep_chunk_cells_raises(self, u2_8):
        # A typo'd negative block size must not silently run dense.
        with pytest.raises(ValueError, match="chunk_cells"):
            Sweep(
                universes=[u2_8],
                curves=["z"],
                metrics=("davg",),
                chunk_cells=-5,
            ).run()


class TestBlockCacheLRU:
    def test_second_pass_hits_cache(self, u2_8):
        ctx = MetricContext(ZCurve(u2_8), chunk_cells=8)
        list(ctx.iter_key_slabs())
        computes = dict(ctx.stats.computes)
        hits = ctx.stats.hits
        list(ctx.iter_key_slabs())
        assert dict(ctx.stats.computes) == computes  # nothing recomputed
        assert ctx.stats.hits > hits
        assert ctx.stats.evictions == 0

    def test_tiny_budget_evicts_but_stays_correct(self, u2_8):
        dense = MetricContext(ZCurve(u2_8))
        # budget holds 4 one-plane slabs (64 B of int64 keys each)
        ctx = MetricContext(ZCurve(u2_8), chunk_cells=8, max_bytes=256)
        assert ctx.davg() == dense.davg()
        list(ctx.iter_key_slabs())
        assert ctx.stats.evictions > 0
        assert ctx.cache_bytes <= 256
        # evicted slabs recompute on the next pass, values unchanged
        before = ctx.stats.total_computes
        assert np.array_equal(
            np.concatenate([s for _, _, s in ctx.iter_key_slabs()]),
            dense.key_grid(),
        )
        assert ctx.stats.total_computes > before

    def test_scalar_metrics_do_not_rerun_the_reduction(self, u2_8):
        ctx = MetricContext(ZCurve(u2_8), chunk_cells=8)
        ctx.davg()
        computes = ctx.stats.total_computes
        ctx.dmax()
        ctx.lambda_sums()
        ctx.nn_mean()
        # one shared pass produced all NN scalars; only the cheap
        # lambda-array store write adds no slab recomputation
        assert ctx.stats.total_computes <= computes + 1


class TestChunkedPool:
    def test_reversed_curve_derives_blocks(self, u2_8):
        pool = ContextPool(chunk_cells=16)
        inner = ZCurve(u2_8)
        ctx = pool.get(ReversedCurve(inner))
        reference = MetricContext(ReversedCurve(ZCurve(u2_8)))
        assert ctx.davg() == reference.davg()
        assert ctx.stats.total_derived > 0
        slab_computes = sum(
            count
            for key, count in ctx.stats.computes.items()
            if key.startswith("key_slab")
        )
        assert slab_computes == 0  # every slab came from the base cache
        slabs = [slab for _, _, slab in ctx.iter_key_slabs()]
        assert np.array_equal(
            inverse_ranks(np.concatenate(slabs)),
            reference.inverse_permutation(),
        )
        dense = ContextPool().get(ReversedCurve(inner))
        assert np.array_equal(
            dense.inverse_permutation(), reference.inverse_permutation()
        )

    def test_pool_threads_chunk_cells(self, u2_8):
        pool = ContextPool(chunk_cells=8)
        ctx = pool.get(ZCurve(u2_8))
        assert ctx.chunked and ctx.chunk_cells == 8


class TestSweepChunked:
    def test_auto_selects_chunked_beyond_budget(self):
        universe = Universe(d=2, side=512)  # dense grid = 2 MiB
        sweep = Sweep(
            universes=[universe],
            curves=["z"],
            metrics=("davg", "nn_mean", "dilation:window=8"),
            reports=False,
            max_bytes=1 << 20,  # 1 MiB budget: key grid alone overflows
        )
        assert sweep.resolve_chunk_cells(universe) is not None
        result = sweep.run()
        stats = result.cache_stats
        assert any(key.startswith("key_slab") for key in stats.computes)
        assert "key_grid" not in stats.computes  # never went dense
        dense = MetricContext(ZCurve(universe))
        record = result.records[0]
        assert record.values["davg"] == dense.davg()
        assert record.values["nn_mean"] == dense.nn_mean()
        assert record.values["dilation:window=8"] == dense.window_dilation(8)

    def test_small_universe_stays_dense_by_default(self, u2_8):
        sweep = Sweep(universes=[u2_8], curves=["z"], metrics=("davg",))
        assert sweep.resolve_chunk_cells(u2_8) is None

    def test_explicit_chunk_cells_forces_chunked(self, u2_8):
        result = Sweep(
            universes=[u2_8],
            curves=["z", "snake"],
            metrics=("davg", "partition:parts=4"),
            reports=False,
            chunk_cells=8,
        ).run()
        assert any(
            key.startswith("key_slab")
            for key in result.cache_stats.computes
        )
        dense = Sweep(
            universes=[u2_8],
            curves=["z", "snake"],
            metrics=("davg", "partition:parts=4"),
            reports=False,
            chunk_cells=0,  # force dense
        ).run()
        assert [r.values for r in result.records] == [
            r.values for r in dense.records
        ]

    def test_chunked_sweep_with_reports(self, u2_8):
        (record,) = Sweep(
            universes=[u2_8], curves=["z"], metrics=(), chunk_cells=8
        ).run().records
        (dense,) = Sweep(
            universes=[u2_8], curves=["z"], metrics=()
        ).run().records
        assert record.report == dense.report

    def test_degenerate_sweep_no_nan(self):
        for d in (1, 2, 3):
            result = Sweep(
                universes=[Universe(d=d, side=1)],
                curves=["z", "simple"],
                metrics=("davg", "dmax", "davg_ratio", "nn_mean", "lambdas"),
                reports=False,
            ).run()
            assert result.records
            for record in result.records:
                for value in record.values.values():
                    if isinstance(value, float):
                        assert not math.isnan(value)


class TestStreamingPrimitives:
    @pytest.mark.parametrize("n", [1, 7, 127, 128, 129, 1000, 65537])
    def test_pairwise_sum_stream_matches_numpy(self, n, rng):
        values = rng.standard_normal(n)
        direct = float(np.add.reduce(values))
        for block in (1, 3, 64, 1000):
            parts = [
                values[i : i + block] for i in range(0, n, block)
            ]
            assert pairwise_sum_stream(iter(parts), n) == direct

    def test_pairwise_sum_stream_small_leaf(self, rng):
        values = rng.standard_normal(5000)
        parts = [values[i : i + 17] for i in range(0, 5000, 17)]
        assert pairwise_sum_stream(iter(parts), 5000, leaf=128) == float(
            np.add.reduce(values)
        )

    @pytest.mark.parametrize(
        "n", [1, 8, 129, 2**15, 2**15 + 1, 2**20 + 13]
    )
    def test_pairwise_sum_stream_any_split(self, n, rng):
        values = rng.standard_normal(n)
        direct = float(np.add.reduce(values))
        for pieces in range(1, 18):
            cuts = np.sort(rng.integers(0, n + 1, size=pieces - 1))
            parts = np.split(values, cuts)
            assert pairwise_sum_stream(iter(parts), n) == direct

    def test_single_block_stream_never_concatenates(self, monkeypatch, rng):
        values = rng.standard_normal(2**20 + 13)
        direct = float(np.add.reduce(values))
        calls = []
        original = np.concatenate

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(np, "concatenate", counting)
        assert pairwise_sum_stream(iter([values]), values.size) == direct
        assert calls == []

    @pytest.mark.parametrize("d,side", [(1, 9), (2, 8), (3, 5)])
    def test_slab_neighbor_counts_match_dense(self, d, side):
        universe = Universe(d=d, side=side)
        dense = neighbor_count_grid(universe)
        for lo, hi in [(0, 1), (0, side), (1, side - 1), (side - 1, side)]:
            if lo >= hi:
                continue
            assert np.array_equal(
                slab_neighbor_counts(universe, lo, hi), dense[lo:hi]
            )


class TestFoldEnvelope:
    """The fold's int64 partials are bounded before any range runs."""

    @pytest.mark.parametrize("backend", ["numpy", "native"])
    @pytest.mark.parametrize(
        "side, chunk_cells, bound",
        [
            # n = 2^62: a single cell's sum 2d·(n−1) passes 2^63
            (2**31, 1 << 20, "2d·"),
            # n = 2^42, 2^22-cell ranges: cells·2d·(n−1) passes 2^63
            (2**21, 1 << 22, "cells·"),
        ],
    )
    def test_huge_universe_refused_before_any_read(
        self, side, chunk_cells, bound, backend, monkeypatch
    ):
        import tracemalloc

        from repro.engine import threads

        def unreachable(*args):
            raise AssertionError("the fold read keys past the envelope")

        ctx = MetricContext(
            ZCurve(Universe(d=2, side=side)),
            chunk_cells=chunk_cells,
            backend=backend,
        )
        monkeypatch.setattr(ctx, "_key_slab", unreachable)
        monkeypatch.setattr(threads, "prepare_key_reads", unreachable)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"overflows int64.*{bound}"):
                ctx.davg()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_whole_grid_ranges_pass_up_to_2_30_cells(self):
        from repro.engine.chunked import check_fold_envelope

        for d, side in ((2, 2048), (3, 64), (2, 2**15), (3, 2**10)):
            universe = Universe(d=d, side=side)
            check_fold_envelope(universe, None, 1)

    def test_one_range_class_total_bound(self):
        """2D side 38968 as one range: its Λ and Σ max partials
        (≤ n·(n−1)) fit int64, its class totals (≤ n·4·(n−1)) do not."""
        from repro.engine.chunked import check_fold_envelope

        fits = Universe(d=2, side=38967)
        refused = Universe(d=2, side=38968)
        assert refused.n * (refused.n - 1) < 1 << 63
        check_fold_envelope(fits, None, 1)
        with pytest.raises(ValueError, match="class total"):
            check_fold_envelope(refused, None, 1)

    def test_sweep_skips_the_universe_when_it_plans(self, monkeypatch):
        """An NN metric on 2D side 2^31 is a plan-time skip: no curve is
        built, no key read, nothing large allocated."""
        import tracemalloc

        from repro.curves.base import SpaceFillingCurve
        from repro.engine.sweep import CurveSpec

        def unreachable(*args, **kwargs):
            raise AssertionError("the sweep ran a cell past the envelope")

        monkeypatch.setattr(CurveSpec, "make", unreachable)
        monkeypatch.setattr(SpaceFillingCurve, "key_slab", unreachable)
        monkeypatch.setattr(MetricContext, "_key_slab", unreachable)
        huge = Universe(d=2, side=2**31)
        tracemalloc.start()
        try:
            result = Sweep(
                universes=[huge], curves=["z", "hilbert"],
                metrics=("lower_bound", "davg"), reports=False,
            ).run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert result.records == []
        assert [s.spec for s in result.skipped] == ["z", "hilbert"]
        for skip in result.skipped:
            assert "overflows int64" in skip.reason
            assert "class total" in skip.reason

    def test_plan_checks_the_ranges_the_cell_will_fold(self):
        """Only NN metrics (and reports) are checked, on the ranges the
        cell's knobs give: 2D side 40000 dense is one refused range
        serially and fits when 8 threads cut it into 32."""

        def plan(**kwargs):
            knobs = dict(universes=[Universe(d=2, side=40000)],
                         curves=["snake"], reports=False, chunk_cells=0)
            knobs.update(kwargs)
            tasks, skipped = Sweep(**knobs)._plan()
            assert all("class total" in s.reason for s in skipped)
            return len(tasks), len(skipped)

        assert plan(metrics=("davg",)) == (0, 1)
        assert plan(metrics=(), reports=True) == (0, 1)
        assert plan(metrics=("lower_bound",)) == (1, 0)
        assert plan(metrics=("davg",), threads=8) == (1, 0)
