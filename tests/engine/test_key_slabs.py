"""One key accessor: every key read is ``MetricContext._key_slab``.

A dense context is the context whose slab partition is one slab,
``(0, side)``, cached as ``key_grid``.  These tests pin what that
collapse must keep and what it changes:

* a transform builds its slabs from its inner curve's slabs, pooled or
  not, and the slab equals a fresh curve's key grid in every mode, on
  every backend and on non-power-of-two universes, with metrics equal
  to an unpooled dense NumPy context;
* pooled reversed and reflected contexts derive every chunked slab;
  axis-permuted ones derive only on a one-slab partition; a bare
  context derives nothing, and never encodes a transform point by
  point;
* a chunked context maps only a grid a dense run *committed* to the
  store: it writes nothing itself, and maps every slab once the grid
  is there;
* a one-slab chunked context caches the whole grid as ``key_grid``
  and its threaded fold reads sub-ranges of it without adding keys;
* the order blocks (``MetricContext._order_block``) behind the window
  fold and the range-query index, and the key slabs behind box
  sampling, give the dense values in every flavor, and a threaded
  chunked context builds none of its cached blocks in a worker thread.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.analysis.clustering import expected_clusters
from repro.apps.partition import partition_quality
from repro.apps.rangequery import SFCIndex
from repro.curves.base import SpaceFillingCurve
from repro.curves.hilbert import HilbertCurve
from repro.curves.registry import make_curve
from repro.curves.transforms import (
    AxisPermutedCurve,
    ReflectedCurve,
    ReversedCurve,
)
from repro.engine import chunked, native
from repro.engine.context import MetricContext
from repro.engine.pool import ContextPool
from repro.engine.store import GridStore
from repro.engine.sweep import CurveSpec, Sweep
from repro.grid.universe import Universe

requires_native = pytest.mark.skipif(
    not native.available(),
    reason=f"native backend unavailable: {native.unavailable_reason()}",
)

SPECS = (
    "reversed:inner=hilbert",
    "reversed:inner=random:seed=3",
    "reflected:axes=0",
    "reflected:axes=1",
    "reflected:inner=random:seed=3,axes=0",
    "axisperm-direct",
)
UNIVERSES = ((2, 8), (2, 9), (3, 5))
#: Context settings per flavor.  ``planes3`` cuts slabs of three
#: planes with an uneven tail, so a reflected slab's mirrored range
#: straddles two base slabs; ``uncached`` leaves no slab resident, so
#: every sub-range and boundary plane is evaluated uncached.
CONTEXTS = {
    "dense": {},
    "chunk1": {"chunk_cells": 1},
    "chunk7": {"chunk_cells": 7},
    "planes3": {"planes": 3},
    "threads2": {"threads": 2},
    "chunk7-threads2": {"chunk_cells": 7, "threads": 2},
    "uncached-threads2": {"threads": 2, "max_bytes": 0},
}
#: Every flavor runs from a pool and, as ``bare-<flavor>``, on a bare
#: context, where a transform reads its inner curve's own slabs.
FLAVORS = sorted(CONTEXTS) + [f"bare-{flavor}" for flavor in sorted(CONTEXTS)]
BACKENDS = ("numpy", pytest.param("native", marks=requires_native))


def _make(spec: str, universe: Universe):
    """The spec's curve on ``universe``, or ``None`` when inapplicable."""
    try:
        if spec == "axisperm-direct":
            perm = list(range(universe.d))[::-1]
            inner = make_curve("random", universe, seed=3)
            return AxisPermutedCurve(inner, perm=perm)
        return CurveSpec.parse(spec).make(universe)
    except ValueError:  # e.g. hilbert/z on a non-power-of-two side
        return None


CASES = [
    (spec, d, side)
    for spec in SPECS
    for d, side in UNIVERSES
    if _make(spec, Universe(d=d, side=side)) is not None
]


def _context(flavor: str, curve, backend: str) -> MetricContext:
    """``curve``'s context in ``flavor``: pooled, or bare for ``bare-``."""
    universe = curve.universe
    pooled = not flavor.startswith("bare-")
    settings = dict(CONTEXTS[flavor.removeprefix("bare-")], backend=backend)
    planes = settings.pop("planes", None)
    if planes is not None:
        settings["chunk_cells"] = planes * universe.side ** (universe.d - 1)
    if pooled:
        return ContextPool(**settings).get(curve)
    return MetricContext(curve, **settings)


def test_cases_cover_every_spec_and_universe():
    assert {spec for spec, _, _ in CASES} == set(SPECS)
    assert {(d, side) for _, d, side in CASES} == set(UNIVERSES)


def _assert_pair_walk_matches_diff(ctx, grid) -> None:
    """The NN-pair walk's three consumers against ``np.diff`` oracles.

    Each reference is built from the dense key grid one axis at a time,
    independent of the slab walk: the NN distance values, the Lemma 5
    groups (power-of-two sides) and the equal-count edge cut.
    """
    d, side, n = grid.ndim, grid.shape[0], grid.size
    dists = [np.abs(np.diff(grid, axis=axis)) for axis in range(d)]
    values = np.concatenate([dist.reshape(-1) for dist in dists])
    assert np.array_equal(ctx.nn_distance_values(), values)
    if side & (side - 1) == 0:
        # group of the pair (i, i + 1): 1 + the trailing ones of i
        group = np.array([(i ^ (i + 1)).bit_length() for i in range(side - 1)])
        for axis, dist in enumerate(dists):
            got = ctx.gij_decomposition(axis)
            assert sorted(got) == list(range(1, side.bit_length()))
            for j, (count, picked) in got.items():
                want = np.compress(group == j, dist, axis=axis).reshape(-1)
                assert count == want.size
                assert np.array_equal(picked, want)
    labels = (grid * 5) // n
    cut = sum(
        int(np.count_nonzero(np.diff(labels, axis=axis))) for axis in range(d)
    )
    edge_cut = partition_quality(ctx, 5).edge_cut
    assert type(edge_cut) is int and edge_cut == cut


def _assert_order_readers_match_dense(ctx, grid, dense) -> None:
    """The order-block and box readers against the dense oracles.

    The window pairs against slices of the order scattered from the
    reference key grid; the window dilation, cluster count and range
    queries against a dense NumPy context.  Windows 1, 3 and 10 span
    in-block steps, steps crossing a block boundary and steps longer
    than a block.
    """
    d, n = grid.ndim, grid.size
    order = np.empty((n, d), dtype=np.int64)
    order[grid.reshape(-1)] = np.indices(grid.shape).reshape(d, -1).T
    for window in (1, 3, 10):
        _, _, a, b = zip(*ctx.iter_window_pairs(window))
        assert np.array_equal(np.concatenate(a), order[:-window])
        assert np.array_equal(np.concatenate(b), order[window:])
        for metric in ("manhattan", "euclidean"):
            got = ctx.window_dilation(window, metric)
            assert got == dense.window_dilation(window, metric)
            assert type(got) is type(dense.window_dilation(window, metric))
    for shape in ((1,) * d, (2,) * d, (3,) + (2,) * (d - 1)):
        assert expected_clusters(ctx, shape, 20, seed=1) == expected_clusters(
            dense, shape, 20, seed=1
        )
        assert SFCIndex(ctx).average_query_cost(
            shape, 20, seed=2
        ) == SFCIndex(dense).average_query_cost(shape, 20, seed=2)
    side = grid.shape[0]
    boxes = [((0,) * d, (side,) * d), ((1,) * d, (side - 2,) + (3,) * (d - 1))]
    for lo, hi in boxes:
        got = SFCIndex(ctx).query_cells(lo, hi)
        assert np.array_equal(got, SFCIndex(dense).query_cells(lo, hi))


class TestDerivedSlabParity:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("flavor", FLAVORS)
    @pytest.mark.parametrize("spec,d,side", CASES)
    def test_slabs_and_metrics_equal_dense(
        self, spec, d, side, flavor, backend
    ):
        universe = Universe(d=d, side=side)
        ctx = _context(flavor, _make(spec, universe), backend)
        reference = _make(spec, universe).key_grid()
        slabs = [slab for _, _, slab in ctx.iter_key_slabs()]
        assert np.array_equal(np.concatenate(slabs), reference)
        dense = MetricContext(_make(spec, universe), backend="numpy")
        assert ctx.davg() == dense.davg()
        assert ctx.dmax() == dense.dmax()
        assert np.array_equal(ctx.lambda_sums(), dense.lambda_sums())
        _assert_pair_walk_matches_diff(ctx, reference)
        _assert_order_readers_match_dense(ctx, reference, dense)
        # pooled slabs really were derived (axis permutation: one slab
        # only); a bare context has no base to derive from
        one_slab = len(ctx._slab_ranges()) == 1
        pooled = not flavor.startswith("bare-")
        derives = pooled and (not spec.startswith("axisperm") or one_slab)
        assert (ctx.stats.total_derived > 0) == derives

    @requires_native
    def test_bare_transform_never_encodes_points(self, monkeypatch, u2_8):
        def refuse(self, points, backend="auto"):
            raise AssertionError("per-point encode")

        for cls in (SpaceFillingCurve, ReversedCurve):
            monkeypatch.setattr(cls, "keys_of", refuse)
        curve = ReversedCurve(HilbertCurve(u2_8))
        grid = MetricContext(curve, backend="native").key_grid()
        assert np.array_equal(grid, curve.key_grid())


def _slab_counts(counter: dict) -> dict:
    return {
        key: count
        for key, count in counter.items()
        if key.startswith("key_slab") or key == "key_grid"
    }


class TestDerivationCounters:
    @pytest.mark.parametrize(
        "make",
        [
            lambda u: ReversedCurve(HilbertCurve(u)),
            lambda u: ReflectedCurve(HilbertCurve(u), axes=[0]),
            lambda u: ReflectedCurve(HilbertCurve(u), axes=[1]),
            lambda u: ReflectedCurve(HilbertCurve(u), axes=[0, 1]),
        ],
        ids=["reversed", "reflected0", "reflected1", "reflected01"],
    )
    def test_chunked_transform_derives_every_slab(self, make, u2_8):
        ctx = ContextPool(chunk_cells=16).get(make(u2_8))
        ctx.davg()
        slab_keys = {
            f"key_slab[{lo}:{hi}]" for lo, hi in ctx._slab_ranges()
        }
        assert len(slab_keys) == 4
        assert set(_slab_counts(ctx.stats.derived)) == slab_keys
        assert _slab_counts(ctx.stats.computes) == {}

    def test_axis_permuted_multi_slab_computes(self, u2_8):
        curve = AxisPermutedCurve(HilbertCurve(u2_8), perm=[1, 0])
        ctx = ContextPool(chunk_cells=16).get(curve)
        ctx.davg()
        assert _slab_counts(ctx.stats.derived) == {}
        assert len(_slab_counts(ctx.stats.computes)) == 4

    def test_axis_permuted_one_slab_derives(self, u2_8):
        curve = AxisPermutedCurve(HilbertCurve(u2_8), perm=[1, 0])
        ctx = ContextPool(chunk_cells=u2_8.n, threads=2).get(curve)
        ctx.davg()
        assert _slab_counts(ctx.stats.derived) == {"key_grid": 1}
        assert _slab_counts(ctx.stats.computes) == {}


class TestStoreSemantics:
    # NumPy backend: a native codec would exempt hilbert from the store.
    KWARGS = dict(
        universes=[Universe(d=2, side=16)],
        curves=["hilbert"],
        metrics=("davg", "dmax", "lambdas"),
        reports=False,
        backend="numpy",
    )

    def test_chunked_run_maps_only_a_dense_committed_grid(self, tmp_path):
        dense = Sweep(**self.KWARGS).run()
        cold = Sweep(store_dir=tmp_path, chunk_cells=64, **self.KWARGS).run()
        assert cold.cache_stats.total_mmap == 0
        assert GridStore(tmp_path).entries() == []
        Sweep(store_dir=tmp_path, **self.KWARGS).run()  # dense commit
        assert [e["kind"] for e in GridStore(tmp_path).entries()] == [
            "key_grid"
        ]
        warm = Sweep(store_dir=tmp_path, chunk_cells=64, **self.KWARGS).run()
        assert warm.cache_stats.total_mmap == 4  # every slab
        assert _slab_counts(warm.cache_stats.computes) == {}
        for result in (cold, warm):
            assert [r.values for r in result.records] == [
                r.values for r in dense.records
            ]

    def test_procedural_chunked_slab_writes_nothing(self, tmp_path, u2_8):
        store = GridStore(tmp_path)
        ctx = MetricContext(HilbertCurve(u2_8), chunk_cells=16, store=store)
        ctx.davg()
        assert store.entries() == []

    def test_chunked_slabs_slice_a_dense_write(self, tmp_path):
        universe = Universe(d=2, side=16)
        kwargs = dict(store_dir=tmp_path, backend="numpy")
        MetricContext(HilbertCurve(universe), **kwargs).davg()
        warm = MetricContext(HilbertCurve(universe), chunk_cells=64, **kwargs)
        plain = MetricContext(HilbertCurve(universe))
        for lo, hi, slab in warm.iter_key_slabs():
            assert np.array_equal(slab, plain.key_grid()[lo:hi])
        assert warm.stats.total_mmap == 4
        assert warm.stats.total_computes == 0
        assert warm.davg() == plain.davg()


class TestOneSlabChunked:
    def test_caches_only_key_grid(self, u2_8):
        ctx = MetricContext(HilbertCurve(u2_8), chunk_cells=u2_8.n, threads=2)
        dense = MetricContext(HilbertCurve(u2_8))
        assert ctx._slab_ranges() == [(0, 8)]
        assert chunked.fold_ranges(ctx) == chunked._spans(
            8, chunked._dense_step(ctx.threads, 8)
        )
        assert len(chunked.fold_ranges(ctx)) == 8
        assert ctx.davg() == dense.davg()
        assert ctx.dmax() == dense.dmax()
        assert ctx.stats.computes == {"key_grid": 1}
        assert not any(k.startswith("key_slab") for k in ctx._store._items)

    def test_off_partition_reads_are_silent_slices(self, u2_8):
        ctx = MetricContext(HilbertCurve(u2_8), threads=2)
        grid = ctx.key_grid()
        before = (ctx.stats.hits, ctx.stats.misses)
        plane = ctx._key_slab(3, 4)
        assert np.shares_memory(plane, grid)
        assert np.array_equal(plane, grid[3:4])
        assert (ctx.stats.hits, ctx.stats.misses) == before

    def test_uncached_off_partition_read_adds_no_key(self, u2_8):
        ctx = MetricContext(HilbertCurve(u2_8), chunk_cells=16)
        plane = ctx._key_slab(3, 4)  # slab (2, 4) is not resident
        assert np.array_equal(plane, HilbertCurve(u2_8).key_grid()[3:4])
        assert ctx.stats.misses == 0 and ctx.cache_bytes == 0


class TestFanOutResolution:
    """A threaded chunked context resolves every cached key slab and
    order block in the calling thread: built in a worker, a cached
    block would sit in that thread's malloc arena."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize(
        "chunk_cells,windows", [(512, (16, 512)), (1000, (100, 1500))]
    )
    def test_no_cached_block_is_built_in_a_worker(
        self, chunk_cells, windows, backend, monkeypatch
    ):
        universe = Universe(d=2, side=64)
        ctx = MetricContext(
            HilbertCurve(universe),
            chunk_cells=chunk_cells,
            threads=2,
            backend=backend,
        )
        built = []
        resolve = ctx._store.get_or_compute

        def spy(key, compute, **tiers):
            def traced():
                built.append((key, threading.current_thread().name))
                return compute()

            return resolve(key, traced, **tiers)

        monkeypatch.setattr(ctx._store, "get_or_compute", spy)
        dense = MetricContext(HilbertCurve(universe), backend="numpy")
        for window in windows:
            assert ctx.window_dilation(window) == dense.window_dilation(window)
        for shape in ((4, 4), (40, 3)):
            assert expected_clusters(ctx, shape, 50) == expected_clusters(
                dense, shape, 50
            )
            assert SFCIndex(ctx).average_query_cost(shape, 50) == SFCIndex(
                dense
            ).average_query_cost(shape, 50)
        main = threading.main_thread().name
        assert {name for _, name in built} == {main}, built
        kinds = {key.split("[")[0] for key, _ in built}
        assert {"order_block", "key_slab"} <= kinds
