"""Tests for the persistent mmap grid store and its engine wiring."""

from __future__ import annotations

import numpy as np
import pytest

from repro import Universe
from repro.curves.base import PermutationCurve
from repro.curves.hilbert import HilbertCurve
from repro.curves.zcurve import ZCurve
from repro.engine import (
    ContextPool,
    CurveSpec,
    GridStore,
    MetricContext,
    Sweep,
    native,
    shared_key,
)
from repro.engine.shm import reuse_key


class TestGridStore:
    def test_put_get_roundtrip_readonly_mmap(self, tmp_path):
        store = GridStore(tmp_path)
        grid = np.arange(12, dtype=np.int64).reshape(3, 4)
        assert store.put(("spec",), "key_grid", grid) is True
        view = store.get(("spec",), "key_grid")
        assert view.shape == (3, 4) and view.dtype == np.int64
        np.testing.assert_array_equal(view, grid)
        assert not view.flags.writeable
        assert isinstance(view, np.memmap)

    def test_reopen_in_fresh_store_object(self, tmp_path):
        GridStore(tmp_path).put(("spec",), "order", np.arange(9))
        twin = GridStore(tmp_path)  # models a later process
        np.testing.assert_array_equal(
            twin.get(("spec",), "order"), np.arange(9)
        )

    def test_absent_entries_miss(self, tmp_path):
        store = GridStore(tmp_path)
        store.put(("spec",), "key_grid", np.arange(4))
        assert store.get(("spec",), "flat_keys") is None
        assert store.get(("other",), "key_grid") is None
        assert store.counters["misses"] == 2

    def test_none_key_is_exempt(self, tmp_path):
        store = GridStore(tmp_path)
        assert store.put(None, "key_grid", np.arange(4)) is False
        assert store.get(None, "key_grid") is None
        assert store.contains(None, "key_grid") is False
        assert not any(tmp_path.iterdir())  # no I/O happened at all

    def test_duplicate_put_is_skipped(self, tmp_path):
        store = GridStore(tmp_path)
        assert store.put(("spec",), "key_grid", np.arange(4)) is True
        assert store.put(("spec",), "key_grid", np.arange(4)) is False
        assert store.counters["put_skipped"] == 1

    def test_bad_kind_rejected(self, tmp_path):
        store = GridStore(tmp_path)
        with pytest.raises(ValueError, match="kind"):
            store.put(("spec",), "../escape", np.arange(4))
        with pytest.raises(ValueError, match="kind"):
            store.get(("spec",), "a/b")

    def test_entries_and_nbytes(self, tmp_path):
        store = GridStore(tmp_path)
        store.put(("spec",), "key_grid", np.arange(8, dtype=np.int64))
        store.put(("universe", 2, 4), "neighbor_counts",
                  np.ones((4, 4), dtype=np.int64))
        entries = store.entries()
        assert {e["kind"] for e in entries} == {
            "key_grid", "neighbor_counts"
        }
        assert store.nbytes == sum(e["nbytes"] for e in entries)
        assert store.nbytes >= 8 * 8 + 16 * 8

    def test_unwritable_disk_degrades_to_compute(self, tmp_path, u2_8):
        # a root nested under a regular *file* fails every mkdir/write
        # with OSError, which models a dead disk portably (chmod-based
        # denial is a no-op when the suite runs as root)
        (tmp_path / "blocker").write_text("")
        store = GridStore(tmp_path / "blocker" / "store")
        assert store.put(("spec",), "key_grid", np.arange(4)) is False
        assert store.counters["io_errors"] == 1
        ctx = MetricContext(ZCurve(u2_8), store=store)
        assert ctx.davg() == MetricContext(ZCurve(u2_8)).davg()


class TestContextWiring:
    """Store wiring of one context.  Procedural curves run on the NumPy
    backend here: a native codec exempts them from the store (see
    ``TestCodecExemption``)."""

    def test_cold_run_writes_through(self, tmp_path, u2_8):
        store = GridStore(tmp_path)
        curve = ZCurve(u2_8)
        ctx = MetricContext(curve, store=store, backend="numpy")
        ctx.davg()
        ctx.order()
        ctx.flat_keys()
        # The key grid is the one stored kind: flat keys and order are
        # rearrangements of it, and neighbor counts are per-range
        # scratch.
        assert [e["kind"] for e in store.entries()] == ["key_grid"]
        assert store.contains(shared_key(curve), "key_grid")
        assert ctx.stats.total_mmap == 0  # nothing to map on a cold run

    def test_warm_context_resolves_from_mmap(self, tmp_path, u2_8):
        kwargs = dict(store_dir=tmp_path, backend="numpy")
        cold = MetricContext(ZCurve(u2_8), **kwargs)
        baseline = (cold.davg(), cold.dmax(), cold.davg_ratio())
        warm = MetricContext(ZCurve(u2_8), **kwargs)
        assert (warm.davg(), warm.dmax(), warm.davg_ratio()) == baseline
        assert warm.stats.total_mmap > 0
        assert warm.stats.mmap_count("key_grid") == 1
        assert warm.stats.compute_count("key_grid") == 0
        # a mapped value is cached: the second read is a plain hit
        warm.davg()
        assert warm.stats.mmap_count("key_grid") == 1

    def test_warm_values_equal_storeless(self, tmp_path, u2_8):
        MetricContext(
            HilbertCurve(u2_8), store_dir=tmp_path, backend="numpy"
        ).davg()
        warm = MetricContext(
            HilbertCurve(u2_8), store_dir=tmp_path, backend="numpy"
        )
        assert warm.key_grid() is not None
        assert warm.stats.mmap_count("key_grid") == 1
        plain = MetricContext(HilbertCurve(u2_8))
        assert warm.davg() == plain.davg()
        assert warm.dmax() == plain.dmax()
        np.testing.assert_array_equal(
            warm.nn_distance_values(), plain.nn_distance_values()
        )

    def test_instance_keyed_curve_is_store_exempt(self, tmp_path, u2_8):
        table = PermutationCurve(u2_8, order=u2_8.all_coords())
        assert shared_key(table) is None
        store = GridStore(tmp_path)
        ctx = MetricContext(table, store=store)
        ctx.davg()
        assert store.entries() == []
        assert ctx.stats.compute_count("key_grid") == 1

    def test_pool_contexts_share_one_store(self, tmp_path, u2_8):
        ContextPool(store_dir=tmp_path, backend="numpy").get(
            ZCurve(u2_8)
        ).davg()
        pool = ContextPool(store_dir=tmp_path, backend="numpy")
        ctx = pool.get(ZCurve(u2_8))
        assert ctx.grid_store is pool.grid_store
        ctx.davg()
        assert pool.stats.total_mmap > 0


class TestSweepWiring:
    def test_cold_then_warm_sweep_identical(self, tmp_path):
        kwargs = dict(
            dims=[2],
            sides=[8],
            curves=["z", "hilbert"],
            metrics=("davg", "dmax"),
            reports=False,
            backend="numpy",
        )
        plain = Sweep(**kwargs).run()
        cold = Sweep(store_dir=tmp_path, **kwargs).run()
        warm = Sweep(store_dir=tmp_path, **kwargs).run()
        assert cold.cache_stats.total_mmap == 0
        assert warm.cache_stats.total_mmap > 0
        for a, b in ((cold, plain), (warm, plain)):
            assert [
                (r.spec, r.d, r.side, r.values) for r in a.records
            ] == [(r.spec, r.d, r.side, r.values) for r in b.records]

    def test_chunked_sweep_maps_a_dense_commit(self, tmp_path, u2_8):
        kwargs = dict(
            universes=[Universe(d=2, side=16)],
            curves=["hilbert", "reversed:inner=z"],
            metrics=("davg", "dmax"),
            reports=False,
            backend="numpy",
        )
        dense = Sweep(store_dir=tmp_path, **kwargs).run()
        assert {e["kind"] for e in GridStore(tmp_path).entries()} == {
            "key_grid"
        }
        chunked = Sweep(
            store_dir=tmp_path, chunk_cells=64, max_bytes=4096, **kwargs
        ).run()
        assert chunked.cache_stats.total_mmap > 0
        assert [r.values for r in chunked.records] == [
            r.values for r in dense.records
        ]

    def test_process_sweep_warm_start_maps_grids(self, tmp_path):
        # NumPy backend: on the native one the publishing parent builds
        # codec grids faster than it reads them (see
        # TestCodecExemption), and tables are never stored.
        kwargs = dict(
            dims=[2],
            sides=[8],
            curves=["hilbert", "reversed:inner=hilbert"],
            metrics=("davg",),
            reports=False,
            processes=2,
            backend="numpy",
        )
        plain = Sweep(**kwargs).run()
        cold = Sweep(store_dir=tmp_path, **kwargs).run()
        warm = Sweep(store_dir=tmp_path, **kwargs).run()
        assert warm.cache_stats.total_mmap > 0
        for result in (cold, warm):
            assert [r.values for r in result.records] == [
                r.values for r in plain.records
            ]


requires_native = pytest.mark.skipif(
    not native.available(), reason="native kernels unavailable"
)

#: Every registry family a native codec encodes on 2D side 8.
CODEC_SPECS = [
    "z",
    "hilbert",
    "gray",
    "moore",
    "snake",
    "simple",
    "spiral",
    "diagonal",
]


def _curve(spec, universe):
    return CurveSpec.parse(spec).make(universe)


def _touch_every_kind(ctx) -> None:
    ctx.davg()
    ctx.order()
    ctx.flat_keys()


@requires_native
class TestCodecExemption:
    """A curve whose keys a native codec serves is never stored: each
    context builds its grid faster than it could read it back."""

    @pytest.mark.parametrize("spec", CODEC_SPECS)
    def test_codec_curve_maps_and_writes_nothing(self, tmp_path, u2_8, spec):
        store = GridStore(tmp_path)
        for _ in range(2):  # cold, then what would be the warm run
            ctx = MetricContext(_curve(spec, u2_8), store=store)
            _touch_every_kind(ctx)
            assert ctx.stats.total_mmap == 0
            assert ctx._grid_views == {} and ctx._grid_sink is None
        assert store.entries() == []

    @pytest.mark.parametrize("spec", ["z", "hilbert", "reversed:inner=hilbert"])
    def test_numpy_backend_still_stores_and_maps(self, tmp_path, u2_8, spec):
        cold = MetricContext(
            _curve(spec, u2_8), store_dir=tmp_path, backend="numpy"
        )
        _touch_every_kind(cold)
        assert GridStore(tmp_path).entries()
        warm = MetricContext(
            _curve(spec, u2_8), store_dir=tmp_path, backend="numpy"
        )
        assert warm.davg() == cold.davg()
        assert warm.stats.mmap_count("key_grid") == 1

    @pytest.mark.parametrize(
        "spec",
        [
            # No codec encodes a transform, whatever its base, and a
            # transform holds no table.
            "reversed:inner=random:seed=3",
            "reversed:inner=hilbert",
            "reflected:inner=z,axes=0",
        ],
    )
    def test_transforms_still_stored_on_native(self, tmp_path, u2_8, spec):
        MetricContext(_curve(spec, u2_8), store_dir=tmp_path).davg()
        warm = MetricContext(_curve(spec, u2_8), store_dir=tmp_path)
        warm.davg()
        assert warm.stats.mmap_count("key_grid") == 1

    def test_reuse_key_exempts_codec_curves_only(self, u2_8):
        for spec in CODEC_SPECS:
            curve = _curve(spec, u2_8)
            assert reuse_key(curve, "native") is None
            assert reuse_key(curve, "auto") is None
            assert reuse_key(curve, "numpy") == shared_key(curve)
        for spec in (
            "reversed:inner=hilbert",
            "reflected:inner=reversed:inner=hilbert",
            "reversed:inner=random:seed=3",
        ):
            curve = _curve(spec, u2_8)
            assert reuse_key(curve, "native") == shared_key(curve)
            assert reuse_key(curve, "native") is not None

    def test_codec_sweep_twice_leaves_store_empty(self, tmp_path):
        kwargs = dict(
            dims=[2],
            sides=[8],
            curves=["z", "hilbert", "spiral"],
            metrics=("davg", "dilation:window=2"),
            reports=False,
            store_dir=tmp_path,
        )
        cold = Sweep(**kwargs).run()
        warm = Sweep(**kwargs).run()
        assert warm.records == cold.records
        assert cold.cache_stats.total_mmap == warm.cache_stats.total_mmap == 0
        assert GridStore(tmp_path).entries() == []
        assert not tmp_path.exists() or not any(tmp_path.iterdir())


#: Table curves and a universe each applies to.
TABLE_SPECS = [
    ("random:seed=3", Universe(d=2, side=8)),
    ("peano", Universe(d=2, side=9)),
]


class TestTableExemption:
    """A table curve's constructor holds its grid, so no store tier
    writes or maps it, on either backend; a transform over a table is
    still stored."""

    @pytest.mark.parametrize("chunk_cells", [None, 16])
    @pytest.mark.parametrize("backend", ["numpy", "auto"])
    @pytest.mark.parametrize("spec, universe", TABLE_SPECS)
    def test_table_maps_and_writes_nothing(
        self, tmp_path, spec, universe, backend, chunk_cells
    ):
        store = GridStore(tmp_path)
        plain = MetricContext(_curve(spec, universe))
        for _ in range(2):  # cold, then what would be the warm run
            ctx = MetricContext(
                _curve(spec, universe),
                store=store,
                backend=backend,
                chunk_cells=chunk_cells,
            )
            assert reuse_key(ctx.curve, backend) is None
            assert ctx.davg() == plain.davg()
            if chunk_cells is None:
                _touch_every_kind(ctx)
            assert ctx.stats.total_mmap == 0
            assert ctx._grid_views == {} and ctx._grid_sink is None
        assert store.entries() == []

    @pytest.mark.parametrize("backend", ["numpy", "auto"])
    def test_transform_over_table_still_stored(self, tmp_path, u2_8, backend):
        spec = "reversed:inner=random:seed=3"
        kwargs = dict(store_dir=tmp_path, backend=backend)
        cold = MetricContext(_curve(spec, u2_8), **kwargs)
        cold.davg()
        assert len(GridStore(tmp_path).entries()) == 1
        warm = MetricContext(_curve(spec, u2_8), **kwargs)
        assert warm.davg() == cold.davg()
        assert warm.stats.mmap_count("key_grid") == 1
