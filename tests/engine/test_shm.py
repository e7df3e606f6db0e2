"""Tests for the shared-memory grid store and shared process sweeps."""

from __future__ import annotations

import warnings
from multiprocessing import shared_memory
from pathlib import Path

import numpy as np
import pytest

from repro import Universe
from repro.curves.base import PermutationCurve
from repro.curves.zcurve import ZCurve
from repro.engine import (
    CacheStats,
    ContextPool,
    MetricContext,
    SharedGridStore,
    Sweep,
    native,
    shared_key,
)
from repro.engine.shm import reuse_key
from repro.engine.sweep import CurveSpec, _publish_shared

SHM_DIR = Path("/dev/shm")


def shm_segments() -> set:
    """Names currently present in the system shared-memory directory."""
    if not SHM_DIR.is_dir():  # pragma: no cover - non-Linux fallback
        return set()
    return {p.name for p in SHM_DIR.iterdir()}


class TestSharedGridStore:
    def test_put_get_roundtrip_zero_copy(self):
        store = SharedGridStore.create()
        try:
            grid = np.arange(12, dtype=np.int64).reshape(3, 4)
            store.put(("spec",), "key_grid", grid)
            twin = SharedGridStore.attach(store.manifest())
            view = twin.get(("spec",), "key_grid")
            assert view.shape == (3, 4) and view.dtype == np.int64
            np.testing.assert_array_equal(view, grid)
            assert not view.flags.writeable
            # repeated get returns the same cached view (one attach)
            assert twin.get(("spec",), "key_grid") is view
            twin.close()
        finally:
            store.unlink()

    def test_absent_entry_returns_none(self):
        store = SharedGridStore.create()
        try:
            store.put(("spec",), "key_grid", np.arange(4))
            twin = SharedGridStore.attach(store.manifest())
            assert twin.get(("spec",), "flat_keys") is None
            assert twin.get(("other",), "key_grid") is None
            twin.close()
        finally:
            store.unlink()

    def test_duplicate_publish_raises(self):
        store = SharedGridStore.create()
        try:
            store.put(("spec",), "key_grid", np.arange(4))
            with pytest.raises(ValueError, match="already published"):
                store.put(("spec",), "key_grid", np.arange(4))
        finally:
            store.unlink()

    def test_attached_store_cannot_publish(self):
        store = SharedGridStore.create()
        try:
            twin = SharedGridStore.attach(store.manifest())
            with pytest.raises(ValueError, match="owning"):
                twin.put(("spec",), "key_grid", np.arange(4))
        finally:
            store.unlink()

    def test_unlink_removes_segments_and_is_idempotent(self):
        store = SharedGridStore.create()
        store.put(("spec",), "key_grid", np.arange(8, dtype=np.int64))
        (name,) = store.segment_names
        store.unlink()
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)
        store.unlink()  # second call is a no-op, not an error

    def test_get_after_unlink_is_a_miss(self):
        store = SharedGridStore.create()
        store.put(("spec",), "key_grid", np.arange(8))
        manifest = store.manifest()
        store.unlink()
        twin = SharedGridStore.attach(manifest)
        assert twin.get(("spec",), "key_grid") is None

    def test_len_contains_nbytes(self):
        store = SharedGridStore.create()
        try:
            assert len(store) == 0
            store.put(("spec",), "key_grid", np.zeros(10, dtype=np.int64))
            assert len(store) == 1
            assert (("spec",), "key_grid") in store
            assert (("spec",), "flat_keys") not in store
            assert store.nbytes == 80
        finally:
            store.unlink()


class TestSharedKeys:
    def test_equivalent_curves_same_key(self, u2_8):
        assert shared_key(ZCurve(u2_8)) == shared_key(ZCurve(u2_8))

    def test_different_universe_different_key(self, u2_8, u3_4):
        assert shared_key(ZCurve(u2_8)) != shared_key(ZCurve(u3_4))

    def test_instance_keyed_curve_unshareable(self, u2_8):
        table = PermutationCurve(u2_8, order=u2_8.all_coords())
        assert shared_key(table) is None

    def test_transform_of_instance_keyed_curve_unshareable(self, u2_8):
        from repro.curves.transforms import ReversedCurve

        table = PermutationCurve(u2_8, order=u2_8.all_coords())
        assert shared_key(ReversedCurve(table)) is None

    def test_seeded_random_curve_shareable(self, u2_8):
        from repro.curves.random_curve import RandomCurve

        assert shared_key(RandomCurve(u2_8, seed=3)) == shared_key(
            RandomCurve(u2_8, seed=3)
        )
        assert shared_key(RandomCurve(u2_8, seed=3)) != shared_key(
            RandomCurve(u2_8, seed=4)
        )

    def test_key_is_picklable(self, u2_8):
        import pickle

        key = shared_key(ZCurve(u2_8))
        assert pickle.loads(pickle.dumps(key)) == key

    def test_universe_key(self, u2_8):
        """A universe inside a spec key renders as a literal tuple."""
        key = shared_key(ZCurve(u2_8))
        assert ("universe", 2, 8) in key


class TestPoolSharedWiring:
    def test_context_resolves_through_store(self, u2_8):
        store = SharedGridStore.create()
        try:
            source = ZCurve(u2_8)
            key = shared_key(source)
            store.put(key, "key_grid", source.key_grid())
            # NumPy backend: a native codec would exempt z from sharing.
            pool = ContextPool(shared_store=store, backend="numpy")
            ctx = pool.get(ZCurve(u2_8))
            grid = ctx.key_grid()
            np.testing.assert_array_equal(grid, source.key_grid())
            assert ctx.stats.shared_count("key_grid") == 1
            assert ctx.stats.compute_count("key_grid") == 0
            # second lookup is a plain cache hit, not a re-attach
            ctx.key_grid()
            assert ctx.stats.shared_count("key_grid") == 1
            assert ctx.stats.hits >= 1
        finally:
            store.unlink()

    def test_unpublished_spec_falls_back_to_compute(self, u2_8):
        store = SharedGridStore.create()
        try:
            pool = ContextPool(shared_store=store)
            ctx = pool.get(ZCurve(u2_8))
            np.testing.assert_array_equal(
                ctx.key_grid(), ZCurve(u2_8).key_grid()
            )
            assert ctx.stats.compute_count("key_grid") == 1
            assert ctx.stats.total_shared == 0
        finally:
            store.unlink()

    def test_chunked_pool_ignores_store(self, u2_8):
        store = SharedGridStore.create()
        try:
            source = ZCurve(u2_8)
            store.put(shared_key(source), "key_grid", source.key_grid())
            pool = ContextPool(shared_store=store, chunk_cells=16)
            ctx = pool.get(ZCurve(u2_8))
            assert ctx._grid_views == {}
            assert ctx.davg() == ContextPool().get(ZCurve(u2_8)).davg()
        finally:
            store.unlink()

    def test_shared_views_do_not_count_against_budget(self, u2_8):
        store = SharedGridStore.create()
        try:
            source = ZCurve(u2_8)
            store.put(shared_key(source), "key_grid", source.key_grid())
            pool = ContextPool(shared_store=store, backend="numpy")
            ctx = pool.get(ZCurve(u2_8))
            before = ctx.cache_bytes
            ctx.key_grid()
            assert ctx.cache_bytes == before  # view lives off-budget
        finally:
            store.unlink()


SWEEP_KWARGS = dict(
    curves=["z", "hilbert", "random:seed=3", "reversed:inner=hilbert"],
    metrics=("davg", "dmax", "nn_mean", "lambdas"),
    reports=False,
)


class TestSharedSweep:
    def test_shared_matches_private_and_serial_bit_for_bit(self, u2_8):
        serial = Sweep(universes=[u2_8], **SWEEP_KWARGS).run()
        shared = Sweep(
            universes=[u2_8], **SWEEP_KWARGS, processes=2, shared=True
        ).run()
        private = Sweep(
            universes=[u2_8],
            **SWEEP_KWARGS,
            processes=2,
            shared=False,
            pooled=False,
        ).run()
        assert serial.records == shared.records == private.records

    def test_shared_counts_on_result(self, u2_8):
        # NumPy backend: z/hilbert are shared there, not exempt; the
        # random table is never shared.
        result = Sweep(
            universes=[u2_8], **SWEEP_KWARGS, processes=2, backend="numpy"
        ).run()
        stats = result.cache_stats
        # z, hilbert and the reversed cell (whose transitively created
        # hilbert base context never reads its grid) attach their grids
        assert stats.shared == {"key_grid": 3}
        # the parent built z's and hilbert's grids once each; the
        # random cell builds its own from its table
        assert stats.compute_count("key_grid") == 3
        # the parent derived the reversed grid from hilbert's
        assert stats.derived_count("key_grid") == 1

    def test_aggregate_over_mixed_shared_and_derived_workers(self, u2_8):
        result = Sweep(
            universes=[u2_8],
            curves=["hilbert", "reversed:inner=hilbert"],
            metrics=("davg", "dmax"),
            reports=False,
            processes=2,
            backend="numpy",
        ).run()
        stats = result.cache_stats
        assert isinstance(stats, CacheStats)
        assert stats.total_shared > 0 and stats.total_derived > 0
        rebuilt = CacheStats.aggregate([stats, CacheStats()])
        assert rebuilt.shared == stats.shared
        assert rebuilt.derived == stats.derived

    def test_segments_cleaned_after_sweep(self, u2_8):
        before = shm_segments()
        Sweep(universes=[u2_8], **SWEEP_KWARGS, processes=2).run()
        assert shm_segments() == before

    def test_segments_cleaned_after_worker_exception(self, u2_8):
        before = shm_segments()
        with pytest.raises(ValueError, match="failed to construct"):
            Sweep(
                universes=[u2_8],
                curves=["z", "z:bogus=1"],
                metrics=("davg",),
                reports=False,
                processes=2,
                strict=True,
            ).run()
        assert shm_segments() == before

    def test_duplicate_cells_deduplicated(self, u2_8):
        result = Sweep(
            universes=[u2_8],
            curves=["z", "z"],
            metrics=("davg",),
            reports=False,
            processes=2,
            shared=False,
            pooled=False,
        ).run()
        assert len(result.records) == 2
        assert result.records[0] == result.records[1]
        # the duplicate cell was reused, not recomputed
        assert result.cache_stats.compute_count("key_grid") == 1

    def test_duplicate_cells_deduplicated_serially(self, u2_8):
        result = Sweep(
            universes=[u2_8],
            curves=["z", "z"],
            metrics=("davg",),
            reports=False,
            pooled=False,
        ).run()
        assert len(result.records) == 2
        assert result.cache_stats.compute_count("key_grid") == 1

    def test_chunked_shared_interop_bit_for_bit(self):
        # max_bytes below the dense grid forces chunked mode; shared
        # mode must leave those cells on the chunked path and still
        # produce dense-identical values.
        universe = Universe(d=2, side=64)
        kwargs = dict(
            universes=[universe],
            curves=["z", "gray"],
            metrics=("davg", "dmax", "nn_mean"),
            reports=False,
        )
        dense = Sweep(**kwargs).run()
        before = shm_segments()
        chunked_shared = Sweep(
            **kwargs, max_bytes=16 * 1024, processes=2, shared=True
        ).run()
        assert shm_segments() == before
        assert dense.records == chunked_shared.records
        stats = chunked_shared.cache_stats
        assert stats.total_shared == 0  # nothing published for chunked cells
        assert any(k.startswith("key_slab") for k in stats.computes)

    def test_instance_keyed_curves_still_sweep(self, u2_8):
        # random: shareable by seed; the sweep must not choke on a
        # spec mix where only some cells are publishable.
        result = Sweep(
            universes=[u2_8],
            curves=["random:seed=1", "z"],
            metrics=("davg",),
            reports=False,
            processes=2,
        ).run()
        assert len(result.records) == 2

    @pytest.mark.parametrize("bad", ["maybe", 0, 1, None])
    def test_bad_shared_value_raises(self, u2_8, bad):
        # 0/1 equal False/True but must not pass as opt-out/opt-in
        with pytest.raises(ValueError, match="shared"):
            Sweep(
                universes=[u2_8],
                curves=["z"],
                metrics=("davg",),
                shared=bad,
            ).run()

    def test_shared_ignored_serially(self, u2_8):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = Sweep(
                universes=[u2_8],
                curves=["z"],
                metrics=("davg",),
                reports=False,
                shared=True,
            ).run()
        assert result.cache_stats.total_shared == 0

    def test_everything_derives_from_the_shared_grid(self, u2_8):
        # Only the key grid is published; flat keys, inverse and curve
        # order are rearrangements of the attached view, bit-for-bit.
        store = SharedGridStore.create()
        try:
            source = ContextPool().get(ZCurve(u2_8))
            store.put(shared_key(source.curve), "key_grid", source.key_grid())
            ctx = ContextPool(shared_store=store, backend="numpy").get(
                ZCurve(u2_8)
            )
            np.testing.assert_array_equal(
                ctx.key_grid(), source.key_grid()
            )
            np.testing.assert_array_equal(
                ctx.flat_keys(), source.flat_keys()
            )
            np.testing.assert_array_equal(ctx.order(), source.order())
            assert ctx.stats.shared == {"key_grid": 1}
            assert ctx.stats.computes == {"flat_keys": 1, "order": 1}
        finally:
            store.unlink()


class TestOrderFromSharedGrid:
    """Workers scatter the curve order from the attached key grid; no
    process sweep publishes an order."""

    METRICS = ("davg", "dilation:window=3")

    def _run(self, u2_8, curves):
        return Sweep(
            universes=[u2_8],
            curves=curves,
            metrics=self.METRICS,
            reports=False,
            processes=2,
            shared=True,
            backend="numpy",
        ).run()

    def test_dilation_walks_an_order_scattered_from_the_shared_grid(
        self, u2_8
    ):
        result = self._run(u2_8, ["z", "hilbert"])
        stats = result.cache_stats
        assert stats.shared == {"key_grid": 2}
        assert stats.compute_count("order") == 2  # one per curve cell
        serial = Sweep(
            universes=[u2_8],
            curves=["z", "hilbert"],
            metrics=self.METRICS,
            reports=False,
        ).run()
        assert result.records == serial.records

    def test_transform_order_follows_its_own_grid(self, u2_8):
        result = self._run(u2_8, ["hilbert", "reversed:inner=hilbert"])
        stats = result.cache_stats
        # Both specs publish their grid; each cell scatters its order
        # from its own attached grid, and no order is derived.
        assert stats.shared == {"key_grid": 2}
        assert stats.compute_count("order") == 2
        assert stats.derived_count("order") == 0

    def test_segments_reclaimed_after_a_windowed_sweep(self, u2_8):
        before = shm_segments()
        self._run(u2_8, ["z", "hilbert"])
        assert shm_segments() == before


def _worker_arrays(spec: str, d: int, side: int):
    """What a shared-mode worker derives from its attached grid."""
    from repro.engine import sweep

    pool = ContextPool(
        shared_store=sweep._WORKER_SHARED_STORE, backend="numpy"
    )
    ctx = pool.get(CurveSpec.parse(spec).make(Universe(d=d, side=side)))
    arrays = (ctx.flat_keys(), ctx.order())
    return arrays, pool.stats


class TestKeyGridOnly:
    """A process sweep publishes one ``key_grid`` per keyed spec and
    nothing else; tables publish nothing on either backend."""

    SPECS = ["z", "hilbert", "reversed:inner=hilbert", "reflected:inner=z,axes=0"]

    def _store(self, universe, curves, backend):
        tasks, _ = Sweep(
            universes=[universe],
            curves=curves,
            metrics=("davg", "dilation:window=3"),
            reports=False,
            processes=2,
            backend=backend,
        )._plan()
        store, _ = _publish_shared(tasks)
        return store

    def test_one_key_grid_per_keyed_spec(self, u2_8):
        store = self._store(u2_8, self.SPECS, "numpy")
        try:
            assert sorted(store.manifest()) == sorted(
                (shared_key(CurveSpec.parse(spec).make(u2_8)), "key_grid")
                for spec in self.SPECS
            )
        finally:
            store.unlink()

    @pytest.mark.parametrize("backend", ["numpy", "auto"])
    @pytest.mark.parametrize(
        "spec, universe",
        [("random:seed=3", Universe(d=2, side=8)),
         ("peano", Universe(d=2, side=9))],
    )
    def test_tables_publish_nothing(self, spec, universe, backend):
        store = self._store(universe, [spec], backend)
        try:
            assert len(store) == 0
        finally:
            store.unlink()
        before = shm_segments()
        result = Sweep(
            universes=[universe],
            curves=[spec],
            metrics=("davg", "dilation:window=3"),
            reports=False,
            processes=2,
            backend=backend,
        ).run()
        assert result.cache_stats.total_shared == 0
        assert shm_segments() == before

    def test_parent_never_builds_a_table(self, u2_8, monkeypatch):
        """A table curve's constructor is its whole grid build, and
        nothing of it is published: the parent skips it before
        building, and the records are those of a serial sweep."""
        from repro.curves.random_curve import RandomCurve

        built = []
        init = RandomCurve.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(RandomCurve, "__init__", counting_init)
        kwargs = dict(
            universes=[u2_8],
            curves=["random:seed=3", "z"],
            metrics=("davg", "dmax", "dilation:window=3"),
            reports=False,
        )
        tasks, _ = Sweep(processes=2, **kwargs)._plan()
        store, _ = _publish_shared(tasks)
        store.unlink()
        # Forked workers build their own tables; only the parent's
        # constructions land in ``built``.
        shared = Sweep(processes=2, **kwargs).run()
        assert built == []
        serial = Sweep(**kwargs).run()
        assert [(r.spec, r.values) for r in shared.records] == [
            (r.spec, r.values) for r in serial.records
        ]

    def test_table_rule_by_name_and_by_instance_agree(self):
        """The parent's by-name skip and ``reuse_key``'s by-instance
        test name the same curves: those whose instance holds a table."""
        from repro.curves.registry import (
            available_curves,
            curve_holds_table,
            curves_for_universe,
        )

        names = available_curves(include_hidden=True)
        built = {}
        for side in (8, 9):  # bitwise curves and Peano
            built.update(curves_for_universe(Universe(d=2, side=side), names))
        assert sorted(built) == names
        for name, curve in built.items():
            holds = curve._key_grid_cache is not None
            assert curve_holds_table(name) == holds, name
            if holds:
                assert reuse_key(curve, "numpy") is None, name

    def test_workers_derive_arrays_equal_to_serial(self, u2_8):
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        from repro.engine.sweep import _worker_attach_shared

        store = self._store(u2_8, self.SPECS, "numpy")
        try:
            with ProcessPoolExecutor(
                max_workers=2,
                mp_context=multiprocessing.get_context("spawn"),
                initializer=_worker_attach_shared,
                initargs=(store.manifest(),),
            ) as executor:
                outcomes = list(
                    executor.map(
                        _worker_arrays,
                        self.SPECS,
                        [u2_8.d] * len(self.SPECS),
                        [u2_8.side] * len(self.SPECS),
                    )
                )
        finally:
            store.unlink()
        for spec, (arrays, stats) in zip(self.SPECS, outcomes):
            serial = MetricContext(CurveSpec.parse(spec).make(u2_8))
            expected = (serial.flat_keys(), serial.order())
            for got, want in zip(arrays, expected):
                assert got.dtype == want.dtype
                assert np.array_equal(got, want), spec
            assert stats.shared == {"key_grid": 1}, spec
            assert stats.compute_count("key_grid") == 0, spec


class TestConcurrentAttach:
    def test_racing_gets_share_one_attachment(self, u2_8):
        """Concurrent get() must attach a segment exactly once.

        A racing second attach would drop one SharedMemory wrapper,
        whose teardown unmaps pages the surviving view still indexes —
        historically a worker segfault under per-cell threading.
        """
        import threading

        store = SharedGridStore.create()
        try:
            grid = ZCurve(u2_8).key_grid()
            key = shared_key(ZCurve(u2_8))
            store.put(key, "key_grid", grid)
            twin = SharedGridStore.attach(store.manifest())
            views = []
            barrier = threading.Barrier(8)

            def race():
                barrier.wait()
                views.append(twin.get(key, "key_grid"))

            workers = [
                threading.Thread(target=race) for _ in range(8)
            ]
            for w in workers:
                w.start()
            for w in workers:
                w.join()
            assert len({id(v) for v in views}) == 1  # one view object
            assert len(twin._segments) == 1  # one attachment
            for view in views:
                np.testing.assert_array_equal(view, grid)
            twin.close()
        finally:
            store.unlink()


requires_native = pytest.mark.skipif(
    not native.available(), reason="native kernels unavailable"
)

CODEC_CURVES = ["z", "hilbert", "spiral"]
CODEC_METRICS = ("davg", "dmax", "dilation:window=3")


def _published(u2_8, curves, **kwargs) -> SharedGridStore:
    """The segments a process sweep of ``curves`` would publish."""
    tasks, _ = Sweep(
        universes=[u2_8],
        curves=curves,
        metrics=CODEC_METRICS,
        reports=False,
        processes=2,
        **kwargs,
    )._plan()
    store, _ = _publish_shared(tasks)
    return store


@requires_native
class TestCodecCurvesNotShared:
    """Native-codec curves are neither published nor attached: a worker
    builds their grids faster than the parent copies them."""

    def test_codec_sweep_publishes_no_segment(self, u2_8):
        store = _published(u2_8, CODEC_CURVES)
        try:
            assert len(store) == 0
        finally:
            store.unlink()

    def test_numpy_backend_still_publishes(self, u2_8):
        store = _published(u2_8, CODEC_CURVES, backend="numpy")
        try:
            curves = [CurveSpec.parse(c).make(u2_8) for c in CODEC_CURVES]
            assert sorted(store.manifest()) == sorted(
                (shared_key(curve), "key_grid") for curve in curves
            )
        finally:
            store.unlink()

    def test_tables_not_published(self, u2_8):
        store = _published(
            u2_8, ["hilbert", "random:seed=3", "reversed:inner=random:seed=3"]
        )
        try:
            transform = CurveSpec.parse(
                "reversed:inner=random:seed=3"
            ).make(u2_8)
            # only the transform over the table, neither hilbert nor
            # the table itself
            assert list(store.manifest()) == [
                (shared_key(transform), "key_grid")
            ]
        finally:
            store.unlink()

    def test_transform_over_codec_curve_still_published(self, u2_8):
        # No codec encodes the transform itself, so it keeps its
        # segments; its exempt base publishes nothing, not even the
        # order workers derive the transform's order from.
        store = _published(u2_8, ["reversed:inner=hilbert"])
        try:
            transform = CurveSpec.parse("reversed:inner=hilbert").make(u2_8)
            assert list(store.manifest()) == [(shared_key(transform), "key_grid")]
        finally:
            store.unlink()

    def test_process_sweep_attaches_nothing(self, u2_8):
        before = shm_segments()
        result = Sweep(
            universes=[u2_8],
            curves=CODEC_CURVES,
            metrics=CODEC_METRICS,
            reports=False,
            processes=2,
        ).run()
        serial = Sweep(
            universes=[u2_8],
            curves=CODEC_CURVES,
            metrics=CODEC_METRICS,
            reports=False,
        ).run()
        assert result.records == serial.records
        assert result.cache_stats.total_shared == 0
        assert shm_segments() == before

    def test_pool_does_not_wire_codec_curves(self, u2_8):
        store = SharedGridStore.create()
        try:
            source = ZCurve(u2_8)
            store.put(shared_key(source), "key_grid", source.key_grid())
            ctx = ContextPool(shared_store=store).get(ZCurve(u2_8))
            assert ctx._grid_views == {}
            ctx.key_grid()
            assert ctx.stats.compute_count("key_grid") == 1
            assert ctx.stats.total_shared == 0
        finally:
            store.unlink()
