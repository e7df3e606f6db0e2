"""Threaded-engine tests: bit-for-bit parity, scheduler, thread safety.

The contract mirrors the chunked mode's: every registered metric
computed by a threaded context — dense or chunked, any thread count,
any block size including non-divisors — must be **bit-for-bit equal**
to the serial dense path.  On top of that the machinery itself must be
safe to hammer: one ``ContextPool`` (and one context's LRU store) is
shared by all worker threads.
"""

import threading
import warnings

import numpy as np
import pytest

from repro import Universe
from repro.curves.random_curve import RandomCurve
from repro.curves.snake import SnakeCurve
from repro.curves.transforms import ReversedCurve
from repro.curves.zcurve import ZCurve
from repro.engine.context import MetricContext
from repro.engine.pool import ContextPool
from repro.engine.sweep import METRICS, MetricSpec, Sweep
from repro.engine.threads import (
    BlockScheduler,
    ScratchBuffers,
    resolve_threads,
)
from repro.grid.metrics import euclidean, manhattan

#: One spec per registered metric, as in test_chunked: a metric added
#: to the registry without threaded parity coverage fails loudly.
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

THREAD_COUNTS = (1, 2, 4)

#: Dense mode plus block sizes exercising single cells, non-divisors
#: of n=64, and a divisor.
CHUNK_MODES = (None, 1, 7, 16)


#: Window-fold edge cases ``(curve factory, window)``: a single pair
#: (``window = n - 1``, fewer pairs than ranges), pair counts that are
#: no multiple of the range count (59 pairs against 8 or 16 dense
#: ranges and 7-cell blocks), and d = 1 / d = 3.
WINDOW_CASES = (
    (lambda: ZCurve(Universe(d=2, side=8)), 63),
    (lambda: ZCurve(Universe(d=2, side=8)), 5),
    (lambda: SnakeCurve(Universe(d=1, side=17)), 3),
    (lambda: SnakeCurve(Universe(d=1, side=17)), 16),
    (lambda: ZCurve(Universe(d=3, side=4)), 2),
    (lambda: RandomCurve(Universe(d=3, side=4), seed=3), 63),
)
WINDOW_CASE_IDS = (
    "2d-one-pair", "2d-59-pairs", "1d-odd", "1d-one-pair", "3d",
    "3d-random-one-pair",
)


def test_every_registered_metric_is_covered():
    covered = {MetricSpec.parse(s).name for s in ALL_METRIC_SPECS}
    assert covered == set(METRICS)


class TestResolveThreads:
    def test_none_is_serial(self):
        assert resolve_threads(None) == 1

    def test_explicit_count(self):
        assert resolve_threads(5) == 5

    def test_auto_divides_cores_by_processes(self):
        assert resolve_threads("auto", processes=4, cores=8) == 2
        assert resolve_threads("auto", processes=3, cores=8) == 2
        assert resolve_threads("auto", processes=16, cores=8) == 1

    def test_auto_without_processes_uses_all_cores(self):
        assert resolve_threads("auto", cores=6) == 6

    @pytest.mark.parametrize("bad", (0, -1, 2.5, True, "all"))
    def test_invalid_specs_raise(self, bad):
        with pytest.raises(ValueError, match="threads"):
            resolve_threads(bad)

    def test_context_rejects_bad_threads(self, u2_8):
        with pytest.raises(ValueError, match="threads"):
            MetricContext(ZCurve(u2_8), threads=0)


class TestMetricParity:
    @pytest.mark.parametrize("spec", ALL_METRIC_SPECS)
    @pytest.mark.parametrize("threads", THREAD_COUNTS)
    def test_bit_for_bit_dense_2d(self, u2_8, spec, threads):
        fn = MetricSpec.parse(spec).bind()
        dense = fn(MetricContext(ZCurve(u2_8)))
        threaded = fn(MetricContext(ZCurve(u2_8), threads=threads))
        assert threaded == dense

    @pytest.mark.parametrize("chunk", CHUNK_MODES[1:])
    @pytest.mark.parametrize("threads", THREAD_COUNTS[1:])
    def test_bit_for_bit_chunked_2d(self, u2_8, chunk, threads):
        for spec in ALL_METRIC_SPECS:
            fn = MetricSpec.parse(spec).bind()
            dense = fn(MetricContext(ZCurve(u2_8)))
            ctx = MetricContext(
                ZCurve(u2_8), chunk_cells=chunk, threads=threads
            )
            assert fn(ctx) == dense

    @pytest.mark.parametrize("threads", THREAD_COUNTS[1:])
    def test_bit_for_bit_3d(self, u3_4, threads):
        for chunk in (None, 7):
            for spec in ("davg", "dmax", "lambdas", "nn_mean", "dilation:window=2"):
                fn = MetricSpec.parse(spec).bind()
                ctx = MetricContext(
                    ZCurve(u3_4), chunk_cells=chunk, threads=threads
                )
                assert fn(ctx) == fn(MetricContext(ZCurve(u3_4)))

    def test_bit_for_bit_1d_odd_side(self):
        u = Universe(d=1, side=17)
        dense = MetricContext(SnakeCurve(u))
        for threads in (2, 4):
            for chunk in (None, 5):
                ctx = MetricContext(
                    SnakeCurve(u), chunk_cells=chunk, threads=threads
                )
                assert ctx.davg() == dense.davg()
                assert ctx.dmax() == dense.dmax()
                assert np.array_equal(
                    ctx.lambda_sums(), dense.lambda_sums()
                )

    def test_larger_universe_awkward_blocks(self):
        # Hammer the order-sensitive D^avg merge where pairwise-sum
        # leaf boundaries and block boundaries interleave awkwardly.
        u = Universe(d=2, side=64)
        dense = MetricContext(ZCurve(u))
        for threads in (2, 4):
            for chunk in (None, 13, 1000, 4097):
                ctx = MetricContext(
                    ZCurve(u), chunk_cells=chunk, threads=threads
                )
                assert ctx.davg() == dense.davg()
                assert ctx.dmax() == dense.dmax()
                assert ctx.nn_mean() == dense.nn_mean()

    @pytest.mark.parametrize("metric", ("manhattan", "euclidean"))
    @pytest.mark.parametrize("backend", ("numpy", "native"))
    @pytest.mark.parametrize("chunk", CHUNK_MODES)
    @pytest.mark.parametrize("threads", THREAD_COUNTS)
    @pytest.mark.parametrize(
        "make, window", WINDOW_CASES, ids=WINDOW_CASE_IDS
    )
    def test_window_edge_cases(
        self, make, window, threads, chunk, backend, metric
    ):
        path = make().order()
        fn = manhattan if metric == "manhattan" else euclidean
        expected = fn(path[:-window], path[window:]).max()
        with warnings.catch_warnings():
            # A host without a C compiler degrades to NumPy.
            warnings.simplefilter("ignore", RuntimeWarning)
            ctx = MetricContext(
                make(), chunk_cells=chunk, threads=threads, backend=backend
            )
        assert ctx.window_dilation(window, metric) == expected

    def test_table_backed_curve(self, u2_8):
        dense = MetricContext(RandomCurve(u2_8, seed=5))
        threaded = MetricContext(RandomCurve(u2_8, seed=5), threads=4)
        assert threaded.davg() == dense.davg()
        assert threaded.dmax() == dense.dmax()

    def test_degenerate_universes_stay_defined(self):
        for d in (1, 2, 3):
            ctx = MetricContext(
                ZCurve(Universe(d=d, side=1)), threads=4
            )
            assert ctx.davg() == 0.0
            assert ctx.dmax() == 0.0
            assert ctx.nn_mean() == 0.0
            assert ctx.davg_ratio() == 1.0

    def test_side_two_more_ranges_than_planes(self):
        # threads * oversubscription >> side: ranges degenerate to one
        # plane each, every pair is a boundary pair.
        u = Universe(d=2, side=2)
        dense = MetricContext(ZCurve(u))
        ctx = MetricContext(ZCurve(u), threads=4)
        assert ctx.davg() == dense.davg()
        assert ctx.dmax() == dense.dmax()

    def test_threaded_reversed_curve_derives_blocks(self, u2_8):
        # Chunked + threaded + pool derivation compose: slabs (and the
        # uncached boundary planes) come from the derivation rules.
        pool = ContextPool(chunk_cells=16, threads=2)
        ctx = pool.get(ReversedCurve(ZCurve(u2_8)))
        reference = MetricContext(ReversedCurve(ZCurve(u2_8)))
        assert ctx.davg() == reference.davg()
        assert ctx.threads == 2
        slab_computes = sum(
            count
            for key, count in ctx.stats.computes.items()
            if key.startswith("key_slab")
        )
        assert slab_computes == 0


class TestBlockScheduler:
    def test_results_in_submission_order(self):
        sched = BlockScheduler(threads=4)
        try:
            import time

            def make(i):
                def run():
                    # Reverse sleep: late tasks finish first.
                    time.sleep(0.001 * (20 - i) if i < 20 else 0)
                    return i

                return run

            assert sched.map([make(i) for i in range(40)]) == list(
                range(40)
            )
        finally:
            sched.close()

    def test_exception_propagates_at_position(self):
        sched = BlockScheduler(threads=2)
        try:
            def boom():
                raise RuntimeError("block failed")

            results = []
            with pytest.raises(RuntimeError, match="block failed"):
                for value in sched.imap(
                    [lambda: 1, boom, lambda: 3]
                ):
                    results.append(value)
            assert results == [1]
        finally:
            sched.close()

    def test_serial_scheduler_runs_inline(self):
        sched = BlockScheduler(threads=1)
        thread_ids = set()

        def task():
            thread_ids.add(threading.get_ident())
            return 1

        assert sched.map([task, task]) == [1, 1]
        assert thread_ids == {threading.get_ident()}
        assert sched._executor is None  # never created

    def test_invalid_thread_count(self):
        with pytest.raises(ValueError, match="threads"):
            BlockScheduler(threads=0)

    def test_scratch_is_per_thread_and_reused(self):
        sched = BlockScheduler(threads=2)
        try:
            a = sched.scratch()
            assert sched.scratch() is a  # same thread -> same buffers
            others = sched.map(
                [lambda: id(sched.scratch()) for _ in range(8)]
            )
            assert id(a) not in others  # workers never share ours
        finally:
            sched.close()

    def test_scratch_buffers_reuse_backing(self):
        scratch = ScratchBuffers()
        first = scratch.take("x", (8, 4), np.int64)
        first[...] = 7
        again = scratch.take("x", (8, 4), np.int64)
        assert again.base is first.base
        smaller = scratch.take("x", (3, 2), np.int64)
        assert smaller.base is first.base  # prefix view, no realloc
        grown = scratch.take("x", (64,), np.int64)
        assert grown.size == 64
        assert scratch.take("f", (4,), np.float64).dtype == np.float64


class TestThreadSafety:
    def test_context_pool_hammered_from_many_threads(self, u2_8):
        """Many threads race one pool: one context per spec, exact values."""
        pool = ContextPool(max_bytes=1 << 16)
        reference = {
            "z": MetricContext(ZCurve(u2_8)),
            "rev": MetricContext(ReversedCurve(ZCurve(u2_8))),
        }
        expected = {
            name: (ctx.davg(), ctx.dmax(), ctx.nn_mean())
            for name, ctx in reference.items()
        }
        errors = []
        barrier = threading.Barrier(8)

        def hammer(worker: int):
            try:
                barrier.wait()
                for _ in range(5):
                    for name, make in (
                        ("z", lambda: ZCurve(u2_8)),
                        ("rev", lambda: ReversedCurve(ZCurve(u2_8))),
                    ):
                        ctx = pool.get(make())
                        got = (ctx.davg(), ctx.dmax(), ctx.nn_mean())
                        if got != expected[name]:
                            errors.append((worker, name, got))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append((worker, "exception", repr(exc)))

        workers = [
            threading.Thread(target=hammer, args=(i,)) for i in range(8)
        ]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        assert errors == []
        # Equivalent specs collapsed to one context each (z, its
        # reversed wrapper, and the transitively created inner share).
        assert len(pool) == 2

    def test_lru_store_hammered_under_tiny_budget(self, u2_8):
        """Concurrent slab iteration under eviction stays correct."""
        dense = MetricContext(ZCurve(u2_8))
        ctx = MetricContext(ZCurve(u2_8), chunk_cells=8, max_bytes=256)
        expected = dense.key_grid()
        errors = []
        barrier = threading.Barrier(6)

        def hammer(worker: int):
            try:
                barrier.wait()
                for _ in range(3):
                    parts = [s for _, _, s in ctx.iter_key_slabs()]
                    if not np.array_equal(
                        np.concatenate(parts), expected
                    ):
                        errors.append((worker, "mismatch"))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append((worker, repr(exc)))

        workers = [
            threading.Thread(target=hammer, args=(i,)) for i in range(6)
        ]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        assert errors == []
        assert ctx.cache_bytes <= 256

    def test_scalar_memo_computes_once_under_contention(self, u2_8):
        ctx = MetricContext(ZCurve(u2_8), threads=2)
        values = []
        barrier = threading.Barrier(4)

        def hammer():
            barrier.wait()
            values.append(ctx.davg())

        workers = [threading.Thread(target=hammer) for _ in range(4)]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        assert len(set(values)) == 1
        assert values[0] == MetricContext(ZCurve(u2_8)).davg()


class TestSweepThreads:
    def test_serial_threaded_sweep_matches_serial(self, u2_8):
        metrics = ("davg", "dmax", "nn_mean", "dilation:window=3")
        base = Sweep(
            universes=[u2_8],
            curves=["z", "hilbert"],
            metrics=metrics,
            reports=False,
        ).run()
        threaded = Sweep(
            universes=[u2_8],
            curves=["z", "hilbert"],
            metrics=metrics,
            reports=False,
            threads=2,
        ).run()
        assert threaded.records == base.records
        assert threaded.cache_stats.total_computes > 0

    def test_processes_threads_shared_compose(self, u2_8):
        """Acceptance: Sweep(processes=P, threads=T, shared=True)."""
        metrics = ("davg", "dmax", "nn_mean", "dilation:window=3")
        curves = ["z", "hilbert", "reversed:inner=hilbert"]
        serial = Sweep(
            universes=[u2_8], curves=curves, metrics=metrics, reports=False
        ).run()
        combo = Sweep(
            universes=[u2_8],
            curves=curves,
            metrics=metrics,
            reports=False,
            processes=2,
            threads=2,
            shared=True,
            # NumPy backend: native codecs would exempt these curves.
            backend="numpy",
        ).run()
        assert combo.records == serial.records
        stats = combo.cache_stats
        # Worker threading under the shm layer: grids resolved shared,
        # each cell's curve order scattered from its shared grid, and
        # the aggregate counters still carry every worker's traffic.
        assert stats.shared == {"key_grid": len(curves)}
        assert stats.compute_count("order") == len(curves)
        assert stats.hits > 0 and stats.total_computes > 0

    def test_chunked_threaded_sweep(self, u2_8):
        base = Sweep(
            universes=[u2_8],
            curves=["z"],
            metrics=("davg", "nn_mean"),
            reports=False,
            chunk_cells=8,
        ).run()
        threaded = Sweep(
            universes=[u2_8],
            curves=["z"],
            metrics=("davg", "nn_mean"),
            reports=False,
            chunk_cells=8,
            threads=4,
        ).run()
        assert threaded.records == base.records

    def test_invalid_threads_fail_at_plan_time(self, u2_8):
        with pytest.raises(ValueError, match="threads"):
            Sweep(
                universes=[u2_8],
                curves=["z"],
                metrics=("davg",),
                threads=-2,
            ).run()

    def test_pool_passes_threads_through(self, u2_8):
        pool = ContextPool(threads=3)
        assert pool.get(ZCurve(u2_8)).threads == 3


class TestKeyReadsUnderBudget:
    """A budget that cannot keep the key grid must not build it twice:
    the NN fold's pre-resolve is skipped when the store would drop it."""

    SIDE = 64

    def _planes(self, monkeypatch, **kwargs) -> int:
        from repro.curves.hilbert import HilbertCurve

        universe = Universe(d=2, side=self.SIDE)
        expected = MetricContext(HilbertCurve(universe)).davg()
        planes = [0]
        build = MetricContext._key_slab_values

        def counting(ctx, lo, hi):
            planes[0] += hi - lo
            return build(ctx, lo, hi)

        monkeypatch.setattr(MetricContext, "_key_slab_values", counting)
        assert MetricContext(HilbertCurve(universe), **kwargs).davg() == (
            expected
        )
        return planes[0]

    @pytest.mark.parametrize("backend", ["numpy", "auto"])
    def test_serial_zero_budget_builds_each_plane_once(
        self, monkeypatch, backend
    ):
        planes = self._planes(monkeypatch, max_bytes=0, backend=backend)
        assert planes == self.SIDE

    @pytest.mark.parametrize("backend", ["numpy", "auto"])
    def test_threaded_zero_budget_builds_ranges_not_grids(
        self, monkeypatch, backend
    ):
        # Each range builds its own planes plus its boundary planes;
        # a pre-resolved whole grid would add SIDE more.
        planes = self._planes(
            monkeypatch, max_bytes=0, threads=2, backend=backend
        )
        assert self.SIDE <= planes < 2 * self.SIDE

    def test_default_budget_still_resolves_once(self, monkeypatch):
        assert self._planes(monkeypatch, threads=2) == self.SIDE


class TestFoldReadsOnCallingThread:
    """The threaded NN fold resolves every key read — each range's
    planes and its two boundary planes — in the calling thread, so no
    canonical slab is built (and cached) in a worker.  With one plane
    per slab every boundary plane is itself a canonical slab."""

    @staticmethod
    def _off_main_builds(ctx) -> list:
        """Spy on ``ctx``'s store: keys whose value a worker builds."""
        built = []
        get_or_compute = ctx._store.get_or_compute

        def spy(key, compute, *args, **kwargs):
            def traced():
                if threading.current_thread() is not threading.main_thread():
                    built.append(key)
                return compute()

            return get_or_compute(key, traced, *args, **kwargs)

        ctx._store.get_or_compute = spy
        return built

    @pytest.mark.parametrize("backend", ["numpy", "native"])
    def test_no_slab_is_built_off_the_main_thread(self, backend):
        from repro.curves.hilbert import HilbertCurve

        universe = Universe(d=2, side=64)
        curve = HilbertCurve(universe)
        ctx = MetricContext(curve, chunk_cells=64, threads=2, backend=backend)
        built = self._off_main_builds(ctx)
        assert ctx.davg() == MetricContext(curve, backend=backend).davg()
        assert ctx.stats.compute_count("key_slab[0:1]") == 1
        assert built == []

    @pytest.mark.parametrize("backend", ["numpy", "native"])
    def test_transform_base_slabs_stay_on_the_main_thread(self, backend):
        from repro.curves.hilbert import HilbertCurve

        universe = Universe(d=2, side=64)
        inner = HilbertCurve(universe)
        pool = ContextPool(chunk_cells=64, threads=2, backend=backend)
        base = pool.get(inner)
        ctx = pool.get(ReversedCurve(inner))
        built = self._off_main_builds(ctx), self._off_main_builds(base)
        dense = MetricContext(ReversedCurve(inner), backend=backend)
        assert ctx.davg() == dense.davg()
        assert ctx.stats.total_derived > 0
        assert built == ([], [])
