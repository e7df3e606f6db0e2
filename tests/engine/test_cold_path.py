"""The dense cold path: codec-built key grids, reference cycles, locks.

* A context on the native backend fills the curve's key grid through
  the batch codec; the grid must equal the pure-NumPy reference
  ``key_grid()`` of a fresh curve instance, byte for byte.
* Every native slab ``key_slab(lo, hi)`` equals the reference
  ``key_grid()[lo:hi]``, including slabs that cut through Hilbert's
  sub-cubes and the one-cell sub-cubes of d > 12.
* Per-cell arrays are released by reference counting: a dense plus a
  chunked sweep leaves no cyclic garbage for ``gc`` to find, on either
  backend.
* A threaded chunked sweep against a grid store completes, also when
  it maps its slabs from a committed grid (the store view used to wait
  on the lock the scalar compute held).
"""

from __future__ import annotations

import ctypes
import gc
import os
import subprocess
import sys
import textwrap
import threading

import numpy as np
import pytest

import repro
from repro.curves.registry import available_curves, make_curve
from repro.engine import native
from repro.engine.context import MetricContext
from repro.engine.sweep import Sweep
from repro.grid.universe import Universe

requires_native = pytest.mark.skipif(
    not native.available(),
    reason=f"native backend unavailable: {native.unavailable_reason()}",
)

#: 2D/3D universes with power-of-two and odd sides (odd sides have a
#: codec for the curves that take any side).
UNIVERSES = [(2, 16), (2, 64), (3, 8), (2, 9), (3, 5)]


def _codec_cases():
    cases = []
    for d, side in UNIVERSES:
        universe = Universe(d=d, side=side)
        for name in available_curves():
            try:
                curve = make_curve(name, universe)
            except ValueError:
                continue
            if native.encoder_for(curve) is not None:
                cases.append((name, d, side))
    return cases


class TestNativeKeyGridParity:
    @requires_native
    def test_every_codec_family_is_covered(self):
        names = {name for name, _, _ in _codec_cases()}
        assert names == {
            "diagonal", "gray", "hilbert", "moore", "simple", "snake",
            "spiral", "z",
        }
        odd = {name for name, _, side in _codec_cases() if side % 2}
        assert odd == {"diagonal", "simple", "snake", "spiral"}

    @requires_native
    @pytest.mark.parametrize("name,d,side", _codec_cases())
    def test_context_grid_equals_reference(self, name, d, side):
        universe = Universe(d=d, side=side)
        ctx = MetricContext(make_curve(name, universe), backend="native")
        assert ctx.backend == "native"
        grid = ctx.key_grid()
        reference = make_curve(name, universe).key_grid()
        assert grid.dtype == reference.dtype == np.int64
        assert grid.shape == reference.shape
        assert grid.flags["C_CONTIGUOUS"]
        assert np.array_equal(grid, reference)
        # The context owns the frozen grid; the curve retains none.
        assert not grid.flags.writeable
        assert ctx.curve._key_grid_cache is None

    @pytest.mark.parametrize("backend", ["numpy", "native", "auto"])
    def test_metrics_equal_across_backends(self, backend):
        universe = Universe(d=2, side=32)
        reference = MetricContext(
            make_curve("hilbert", universe), backend="numpy"
        )
        ctx = MetricContext(make_curve("hilbert", universe), backend=backend)
        assert np.array_equal(ctx.key_grid(), reference.key_grid())
        assert ctx.davg() == reference.davg()
        assert ctx.dmax() == reference.dmax()

    def test_numpy_context_keeps_reference_build(self, monkeypatch):
        universe = Universe(d=2, side=16)
        reference = make_curve("z", universe).key_grid()
        curve = make_curve("z", universe)

        def no_codec(*args, **kwargs):
            raise AssertionError("numpy backend must not batch-encode")

        monkeypatch.setattr(native._Codec, "encode", no_codec)
        monkeypatch.setattr(native._Codec, "key_slab", no_codec)
        grid = MetricContext(curve, backend="numpy").key_grid()
        assert np.array_equal(grid, reference)
        chunked = MetricContext(
            make_curve("z", universe), chunk_cells=48, backend="numpy"
        )
        slabs = [slab for _, _, slab in chunked.iter_key_slabs()]
        assert np.array_equal(np.concatenate(slabs), reference)

    def test_codec_less_curves_use_reference(self):
        for name, side in (("random", 8), ("peano", 9)):
            universe = Universe(d=2, side=side)
            assert native.encoder_for(make_curve(name, universe)) is None
            ctx = MetricContext(make_curve(name, universe), backend="auto")
            assert np.array_equal(
                ctx.key_grid(), make_curve(name, universe).key_grid()
            )


#: Slab parity universes: d = 1..6 with every k up to 2^18 cells, which
#: puts several Hilbert sub-cubes (side 2^(12 // d)) on every axis.
SLAB_CASES = [
    (d, k)
    for d in range(1, 7)
    for k in range(1, 19)
    if k * d <= 18
]


def _slab_spans(side):
    spans = [
        (0, side),
        (0, side // 2),
        (side // 2, side),
        (0, 1),
        (side - 1, side),
        (side // 3, side // 3 + 1),
        (1, side - 1),
    ]
    return [(lo, hi) for lo, hi in spans if lo < hi]


def _assert_slabs_match(name, universe):
    codec = native.encoder_for(make_curve(name, universe))
    assert codec is not None
    reference = make_curve(name, universe).key_grid()
    for lo, hi in _slab_spans(universe.side):
        slab = codec.key_slab(lo, hi)
        assert slab.dtype == np.int64 and slab.flags["C_CONTIGUOUS"]
        assert np.array_equal(slab, reference[lo:hi]), (lo, hi)


class TestNativeKeySlabs:
    @requires_native
    @pytest.mark.parametrize("name", ["z", "gray", "hilbert", "snake"])
    @pytest.mark.parametrize("d,k", SLAB_CASES)
    def test_slab_equals_reference_slice(self, name, d, k):
        _assert_slabs_match(name, Universe(d=d, side=2**k))

    @requires_native
    @pytest.mark.parametrize("d,side", [(1, 7), (2, 9), (3, 5), (4, 3)])
    def test_snake_odd_sides(self, d, side):
        _assert_slabs_match("snake", Universe(d=d, side=side))

    @requires_native
    def test_hilbert_beyond_twelve_dimensions(self):
        # 12 // 13 == 0: one-cell sub-cubes, every key from its corner.
        _assert_slabs_match("hilbert", Universe(d=13, side=2))

    @requires_native
    @pytest.mark.parametrize("lo,hi", [(-1, 2), (3, 2), (0, 9)])
    def test_rejects_spans_outside_the_axis(self, lo, hi):
        codec = native.encoder_for(make_curve("z", Universe(d=2, side=8)))
        with pytest.raises(ValueError, match="outside the axis range"):
            codec.key_slab(lo, hi)

    @requires_native
    def test_empty_span(self):
        curve = make_curve("hilbert", Universe(d=2, side=8))
        assert native.encoder_for(curve).key_slab(3, 3).shape == (0, 8)

    @requires_native
    @pytest.mark.parametrize("name", ["hilbert", "z", "gray", "snake"])
    def test_threaded_chunked_native_equals_numpy(self, name):
        universe = Universe(d=2, side=256)
        native_ctx = MetricContext(
            make_curve(name, universe),
            chunk_cells=96 * 256,
            threads=2,
            backend="native",
        )
        numpy_ctx = MetricContext(make_curve(name, universe), backend="numpy")
        slabs = [slab for _, _, slab in native_ctx.iter_key_slabs()]
        assert np.array_equal(np.concatenate(slabs), numpy_ctx.key_grid())
        assert native_ctx.davg() == numpy_ctx.davg()
        assert native_ctx.dmax() == numpy_ctx.dmax()
        assert native_ctx.nn_mean() == numpy_ctx.nn_mean()
        assert np.array_equal(
            native_ctx.lambda_sums(), numpy_ctx.lambda_sums()
        )


    @requires_native
    def test_threaded_fold_builds_slabs_on_the_calling_thread(
        self, monkeypatch
    ):
        calls = []
        original = native._Codec.key_slab

        def recording(codec, lo, hi):
            calls.append((hi - lo, threading.current_thread()))
            return original(codec, lo, hi)

        monkeypatch.setattr(native._Codec, "key_slab", recording)
        ctx = MetricContext(
            make_curve("hilbert", Universe(d=2, side=64)),
            chunk_cells=16 * 64,
            threads=2,
            backend="native",
        )
        ctx.davg()
        # Single boundary planes may still be read by a worker.
        slabs = [thread for rows, thread in calls if rows > 1]
        assert len(slabs) == 4
        assert all(t is threading.current_thread() for t in slabs)


class TestArgtypes:
    @requires_native
    @pytest.mark.parametrize(
        "bad",
        [
            np.arange(8, dtype=np.int32),
            np.arange(16, dtype=np.int64)[::2],
            list(range(8)),
        ],
    )
    def test_rejects_what_ndpointer_rejected(self, bad):
        lib = native.load_kernels()._lib
        good = np.arange(8, dtype=np.int64)
        with pytest.raises(ctypes.ArgumentError):
            lib.repro_delta_fold(bad, good, 8)

    @requires_native
    def test_native_calls_leave_no_cycles(self):
        kernels = native.load_kernels()
        a = np.arange(64, dtype=np.int64)
        b = a[::-1].copy()
        gc.collect()
        gc.disable()
        try:
            for _ in range(10):
                kernels.delta_fold(a, b)
            assert gc.collect() == 0
        finally:
            gc.enable()


def _dense_and_chunked(backend):
    Sweep(
        universes=[Universe(d=2, side=16), Universe(d=3, side=8)],
        curves=available_curves() + ["random:seed=3"],
        metrics=["davg", "dmax", "lower_bound", "davg_ratio", "lambdas",
                 "nn_mean"],
        reports=False,
        chunk_cells=0,
        backend=backend,
    ).run()
    Sweep(
        universes=[Universe(d=2, side=32)],
        curves=["hilbert", "z", "random:seed=1"],
        metrics=["davg", "dmax", "nn_mean"],
        reports=False,
        chunk_cells=64,
        backend=backend,
    ).run()


class TestNoReferenceCycles:
    @pytest.mark.parametrize("backend", ["numpy", "native"])
    def test_sweeps_leave_no_garbage(self, backend):
        if backend == "native" and not native.available():
            pytest.skip(f"native unavailable: {native.unavailable_reason()}")
        _dense_and_chunked(backend)  # first-use imports and caches
        gc.collect()
        gc.disable()
        try:
            _dense_and_chunked(backend)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestThreadedChunkedStore:
    def test_threaded_chunked_sweep_with_store_completes(self, tmp_path):
        script = textwrap.dedent(
            f"""
            from repro import Universe
            from repro.engine.sweep import Sweep

            def run(threads, chunk_cells=256):
                # NumPy backend: native codecs and tables are never
                # stored, so only a keyed spec exercises the mapped path.
                return Sweep(
                    universes=[Universe(d=2, side=64)],
                    curves=["hilbert", "reversed:inner=random:seed=2"],
                    metrics=["davg", "dmax", "nn_mean"],
                    reports=False,
                    chunk_cells=chunk_cells,
                    threads=threads,
                    backend="numpy",
                    store_dir={str(tmp_path / "store")!r},
                ).run().records

            assert run(2) == run(None)
            assert run(None, chunk_cells=0) == run(None)  # dense commit
            assert run(2) == run(None)  # again, slabs mapped from the store
            print("ok")
            """
        )
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "ok"
