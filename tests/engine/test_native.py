"""The native compiled-kernel backend: parity, fallback, batch API.

The backend contract is *bit-for-bit identity*: every metric value and
every key computed through the C kernels must equal the pure-NumPy
reference exactly (``==``, never ``approx``).  These tests exercise

* encode/decode parity for **every** registry curve (including
  non-power-of-two sides, degenerate ``side=1`` grids and transform
  wrappers) against the independent :meth:`index`/:meth:`coords`
  implementations;
* the metric parity matrix {dense, threaded dense, chunked, threaded,
  one plane per chunk} x {numpy, native} on d = 1 to 5, and the fused
  native range kernel against the NumPy range kernel, range by range;
* the range kernel on every ``(lo, hi)`` range of grids long enough to
  run its vector loop, on the per-CPU cloned build and on one without
  clones;
* backend resolution, ``REPRO_NATIVE=0``, and the warn-once fallback
  when ``backend="native"`` cannot be honored.

Native-only assertions skip cleanly on hosts without a C compiler —
the degradation path itself is tested unconditionally.
"""

from __future__ import annotations

import ctypes
import os
import warnings

import numpy as np
import pytest

from repro.curves.registry import curves_for_universe
from repro.engine import native
from repro.engine.context import MetricContext
from repro.engine.sweep import CurveSpec, Sweep
from repro.grid.universe import Universe

requires_native = pytest.mark.skipif(
    not native.available(),
    reason=f"native backend unavailable: {native.unavailable_reason()}",
)


@pytest.fixture
def fresh_native(monkeypatch):
    """Reset the module's memoized load/warn state around a test."""
    native.reset_for_tests()
    yield monkeypatch
    native.reset_for_tests()


# ----------------------------------------------------------------------
# Backend resolution and graceful degradation
# ----------------------------------------------------------------------
class TestResolveBackend:
    def test_numpy_always_resolves_to_numpy(self):
        assert native.resolve_backend("numpy") == "numpy"

    def test_none_means_auto(self):
        assert native.resolve_backend(None) in ("numpy", "native")

    def test_unknown_backend_raises(self):
        with pytest.raises(ValueError, match="backend must be one of"):
            native.resolve_backend("fortran")

    @requires_native
    def test_auto_prefers_native_when_available(self):
        assert native.resolve_backend("auto") == "native"
        assert native.resolve_backend("native") == "native"

    def test_repro_native_0_disables(self, fresh_native):
        fresh_native.setenv("REPRO_NATIVE", "0")
        assert not native.available()
        assert "REPRO_NATIVE=0" in native.unavailable_reason()
        assert native.resolve_backend("auto") == "numpy"

    def test_missing_compiler_warns_once_not_per_cell(self, fresh_native):
        fresh_native.setenv("REPRO_NATIVE_CC", "/nonexistent/compiler")
        assert not native.available()
        with pytest.warns(RuntimeWarning, match="repro doctor"):
            assert native.resolve_backend("native") == "numpy"
        # Every later resolution — e.g. one per sweep cell — is silent.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(5):
                assert native.resolve_backend("native") == "numpy"

    def test_auto_never_warns_when_unavailable(self, fresh_native):
        fresh_native.setenv("REPRO_NATIVE_CC", "/nonexistent/compiler")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert native.resolve_backend("auto") == "numpy"

    def test_context_degrades_to_numpy(self, fresh_native, u2_8):
        """A backend='native' context on a compilerless host computes
        (NumPy) values instead of failing."""
        fresh_native.setenv("REPRO_NATIVE_CC", "/nonexistent/compiler")
        curve = CurveSpec.parse("hilbert").make(u2_8)
        with pytest.warns(RuntimeWarning, match="falling back"):
            ctx = MetricContext(curve, backend="native")
        assert ctx.backend == "numpy"
        assert ctx.kernels is None
        reference = MetricContext(curve, backend="numpy")
        assert ctx.davg() == reference.davg()

    def test_build_info_is_reportable(self):
        info = native.build_info()
        assert set(info) >= {
            "available",
            "disabled",
            "compiler",
            "cache_dir",
            "so_path",
            "build_log",
            "reason",
        }
        assert isinstance(info["available"], bool)


# ----------------------------------------------------------------------
# Batch encode/decode parity: every registry curve, awkward geometries
# ----------------------------------------------------------------------
PARITY_UNIVERSES = [
    Universe(d=2, side=8),
    Universe(d=3, side=4),
    Universe(d=2, side=7),  # non-power-of-two
    Universe(d=3, side=5),  # non-power-of-two, odd
    Universe(d=2, side=1),  # degenerate single cell
    Universe(d=1, side=16),
]


class TestBatchCodecParity:
    @pytest.mark.parametrize(
        "universe", PARITY_UNIVERSES, ids=lambda u: f"{u.d}x{u.side}"
    )
    def test_every_registry_curve_round_trips(self, universe):
        """keys_of/coords_of equal index/coords for every curve that
        instantiates on the universe — native codec or NumPy fallback,
        the caller cannot tell."""
        cells = universe.all_coords()
        for name, curve in curves_for_universe(universe).items():
            for backend in ("numpy", "native", "auto"):
                keys = curve.keys_of(cells, backend=backend)
                assert keys.dtype == np.int64, (name, backend)
                np.testing.assert_array_equal(
                    keys, curve.index(cells), err_msg=f"{name}/{backend}"
                )
                coords = curve.coords_of(keys, backend=backend)
                np.testing.assert_array_equal(
                    coords, cells, err_msg=f"{name}/{backend}"
                )

    @pytest.mark.parametrize(
        "universe", PARITY_UNIVERSES, ids=lambda u: f"{u.d}x{u.side}"
    )
    def test_key_grid_parity(self, universe):
        """The batch encoder reproduces the dense reference key grid."""
        cells = universe.all_coords()
        for name, curve in curves_for_universe(universe).items():
            grid = np.ascontiguousarray(
                curve.keys_of(cells, backend="native").reshape(
                    universe.shape, order="F"
                )
            )
            np.testing.assert_array_equal(
                grid, curve.key_grid(), err_msg=name
            )

    def test_transform_curve_routes_through_inner(self, u2_8):
        """A transform wrapper (no native codec of its own) batch-encodes
        via its inner curve's codec and stays exact."""
        curve = CurveSpec.parse("reversed:inner=hilbert").make(u2_8)
        cells = u2_8.all_coords()
        np.testing.assert_array_equal(
            curve.keys_of(cells, backend="native"), curve.index(cells)
        )
        np.testing.assert_array_equal(
            curve.coords_of(curve.index(cells), backend="native"), cells
        )

    @requires_native
    def test_native_codec_actually_engages(self, u2_8):
        """Guard against silently falling back everywhere: the four
        analytic families do get a codec on a pow-2 grid."""
        for spec in ("z", "gray", "hilbert", "snake"):
            curve = CurveSpec.parse(spec).make(u2_8)
            assert native.encoder_for(curve) is not None, spec

    @requires_native
    def test_degenerate_and_unsupported_get_no_codec(self):
        u_one = Universe(d=2, side=1)
        for name, curve in curves_for_universe(u_one).items():
            assert native.encoder_for(curve) is None, name


# ----------------------------------------------------------------------
# Metric parity matrix: {dense, threaded dense, chunked, threaded,
# one plane per chunk} x {numpy, native}
# ----------------------------------------------------------------------
MATRIX_SPECS = ("hilbert", "z", "snake")
#: Every specialisation of the fused range kernel ``repro_nn_range``:
#: d = 1, the unrolled d = 2 and 3 line loops and the generic d >= 4.
MATRIX_UNIVERSES = [
    Universe(d=1, side=9),
    Universe(d=2, side=8),
    Universe(d=2, side=9),
    Universe(d=3, side=4),
    Universe(d=3, side=5),
    Universe(d=4, side=3),
    Universe(d=5, side=2),
]
#: (universe, spec) pairs whose curve constructs: Hilbert and Z need
#: power-of-two sides, snake runs everywhere.
MATRIX_CASES = [
    pytest.param(universe, spec, id=f"{universe.d}x{universe.side}-{spec}")
    for universe in MATRIX_UNIVERSES
    for spec in MATRIX_SPECS
    if spec in curves_for_universe(universe)
]


def _matrix_kwargs(mode: str, universe: Universe) -> dict:
    """Context options of a parity-matrix mode."""
    plane = universe.side ** (universe.d - 1)
    return {
        "dense": {},
        "dense_threaded": {"threads": 2},
        "chunked": {"chunk_cells": 17},  # awkward block size on purpose
        "threaded": {"chunk_cells": 17, "threads": 3},
        # One plane per range: every inner range reads both a
        # ``below`` and an ``above`` boundary plane.
        "plane": {"chunk_cells": plane},
    }[mode]


def _metric_values(ctx: MetricContext) -> dict:
    return {
        "davg": ctx.davg(),
        "dmax": ctx.dmax(),
        "lambdas": ctx.lambda_sums().tolist(),
        "nn_mean": ctx.nn_mean(),
        "dilation3_man": ctx.window_dilation(3, metric="manhattan"),
        "dilation3_euc": ctx.window_dilation(3, metric="euclidean"),
    }


@requires_native
class TestMetricParityMatrix:
    @pytest.mark.parametrize("universe, spec", MATRIX_CASES)
    @pytest.mark.parametrize(
        "mode",
        ["dense", "dense_threaded", "chunked", "threaded", "plane"],
    )
    def test_native_equals_numpy_exactly(self, universe, spec, mode):
        kwargs = _matrix_kwargs(mode, universe)
        curve = CurveSpec.parse(spec).make(universe)
        got = _metric_values(
            MetricContext(curve, backend="native", **kwargs)
        )
        want = _metric_values(
            MetricContext(curve, backend="numpy", **kwargs)
        )
        # Exact equality, floats included: both backends return the
        # same int64 partials and divide them once in Python.
        assert got == want

    @pytest.mark.parametrize("layout", ["fortran", "transposed"])
    @pytest.mark.parametrize("mode", ["dense", "dense_threaded"])
    def test_key_grid_in_any_memory_order(self, layout, mode):
        """A permutation curve built from an F-ordered or transposed key
        grid: its key slabs reach the kernels by address, so they must
        be C-contiguous whatever order the caller's array was in."""
        from repro.curves.base import PermutationCurve
        from repro.curves.zcurve import ZCurve

        universe = Universe(d=3, side=4)
        grid = ZCurve(universe).key_grid()
        key_grid = {"fortran": np.asfortranarray(grid), "transposed": grid.T}
        curve = PermutationCurve(universe, key_grid=key_grid[layout])
        kwargs = _matrix_kwargs(mode, universe)
        got = _metric_values(
            MetricContext(curve, backend="native", **kwargs)
        )
        want = _metric_values(
            MetricContext(curve, backend="numpy", **kwargs)
        )
        assert got == want

    @pytest.mark.parametrize("universe, spec", MATRIX_CASES)
    @pytest.mark.parametrize("mode", ["dense_threaded", "chunked", "plane"])
    def test_range_kernel_matches_numpy_per_range(self, universe, spec, mode):
        """Every fold range: the fused native task returns the NumPy
        task's class totals, Λ partials and Σ max exactly."""
        from repro.engine.chunked import _nn_range_kernel, fold_ranges
        from repro.engine.threads import ScratchBuffers

        kwargs = _matrix_kwargs(mode, universe)
        curve = CurveSpec.parse(spec).make(universe)
        nat = MetricContext(curve, backend="native", **kwargs)
        ref = MetricContext(curve, backend="numpy", **kwargs)
        assert nat.kernels is not None and ref.kernels is None
        ranges = fold_ranges(nat)
        assert ranges == fold_ranges(ref)
        for lo, hi in ranges:
            got = _nn_range_kernel(nat, lo, hi, ScratchBuffers())
            want = _nn_range_kernel(ref, lo, hi, ScratchBuffers())
            assert len(got[0]) == universe.d + 1
            assert got == want, (lo, hi)

    def test_nn_range_refuses_mismatched_buffers(self):
        """The C kernel trusts its sizes, so the wrapper checks them."""
        kernels = native.load_kernels()
        body = np.zeros((2, 4), dtype=np.int64)
        plane = np.zeros((1, 4), dtype=np.int64)
        with pytest.raises(ValueError, match="whole planes"):
            kernels.nn_range(body[:, :3].copy(), None, None, 4, 2)
        with pytest.raises(ValueError, match="one plane"):
            kernels.nn_range(body, body, None, 4, 2)
        with pytest.raises(ValueError, match="side >= 2"):
            kernels.nn_range(body[:, :1].copy(), None, None, 1, 2)
        with pytest.raises(ctypes.ArgumentError, match="int64"):
            kernels.nn_range(body, plane.astype(np.int32), None, 4, 2)
        assert kernels.nn_range(body, plane, None, 4, 2) == (
            [0, 0, 0], [0, 0], 0
        )

    def test_native_range_kernel_takes_no_scratch(self, u2_8):
        """The fused kernel returns its totals directly: no int64 sums,
        maxima or counts scratch grids, unlike the NumPy reference."""
        from repro.engine.chunked import _nn_range_kernel
        from repro.engine.threads import ScratchBuffers

        curve = CurveSpec.parse("hilbert").make(u2_8)
        for backend, used in (("native", False), ("numpy", True)):
            ctx = MetricContext(curve, backend=backend, chunk_cells=16)
            scratch = ScratchBuffers()
            _nn_range_kernel(ctx, 2, 4, scratch)
            assert (scratch.nbytes > 0) is used, backend

    def test_dense_native_matches_dense_numpy_per_cell_grids(self, u2_8):
        curve = CurveSpec.parse("hilbert").make(u2_8)
        nat = MetricContext(curve, backend="native")
        ref = MetricContext(curve, backend="numpy")
        np.testing.assert_array_equal(
            nat.per_cell_stretch_sums()[0], ref.per_cell_stretch_sums()[0]
        )
        np.testing.assert_array_equal(
            nat.per_cell_max_stretch(), ref.per_cell_max_stretch()
        )
        np.testing.assert_array_equal(
            nat.neighbor_counts(), ref.neighbor_counts()
        )


# ----------------------------------------------------------------------
# The range kernel over every (lo, hi) range, on both builds
# ----------------------------------------------------------------------
class _GridKeys:
    """The key reads of a NumPy-backend context over any int64 grid:
    all :func:`repro.engine.chunked._nn_range_kernel` needs, without a
    curve (the synthetic keys below are no permutation)."""

    kernels = None

    def __init__(self, grid: np.ndarray) -> None:
        self.universe = Universe(d=grid.ndim, side=grid.shape[0])
        self._grid = grid

    def _key_slab(self, lo: int, hi: int) -> np.ndarray:
        return self._grid[lo:hi]


def _harness_grids(d: int, side: int):
    """A permutation key grid and one of keys above 2^53 whose spread
    keeps every class total of a whole-grid range below 2^63 (the
    envelope ``cells · 2d · max|Δ|`` of ``check_fold_envelope``)."""
    rng = np.random.default_rng(side * 10 + d)
    n = side**d
    spread = (2**63 - 1) // (2 * d * n)
    yield rng.permutation(n).astype(np.int64).reshape((side,) * d)
    big = rng.integers(2**53, 2**53 + spread, size=n, dtype=np.int64)
    yield big.reshape((side,) * d)


#: (d, side) of the harness: every 2D and 3D line length up to 38 and
#: 10 inner cells (the 8-lane vector body and its epilogue), and spot
#: checks of d = 1 and the generic d >= 4 loop.
HARNESS_CASES = (
    [(2, side) for side in range(2, 41)]
    + [(3, side) for side in range(2, 13)]
    + [(1, 2), (1, 17), (4, 3), (4, 4), (5, 2), (5, 3)]
)


@pytest.fixture(scope="module")
def clone_free_kernels(tmp_path_factory):
    """The kernels built without the per-CPU clones: the ``default``
    path, tested on any host."""
    out = tmp_path_factory.mktemp("clone-free") / "repro_kernels.so"
    native.compile_kernels(
        native.compiler_path(),
        native.compile_flags() + ["-DREPRO_NO_CLONES"],
        out,
    )
    return native.NativeKernels(out)


@requires_native
class TestRangeKernelHarness:
    """``repro_nn_range`` against the NumPy range kernel on every
    ``(lo, hi)`` range of each grid, boundary planes included: class
    totals, Λ and Σ max exactly."""

    @pytest.fixture(params=["cloned", "clone-free"])
    def kernels(self, request, clone_free_kernels):
        if request.param == "cloned":
            return native.load_kernels()
        assert clone_free_kernels.fold_clone() == "n/a"
        return clone_free_kernels

    @pytest.mark.parametrize("d, side", HARNESS_CASES)
    def test_every_range_matches_numpy(self, kernels, d, side):
        from repro.engine.chunked import _nn_range_kernel
        from repro.engine.threads import ScratchBuffers

        scratch = ScratchBuffers()
        for grid in _harness_grids(d, side):
            ref = _GridKeys(grid)
            for lo in range(side):
                below = grid[lo - 1 : lo] if lo > 0 else None
                for hi in range(lo + 1, side + 1):
                    above = grid[hi : hi + 1] if hi < side else None
                    got = kernels.nn_range(
                        grid[lo:hi], below, above, side, d
                    )
                    want = _nn_range_kernel(ref, lo, hi, scratch)
                    assert got == want, (lo, hi)

    def test_fold_clone_names_a_level(self):
        assert native.load_kernels().fold_clone() in (
            "x86-64-v4", "default", "n/a"
        )

    def test_doctor_names_the_fold_clone(self, capsys):
        from repro.cli import main

        assert main(["doctor"]) == 0
        lines = capsys.readouterr().out.splitlines()
        clone = native.load_kernels().fold_clone()
        assert f"  fold clone: {clone}" in lines


# ----------------------------------------------------------------------
# Sweep integration: backend knob, per-cell backend accounting
# ----------------------------------------------------------------------
class TestSweepBackend:
    def test_invalid_backend_fails_at_plan_time(self):
        with pytest.raises(ValueError, match="backend"):
            Sweep(dims=[2], sides=[4], backend="cuda").run()

    def test_backend_parity_across_sweeps(self):
        base = dict(
            dims=[2],
            sides=[8],
            curves=["z", "hilbert", "reversed:inner=hilbert"],
            metrics=["davg", "dmax", "nn_mean", "lambdas"],
            reports=False,
        )
        numpy_run = Sweep(backend="numpy", **base).run()
        native_run = Sweep(backend="native", **base).run()
        for a, b in zip(numpy_run.records, native_run.records):
            assert a.spec == b.spec
            assert a.values == b.values  # exact, floats included

    def test_stats_record_serving_backend(self):
        result = Sweep(
            dims=[2], sides=[8], curves=["z"], metrics=["davg"],
            reports=False, backend="numpy",
        ).run()
        assert result.cache_stats.backends == {"numpy": 1}

    @requires_native
    def test_stats_record_native_cells(self):
        result = Sweep(
            dims=[2], sides=[8], curves=["z", "hilbert"],
            metrics=["davg"], reports=False, backend="native",
        ).run()
        assert result.cache_stats.backends == {"native": 2}


# ----------------------------------------------------------------------
# Build pipeline hygiene
# ----------------------------------------------------------------------
@requires_native
class TestBuildPipeline:
    def test_so_and_build_log_exist(self):
        info = native.build_info()
        assert os.path.exists(info["so_path"])
        assert os.path.exists(info["build_log"])

    def test_flags_key_the_build_dir(self, monkeypatch):
        cc = native.compiler_path()
        flags = native.compile_flags(None)
        assert "-O3" in flags and "-ffp-contract=off" in flags
        current = native._build_dir(cc, None)
        older = [flag if flag != "-O3" else "-O2" for flag in flags]
        monkeypatch.setattr(native, "compile_flags", lambda spec: older)
        assert native._build_dir(cc, None) != current

    def test_cache_dir_override(self, fresh_native, tmp_path):
        fresh_native.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
        assert native.available()
        assert str(native.build_info()["so_path"]).startswith(str(tmp_path))


# ----------------------------------------------------------------------
# Warn-once state: observable, resettable, test-isolated
# ----------------------------------------------------------------------
class TestWarnOnceIsolation:
    def test_warned_once_tracks_the_warning(self, fresh_native):
        fresh_native.setenv("REPRO_NATIVE_CC", "/nonexistent/compiler")
        assert native.warned_once() is False
        with pytest.warns(RuntimeWarning, match="falling back"):
            native.resolve_backend("native")
        assert native.warned_once() is True

    def test_reset_warned_rearms_without_forgetting_load(self, fresh_native):
        fresh_native.setenv("REPRO_NATIVE_CC", "/nonexistent/compiler")
        with pytest.warns(RuntimeWarning):
            native.resolve_backend("native")
        native.reset_warned()
        assert native.warned_once() is False
        # The warning fires again; the memoized load attempt does not
        # re-probe (reset_warned is narrower than reset_for_tests).
        with pytest.warns(RuntimeWarning, match="falling back"):
            native.resolve_backend("native")

    def test_suite_order_cannot_spend_the_warning(self, fresh_native):
        """The autouse conftest fixture restores warn-once state, so a
        test that triggers the warning cannot mask it for later tests.
        Simulate two 'tests' back to back."""
        fresh_native.setenv("REPRO_NATIVE_CC", "/nonexistent/compiler")
        with pytest.warns(RuntimeWarning):
            native.resolve_backend("native")
        native.reset_warned()  # what the autouse fixture does on teardown
        with pytest.warns(RuntimeWarning):
            native.resolve_backend("native")
