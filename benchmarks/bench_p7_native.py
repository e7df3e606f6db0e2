"""P7 — native compiled kernels + vectorized batch encode.

PR 7 adds :mod:`repro.engine.native`: a small C library for the hot
block paths (the NN range fold, window maxima, batch curve
encode/decode), built on demand with the system compiler and selected
with ``backend="native"``/``"auto"``.  Values are bit-for-bit
identical across backends — the C kernels produce int64 partials and
the per-cell ``D^avg`` terms by the one IEEE-754 division NumPy
performs; the order-sensitive mean stays in Python on both paths.

Two experiments on a side=1024 Hilbert cell:

* **batch encode** — ``curve.keys_of`` over 2^20 random points,
  throughput-normalized against the historical per-cell
  ``curve.index`` loop (the pattern the resort/nbody/rangequery hot
  loops used).  Asserted >= 2x; measured two to three orders of
  magnitude.
* **NN block reduction** — the one-pass chunked NN metric set
  (``davg``/``dmax``/``lambdas``/``nn_mean``), numpy vs native
  backend.  Asserted >= 1.3x when the native kernels are available.

On hosts without a C compiler the numbers are still recorded (the
``native`` rows fall back to numpy and say so in the JSON); only the
speedup assertions are skipped — parity is enforced unconditionally.
"""

import time

import numpy as np

from repro import Universe
from repro.curves.hilbert import HilbertCurve
from repro.engine import native
from repro.engine.context import MetricContext

from _bench_utils import run_once

UNIVERSE = Universe.power_of_two(d=2, k=10)
CHUNK_CELLS = 65536
N_POINTS = 1 << 20
#: Per-cell loop sample: enough for a stable rate, small enough that
#: the deliberately-slow baseline stays under a second.
LOOP_POINTS = 2000
MIN_ENCODE_SPEEDUP = 2.0
MIN_REDUCTION_SPEEDUP = 1.3

NATIVE_AVAILABLE = native.available()


def _nn_cell(backend: str):
    """The chunked one-pass NN metric set; returns (values, seconds)."""
    ctx = MetricContext(
        HilbertCurve(UNIVERSE), chunk_cells=CHUNK_CELLS, backend=backend
    )
    start = time.perf_counter()
    values = (
        ctx.davg(),
        ctx.dmax(),
        tuple(ctx.lambda_sums().tolist()),
        ctx.nn_mean(),
    )
    return values, time.perf_counter() - start


def test_p7_batch_encode_throughput(benchmark, results_writer):
    """Acceptance: keys_of >= 2x the per-cell index loop (throughput)."""
    curve = HilbertCurve(UNIVERSE)
    rng = np.random.default_rng(0)
    points = rng.integers(
        0, UNIVERSE.side, size=(N_POINTS, UNIVERSE.d), dtype=np.int64
    )

    start = time.perf_counter()
    loop_keys = np.array(
        [int(curve.index(p)) for p in points[:LOOP_POINTS]], dtype=np.int64
    )
    t_loop = time.perf_counter() - start
    loop_rate = LOOP_POINTS / t_loop

    def timed_keys_of(backend):
        start = time.perf_counter()
        keys = curve.keys_of(points, backend=backend)
        return keys, time.perf_counter() - start

    numpy_keys, t_numpy = timed_keys_of("numpy")
    native_keys, t_native = run_once(benchmark, timed_keys_of, "native")

    parity = bool(
        (numpy_keys[:LOOP_POINTS] == loop_keys).all()
        and (native_keys == numpy_keys).all()
    )
    batch_rate = N_POINTS / min(t_numpy, t_native)
    speedup_vs_loop = batch_rate / loop_rate
    benchmark.extra_info["batch_encode"] = {
        "universe": str(UNIVERSE),
        "points": N_POINTS,
        "native_available": NATIVE_AVAILABLE,
        "per_cell_loop_pts_per_s": round(loop_rate),
        "keys_of_numpy_pts_per_s": round(N_POINTS / t_numpy),
        "keys_of_native_pts_per_s": round(N_POINTS / t_native),
        "speedup_vs_loop": round(speedup_vs_loop, 1),
        "native_vs_numpy": round(t_numpy / t_native, 2),
        "bit_for_bit_parity": parity,
    }
    results_writer(
        "p7_batch_encode",
        f"P7 — batch encode on {UNIVERSE}, hilbert, {N_POINTS} points "
        f"(native kernels available: {NATIVE_AVAILABLE})\n\n"
        f"per-cell index loop : {loop_rate:12,.0f} pts/s\n"
        f"keys_of (numpy)     : {N_POINTS / t_numpy:12,.0f} pts/s\n"
        f"keys_of (native)    : {N_POINTS / t_native:12,.0f} pts/s\n"
        f"batch vs loop: {speedup_vs_loop:.0f}x   "
        f"native vs numpy batch: {t_numpy / t_native:.2f}x   "
        f"parity: {parity}\n",
    )
    print(
        f"\nbatch encode {speedup_vs_loop:.0f}x vs per-cell loop; "
        f"native vs numpy {t_numpy / t_native:.2f}x; parity={parity}"
    )
    assert parity
    assert speedup_vs_loop >= MIN_ENCODE_SPEEDUP, (
        f"batch encode speedup {speedup_vs_loop:.1f}x below "
        f"{MIN_ENCODE_SPEEDUP}x"
    )


def test_p7_native_nn_reduction(benchmark, results_writer):
    """Acceptance: native NN reduction >= 1.3x numpy when available."""
    numpy_values, t_numpy = _nn_cell("numpy")
    native_values, t_native = run_once(benchmark, _nn_cell, "native")

    parity = native_values == numpy_values
    speedup = t_numpy / t_native
    benchmark.extra_info["nn_reduction"] = {
        "universe": str(UNIVERSE),
        "chunk_cells": CHUNK_CELLS,
        "native_available": NATIVE_AVAILABLE,
        "native_fell_back_to_numpy": not NATIVE_AVAILABLE,
        "t_numpy_s": round(t_numpy, 3),
        "t_native_s": round(t_native, 3),
        "speedup": round(speedup, 2),
        "bit_for_bit_parity": parity,
    }
    results_writer(
        "p7_native_nn_reduction",
        f"P7 — chunked NN reduction on {UNIVERSE}, hilbert "
        f"(chunk_cells={CHUNK_CELLS}; native kernels available: "
        f"{NATIVE_AVAILABLE}; values bit-for-bit equal: {parity})\n\n"
        f"numpy backend  wall: {t_numpy:7.3f} s\n"
        f"native backend wall: {t_native:7.3f} s   "
        f"speedup: {speedup:5.2f}x"
        f"{'' if NATIVE_AVAILABLE else '   (not asserted: no compiler)'}\n",
    )
    print(
        f"\nNN reduction numpy {t_numpy:.3f}s vs native {t_native:.3f}s "
        f"({speedup:.2f}x); native_available={NATIVE_AVAILABLE}; "
        f"parity={parity}"
    )
    assert parity, (
        f"backend values diverged: {native_values} vs {numpy_values}"
    )
    if NATIVE_AVAILABLE:
        assert speedup >= MIN_REDUCTION_SPEEDUP, (
            f"native speedup {speedup:.2f}x below {MIN_REDUCTION_SPEEDUP}x"
        )
