"""P9 — persistent store: warm restarts.

The :class:`repro.engine.store.GridStore` exists for **warm restarts**:
a sweep rerun (or a ``repro serve`` restart) resolves its key grids
from memory-mapped on-disk artifacts instead of re-evaluating curves.
The bench runs the same sweep cold (empty store) and warm (fresh pools
over the populated store) and asserts the point of the feature: the
warm pass resolves from mmap, returns **bit-for-bit identical**
records, and is at least 2x faster (curve evaluation dominates the
cold pass; the warm pass maps the grid and scatters the curve order
from it).

Wall-clock goes through pytest-benchmark; the cold/warm split lands in
the JSON via ``extra_info``.
"""

from __future__ import annotations

import time

from repro import Universe
from repro.engine.sweep import Sweep

from _bench_utils import cache_stats_payload, run_once

#: Hilbert on 256^2 + 512^2 on the NumPy backend: cold cost is
#: dominated by curve evaluation (the key grid), exactly what the
#: store amortizes.  (On the native backend the codec builds these grids
#: faster than a store read, so Hilbert is never stored there; see
#: :func:`repro.engine.shm.reuse_key`.)
WARM_UNIVERSES = (
    Universe.power_of_two(d=2, k=8),
    Universe.power_of_two(d=2, k=9),
)
WARM_KWARGS = dict(
    curves=["hilbert"],
    metrics=("davg", "dilation:window=16"),
    reports=False,
    backend="numpy",
)


def _records(result):
    return [(r.spec, r.d, r.side, r.values) for r in result.records]


def test_p9_store_warm_restart_speedup(
    benchmark, tmp_path, results_writer
):
    """Acceptance: warm ≥ 2x cold, mmap hits > 0, records identical."""
    store = tmp_path / "store"

    def timed(**kwargs):
        start = time.perf_counter()
        result = Sweep(universes=list(WARM_UNIVERSES), **WARM_KWARGS, **kwargs).run()
        return result, time.perf_counter() - start

    storeless, _ = timed()
    cold, cold_s = timed(store_dir=store)
    warm, warm_s = run_once(benchmark, lambda: timed(store_dir=store))

    assert _records(cold) == _records(storeless)
    assert _records(warm) == _records(storeless)  # bit-for-bit
    assert cold.cache_stats.total_mmap == 0
    assert warm.cache_stats.total_mmap > 0

    speedup = cold_s / warm_s
    benchmark.extra_info["store"] = {
        "cold_s": round(cold_s, 4),
        "warm_s": round(warm_s, 4),
        "speedup": round(speedup, 2),
        "warm_cache": cache_stats_payload(warm.cache_stats),
    }
    results_writer(
        "p9_store_warm_restart",
        "P9 — cold vs warm sweep over a persistent grid store\n"
        f"(hilbert on {', '.join(str(u) for u in WARM_UNIVERSES)}, "
        "davg + dilation:window=16)\n\n"
        f"cold (empty store):  {cold_s * 1e3:8.1f} ms   "
        f"mmap hits: {cold.cache_stats.total_mmap}\n"
        f"warm (fresh pools):  {warm_s * 1e3:8.1f} ms   "
        f"mmap hits: {warm.cache_stats.total_mmap}\n"
        f"speedup:             {speedup:8.1f}x\n",
    )
    print(f"\nstore warm restart: {cold_s * 1e3:.1f} ms -> "
          f"{warm_s * 1e3:.1f} ms ({speedup:.1f}x)")
    assert speedup >= 2.0, (
        f"warm restart only {speedup:.2f}x over cold (want >= 2x)"
    )
