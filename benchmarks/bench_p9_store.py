"""P9 — persistent store: warm restarts and out-of-core spill.

The :class:`repro.engine.store.GridStore` exists for two workloads:

* **Warm restarts** — a sweep rerun (or a ``repro serve`` restart)
  resolves its curve grids from memory-mapped on-disk artifacts instead
  of re-evaluating curves.  The bench runs the same sweep cold (empty
  store) and warm (fresh pools over the populated store) and asserts
  the point of the feature: the warm pass resolves from mmap, returns
  **bit-for-bit identical** records, and is at least 2x faster (the
  measured gap is far larger — curve evaluation dominates the cold
  pass, a page-cache read costs microseconds).
* **Out-of-core spill** — a table-backed curve whose dense grid busts
  ``max_bytes`` writes its table through to the store on the first
  computed slab, and a rerun streams slabs back as mmap slices, so the
  block cache never holds a second full copy.  Peak allocation of the
  cold spilled run must undercut the dense run by a clear multiple,
  with values identical.

Wall-clock goes through pytest-benchmark; the cold/warm split and both
allocation peaks land in the JSON via ``extra_info``.
"""

from __future__ import annotations

import time

from repro import Universe
from repro.engine.sweep import Sweep

from _bench_utils import cache_stats_payload, run_once

#: Hilbert on 256^2 + 512^2 on the NumPy backend: cold cost is
#: dominated by curve evaluation (order + key grid), exactly what the
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

#: A table-backed (instance-materialized) curve on 512^2 whose 2 MiB
#: grid busts this budget, forcing chunked mode + store spill.
SPILL_UNIVERSE = Universe.power_of_two(d=2, k=9)
SPILL_BUDGET = 256 * 1024
SPILL_KWARGS = dict(
    curves=["random:seed=11"],
    metrics=("davg", "dmax"),
    reports=False,
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


def test_p9_store_spill_bounded_memory(
    benchmark, peak_memory, tmp_path, results_writer
):
    """Acceptance: spilled sweep completes under the budget's footprint
    with values identical to the dense run."""
    store = tmp_path / "spill"

    def dense():
        return Sweep(universes=[SPILL_UNIVERSE], **SPILL_KWARGS).run()

    def spilled():
        return Sweep(
            universes=[SPILL_UNIVERSE],
            store_dir=store,
            max_bytes=SPILL_BUDGET,
            **SPILL_KWARGS,
        ).run()

    dense_result, dense_peak, _ = peak_memory("dense", dense)
    spill_result, spill_peak, _ = peak_memory(
        "spilled", lambda: run_once(benchmark, spilled)
    )
    warm_result = spilled()

    assert _records(spill_result) == _records(dense_result)
    assert _records(warm_result) == _records(dense_result)
    # chunked + spilled: the cold run writes the table through and
    # maps nothing; the rerun streams its slabs back as mmap slices of
    # that table.  Neither computes a dense key grid.
    assert spill_result.cache_stats.total_mmap == 0
    assert warm_result.cache_stats.total_mmap > 0
    for result in (spill_result, warm_result):
        assert "key_grid" not in result.cache_stats.computes

    results_writer(
        "p9_store_spill_memory",
        "P9 — dense vs store-spilled sweep (random:seed=11 on "
        f"{SPILL_UNIVERSE}, davg+dmax, max_bytes="
        f"{SPILL_BUDGET // 1024} KiB)\n\n"
        f"dense   peak alloc: {dense_peak / 2**20:9.2f} MiB\n"
        f"spilled peak alloc: {spill_peak / 2**20:9.2f} MiB\n"
        f"reduction:          {dense_peak / spill_peak:9.1f}x\n",
    )
    print(
        f"\nspill peak {spill_peak / 2**20:.2f} MiB vs dense "
        f"{dense_peak / 2**20:.2f} MiB"
    )
    assert spill_peak * 2 < dense_peak, (
        f"spilled peak {spill_peak} not clearly bounded vs dense "
        f"{dense_peak}"
    )
