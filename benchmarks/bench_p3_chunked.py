"""P3 — chunked vs dense engine: peak memory O(block) vs O(cells).

The paper's lower bounds only become visible at large side lengths, but
the dense engine holds the full ``(side,)*d`` key grid — ``O(cells)``
peak memory — capping how far convergence studies can climb.  The
chunked mode streams fixed-size blocks instead; this bench measures
both paths on the same universe and asserts the point of the feature:

* every metric value is **bit-for-bit identical**, and
* the chunked allocation peak is bounded by the block cache budget
  plus a few ranges' key slabs, whatever the dense peak is, and does
  not grow with the cell count: the chunked peak at 2D 2048 stays
  within one slab of the peak at 2D 1024.

Peak memory is the tracemalloc allocation peak (resettable per phase,
and it tracks NumPy buffers); ``ru_maxrss`` is recorded alongside for
reference but is monotone per process, so the assertion uses
tracemalloc.  Both measurements plus wall-clock land in the
pytest-benchmark JSON via ``extra_info["peak_memory"]``.
"""

import resource

from repro import Universe
from repro.engine.context import MetricContext
from repro.engine.sweep import Sweep
from repro.curves.zcurve import ZCurve

from _bench_utils import run_once

#: 1M cells: the dense path holds the 8 MiB key grid; one chunked
#: key slab is 512 KiB.
UNIVERSE = Universe.power_of_two(d=2, k=10)
#: 4x the cells, for the check that the chunked peak does not grow.
LARGER = Universe.power_of_two(d=2, k=11)
CHUNK_CELLS = 1 << 16
SLAB_BYTES = CHUNK_CELLS * 8
CHUNK_BUDGET = 4 * 2**20  # block cache budget: a handful of blocks
#: Ranges' key slabs a chunked fold may hold beyond its cache budget:
#: the range being folded, its boundary planes and one being resolved.
SLAB_SLACK = 4


def _metric_set(ctx: MetricContext) -> tuple:
    """The NN scalar set every survey row consumes."""
    return (
        ctx.davg(),
        ctx.dmax(),
        tuple(int(v) for v in ctx.lambda_sums()),
        ctx.nn_mean(),
    )


def _dense() -> tuple:
    return _metric_set(MetricContext(ZCurve(UNIVERSE)))


def _chunked(universe: Universe = UNIVERSE) -> tuple:
    ctx = MetricContext(
        ZCurve(universe), max_bytes=CHUNK_BUDGET, chunk_cells=CHUNK_CELLS
    )
    return _metric_set(ctx)


def test_p3_chunked_peak_memory_bounded(benchmark, peak_memory, results_writer):
    """Acceptance: chunked peak memory is O(block), values identical.

    The chunked phase runs under the benchmark timer, so the JSON
    output carries its wall-clock alongside the
    ``extra_info["peak_memory"]`` payload of both phases.
    """
    dense_values, dense_peak, dense_time = peak_memory("dense", _dense)
    chunked_values, chunked_peak, chunked_time = peak_memory(
        "chunked", lambda: run_once(benchmark, _chunked)
    )
    _, larger_peak, _ = peak_memory(
        "chunked_larger", lambda: _chunked(LARGER)
    )
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    assert chunked_values == dense_values  # bit-for-bit identical

    results_writer(
        "p3_chunked_memory",
        "P3 — dense vs chunked NN metric set (Davg, Dmax, Lambda, NN "
        f"mean) on {UNIVERSE}\n"
        f"(chunk_cells={CHUNK_CELLS}, block cache budget "
        f"{CHUNK_BUDGET // 2**20} MiB)\n\n"
        f"dense   peak alloc: {dense_peak / 2**20:9.2f} MiB   "
        f"wall: {dense_time * 1e3:8.1f} ms\n"
        f"chunked peak alloc: {chunked_peak / 2**20:9.2f} MiB   "
        f"wall: {chunked_time * 1e3:8.1f} ms\n"
        f"chunked on {LARGER}: {larger_peak / 2**20:9.2f} MiB\n"
        f"reduction:          {dense_peak / chunked_peak:9.1f}x\n"
        f"process ru_maxrss:  {rss_kib / 1024:9.1f} MiB (monotone)\n",
    )
    print(
        f"\npeak alloc dense {dense_peak / 2**20:.1f} MiB vs chunked "
        f"{chunked_peak / 2**20:.1f} MiB "
        f"({dense_peak / chunked_peak:.1f}x)"
    )
    # O(block): the retained slabs plus the ranges in flight.
    bound = CHUNK_BUDGET + SLAB_SLACK * SLAB_BYTES
    assert chunked_peak < bound, (
        f"chunked peak {chunked_peak} exceeds budget + slabs {bound}"
    )
    # Not O(cells): 4x the cells costs at most one more slab.
    assert larger_peak < chunked_peak + SLAB_BYTES, (
        f"chunked peak grew with n: {chunked_peak} -> {larger_peak}"
    )


def test_p3_chunked_sweep_beyond_dense_budget(benchmark, peak_memory):
    """A full sweep completes where the dense grid exceeds the budget.

    The sweep's ``max_bytes`` is set below the dense key-grid size, so
    chunked mode is auto-selected (no ``chunk_cells`` given) and the
    run must stay within a block-bounded footprint.
    """
    budget = 2 * 2**20  # 2 MiB < 8 MiB dense key grid

    def run():
        return Sweep(
            universes=[UNIVERSE],
            curves=["z"],
            metrics=("davg", "dmax", "nn_mean"),
            reports=False,
            max_bytes=budget,
        ).run()

    result, peak, _ = peak_memory(
        "auto_chunked_sweep", lambda: run_once(benchmark, run)
    )
    stats = result.cache_stats
    assert any(key.startswith("key_slab") for key in stats.computes)
    assert "key_grid" not in stats.computes
    dense_grid_bytes = UNIVERSE.n * 8
    assert peak < dense_grid_bytes, (
        f"auto-chunked sweep peak {peak} should undercut the dense "
        f"key grid ({dense_grid_bytes})"
    )
    (record,) = result.records
    assert record.values["davg"] > 0
