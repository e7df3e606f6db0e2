"""Contexts are the only retainers of grids, orders and inverses.

A curve is a stateless mapping: every ``O(n)`` array a metric needs
(key grid, order) is an intermediate of the
:class:`repro.engine.MetricContext` that folds it, held in its
budgeted LRU store or not at all.  The one exception is a
:class:`repro.curves.base.PermutationCurve`, whose table *is* the curve
and whose decode table is built from it on the first decode.

So a ``max_bytes=0`` context keeps nothing: after every public metric,
a cluster count, a range query, a partition and a whole-axis key slab,
``cache_bytes`` reads 0, no curve attribute holds an array (the table
curve's two tables aside), and the traced heap has grown by less than
one key grid since the context was built.  Covered through a
:class:`repro.engine.ContextPool` on both backends, dense, chunked and
threaded, for codec curves, a table curve and a transform over it.
"""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np
import pytest

from repro.analysis.clustering import cluster_count
from repro.apps.partition import partition_by_curve
from repro.apps.rangequery import SFCIndex
from repro.curves.base import PermutationCurve
from repro.engine import native
from repro.engine.pool import ContextPool
from repro.engine.sweep import CurveSpec
from repro.grid.universe import Universe

SIDE = 128
SPECS = ["hilbert", "z", "moore", "random", "reversed:inner=random"]
requires_native = pytest.mark.skipif(
    not native.available(),
    reason=f"native backend unavailable: {native.unavailable_reason()}",
)
BACKENDS = ["numpy", pytest.param("native", marks=requires_native)]
MODES = {
    "dense": {},
    "chunked": {"chunk_cells": 3 * SIDE},
    "threads2": {"threads": 2},
}
TABLE_FIELDS = ("_key_grid_cache", "_decode_table")


def _curves(curve):
    """``curve`` and the inner curves it wraps."""
    while curve is not None:
        yield curve
        curve = getattr(curve, "inner", None)


def _run_everything(ctx) -> None:
    """Every public metric plus the app-level readers; keeps nothing."""
    ctx.davg()
    ctx.dmax()
    ctx.nn_mean()
    ctx.lambda_sums()
    ctx.lower_bound()
    ctx.davg_ratio()
    ctx.window_dilation(3)
    if not ctx.chunked:
        ctx.flat_keys()
        ctx.order()
        ctx.per_cell_avg_stretch()
    lo, hi = (5, 9), (37, 20)
    cluster_count(ctx, lo, hi)
    SFCIndex(ctx).query_cells(lo, hi)
    partition_by_curve(ctx, 8)
    ctx._key_slab(0, SIDE)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("spec", SPECS)
def test_max_bytes_zero_retains_nothing(spec, backend, mode):
    universe = Universe(d=2, side=SIDE)
    curve = CurveSpec.parse(spec).make(universe)
    pool = ContextPool(max_bytes=0, backend=backend, **MODES[mode])
    grid_bytes = universe.n * np.dtype(np.int64).itemsize
    gc.collect()
    tracemalloc.start()
    try:
        ctx = pool.get(curve)
        built = tracemalloc.get_traced_memory()[0]
        _run_everything(ctx)
        assert ctx.cache_bytes == 0
        assert pool.cache_bytes == 0
        decode_bytes = 0
        for member in _curves(ctx.curve):
            for name, value in vars(member).items():
                if not isinstance(value, np.ndarray):
                    continue
                assert isinstance(member, PermutationCurve), (member, name)
                assert name in TABLE_FIELDS, (member, name)
                if name == "_decode_table":
                    decode_bytes += value.nbytes
        if pool._scheduler is not None:
            pool._scheduler.close()
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - built - decode_bytes
    finally:
        tracemalloc.stop()
    assert grown < grid_bytes, (grown, grid_bytes)
