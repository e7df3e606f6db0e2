"""Regression tests for the read-only-returns contract (R003).

``repro check`` proves these statically; this file proves them at
runtime — every public array the engine hands out is frozen, and the
one deliberate fix (``key_grid`` returning a frozen *view*) does not
leak read-only flags back into the curve's own cache.
"""

import numpy as np
import pytest

from repro.curves.zcurve import ZCurve
from repro.engine.context import MetricContext, get_context


class TestKeyGridFrozenView:
    def test_context_key_grid_is_read_only(self, u2_8):
        ctx = MetricContext(ZCurve(u2_8))
        grid = ctx.key_grid()
        assert grid.flags.writeable is False
        with pytest.raises(ValueError):
            grid[0, 0] = 99

    def test_curve_key_grid_stays_writable(self, u2_8):
        """Freezing the context's view must not flip the curve's own
        (pre-engine, documented-writable) cached grid."""
        curve = ZCurve(u2_8)
        ctx = MetricContext(curve)
        ctx.key_grid()
        assert curve.key_grid().flags.writeable is True

    def test_context_owns_the_grid(self, u2_8):
        """The context retains its grid; the curve retains none."""
        curve = ZCurve(u2_8)
        ctx = MetricContext(curve)
        frozen = ctx.key_grid()
        assert curve._key_grid_cache is None
        assert ctx.cache_bytes == frozen.nbytes
        assert np.array_equal(frozen, curve.key_grid())


class TestPublicArraysAreFrozen:
    METHODS = [
        "order",
        "flat_keys",
        "neighbor_counts",
        "nn_distance_values",
        "lambda_sums",
        "per_cell_avg_stretch",
        "per_cell_max_stretch",
    ]

    @pytest.mark.parametrize("method", METHODS)
    def test_returns_read_only_array(self, u2_8, method):
        ctx = MetricContext(ZCurve(u2_8))
        arr = getattr(ctx, method)()
        assert isinstance(arr, np.ndarray)
        assert arr.flags.writeable is False

    def test_pooled_context_key_grid_frozen(self, u2_8):
        ctx = get_context(ZCurve(u2_8))
        assert ctx.key_grid().flags.writeable is False

    def test_metric_values_unchanged_by_freezing(self, u2_8):
        """The frozen view is an aliasing change, not a numeric one."""
        ctx = MetricContext(ZCurve(u2_8))
        baseline = MetricContext(ZCurve(u2_8), max_bytes=0)
        assert ctx.davg() == baseline.davg()
        assert np.array_equal(ctx.lambda_sums(), baseline.lambda_sums())
