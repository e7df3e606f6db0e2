"""Tests for the reverse (window-dilation) locality metrics."""

import numpy as np
import pytest

from repro import Universe
from repro.analysis.locality import (
    dilation_profile,
    window_dilation,
    worst_window_pairs,
)
from repro.curves.hilbert import HilbertCurve
from repro.curves.simple import SimpleCurve
from repro.curves.zcurve import ZCurve


class TestWindowDilation:
    def test_window_one_continuous_curve(self, u2_8):
        """A continuous curve has dilation exactly 1 at window 1."""
        assert window_dilation(HilbertCurve(u2_8), 1) == 1

    def test_window_one_z_curve_jumps(self, u2_8):
        """The Z curve jumps at block boundaries: dilation >> 1."""
        assert window_dilation(ZCurve(u2_8), 1) > 1

    def test_simple_curve_row_wrap(self, u2_8):
        """Simple curve's worst window-1 jump is the row wrap: ∆ = side-1+1."""
        assert window_dilation(SimpleCurve(u2_8), 1) == 8

    def test_euclidean_variant(self, u2_8):
        val = window_dilation(HilbertCurve(u2_8), 1, metric="euclidean")
        assert val == pytest.approx(1.0)

    def test_monotone_nondecreasing_envelope_hilbert(self, u2_8):
        """Hilbert dilation grows like O(sqrt(window)) in 2-D — compare
        with the Niedermeier et al. bound 3·sqrt(m)."""
        h = HilbertCurve(u2_8)
        for window in (1, 4, 9, 16, 25):
            assert window_dilation(h, window) <= 3 * np.sqrt(window) + 2

    def test_rejects_bad_window(self, u2_8):
        with pytest.raises(ValueError):
            window_dilation(ZCurve(u2_8), 0)
        with pytest.raises(ValueError):
            window_dilation(ZCurve(u2_8), 64)

    def test_rejects_bad_metric(self, u2_8):
        with pytest.raises(ValueError):
            window_dilation(ZCurve(u2_8), 1, metric="cosine")


class TestWorstWindowPairs:
    def test_pairs_attain_maximum(self, u2_8):
        z = ZCurve(u2_8)
        a, b = worst_window_pairs(z, 1)
        worst = window_dilation(z, 1)
        dist = np.abs(a - b).sum(axis=1)
        assert np.all(dist == worst)

    def test_pairs_are_window_apart(self, u2_8):
        z = ZCurve(u2_8)
        a, b = worst_window_pairs(z, 3)
        assert np.all(z.curve_distance(a, b) == 3)


class TestDilationProfile:
    def test_keys(self, u2_8):
        profile = dilation_profile(HilbertCurve(u2_8), [1, 2, 4])
        assert sorted(profile) == [1, 2, 4]

    def test_z_saturates_immediately(self, u2_8):
        """Z's dilation is near-diameter already at window 1 — the
        sharp contrast bench A6 reports."""
        profile = dilation_profile(ZCurve(u2_8), [1])
        assert profile[1] >= 7


class TestContextAcceptance:
    def test_context_and_curve_agree(self, u2_8):
        from repro.engine.context import get_context

        curve = ZCurve(u2_8)
        ctx = get_context(curve)
        for window in (1, 3, 7):
            assert window_dilation(ctx, window) == window_dilation(
                curve, window
            )

    def test_profile_memoizes_window_folds(self, u2_8, monkeypatch):
        """Repeated profiles run one window fold per (window, metric)
        and keep no O(n) distance array."""
        from repro.engine import chunked
        from repro.engine.context import MetricContext

        calls = []
        fold = chunked.window_max_reduction

        def counting(ctx, window, metric="manhattan"):
            calls.append((window, metric))
            return fold(ctx, window, metric)

        monkeypatch.setattr(chunked, "window_max_reduction", counting)
        ctx = MetricContext(HilbertCurve(u2_8))
        for _ in range(2):
            dilation_profile(ctx, [1, 2, 4])
            dilation_profile(ctx, [1, 2, 4], metric="euclidean")
        assert sorted(calls) == sorted(
            (w, m) for w in (1, 2, 4) for m in ("manhattan", "euclidean")
        )
        assert not any(
            key.startswith("win_dist[") for key in ctx.stats.computes
        )
        # Only the order is retained (built once, budgeted).
        assert ctx.stats.computes["order"] == 1
        assert ctx.cache_bytes == u2_8.n * u2_8.d * 8

    def test_worst_pairs_from_context(self, u2_8):
        from repro.engine.context import get_context

        z = ZCurve(u2_8)
        a1, b1 = worst_window_pairs(z, 2)
        a2, b2 = worst_window_pairs(get_context(z), 2)
        assert np.array_equal(a1, a2) and np.array_equal(b1, b2)


def _reference_worst_pairs(curve, window):
    """The worst window pairs straight off the curve order, in order."""
    path = curve.order()
    a, b = path[:-window], path[window:]
    dist = np.abs(a - b).sum(axis=-1)
    worst = dist == dist.max()
    return a[worst], b[worst]


class TestWorstPairsParity:
    """``worst_window_pairs`` gives equal arrays, in equal order, in
    every mode and on both backends."""

    @pytest.mark.parametrize("backend", ("numpy", "native"))
    @pytest.mark.parametrize(
        "mode",
        (
            {},
            {"chunk_cells": 1},
            {"chunk_cells": 7},
            {"threads": 2},
            {"threads": 4},
            {"chunk_cells": 7, "threads": 2},
        ),
        ids=("dense", "chunk1", "chunk7", "threads2", "threads4",
             "chunk7-threads2"),
    )
    @pytest.mark.parametrize("window", (1, 3, 63))
    def test_modes_agree(self, u2_8, backend, mode, window):
        import warnings

        from repro.engine.context import MetricContext

        for make in (ZCurve, SimpleCurve):
            curve = make(u2_8)
            expected = _reference_worst_pairs(curve, window)
            with warnings.catch_warnings():
                # A host without a C compiler degrades to NumPy.
                warnings.simplefilter("ignore", RuntimeWarning)
                ctx = MetricContext(make(u2_8), backend=backend, **mode)
            a, b = worst_window_pairs(ctx, window)
            assert np.array_equal(a, expected[0])
            assert np.array_equal(b, expected[1])


class TestWindowArgument:
    """Non-integral windows are refused at the library boundary, in
    every mode, instead of raising from inside a kernel."""

    MODES = pytest.mark.parametrize(
        "mode",
        ({}, {"chunk_cells": 7}, {"threads": 2}),
        ids=("dense", "chunked", "threaded"),
    )

    @MODES
    @pytest.mark.parametrize("bad", (3.0, 2.5, True, "3", None))
    def test_window_dilation_rejects(self, u2_8, mode, bad):
        from repro.engine.context import MetricContext

        ctx = MetricContext(ZCurve(u2_8), **mode)
        with pytest.raises(ValueError, match="window must be an integer"):
            ctx.window_dilation(bad)
        with pytest.raises(ValueError, match="window must be an integer"):
            ctx.window_dilation(bad, metric="euclidean")

    @MODES
    def test_iter_window_pairs_rejects_before_iterating(self, u2_8, mode):
        from repro.engine.context import MetricContext

        ctx = MetricContext(ZCurve(u2_8), **mode)
        for bad in (2.5, True, 0, 64):
            with pytest.raises(ValueError, match="window must be"):
                ctx.iter_window_pairs(bad)

    def test_window_shift_distances_rejects(self, u2_8):
        from repro.engine.context import MetricContext

        ctx = MetricContext(ZCurve(u2_8))
        for bad in (2.5, 3.0, False):
            with pytest.raises(ValueError, match="window must be an integer"):
                ctx.window_shift_distances(bad)

    def test_numpy_integers_accepted(self, u2_8):
        from repro.engine.context import MetricContext

        ctx = MetricContext(ZCurve(u2_8))
        assert ctx.window_dilation(np.int64(3)) == ctx.window_dilation(3)
        assert ctx.window_dilation(np.int32(5)) == window_dilation(
            ZCurve(u2_8), 5
        )
