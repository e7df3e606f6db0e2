"""Reverse ("window dilation") locality metrics.

Gotsman & Lindenbaum (1996) and Niedermeier, Reinhardt & Sanders (2002)
study the **opposite direction** from the paper's stretch: how far apart
in the grid can two cells be whose curve indices are within ``m`` of each
other?  For the 2-D Hilbert curve ``∆(α,β) ≤ 3·√(|i−j|) − 2``; for the Z
curve no such square-root law holds (consecutive keys can be Θ(side)
apart).  Section II of the paper stresses these metrics are *different*
from the stretch; bench A6 demonstrates it numerically.

All functions accept either a curve or a
:class:`repro.engine.MetricContext`.  Every value comes from the
context's one window fold
(:func:`repro.engine.chunked.window_max_reduction`), which keeps no
``O(n)`` distance array; its scalars are memoized per
``(window, metric)``, so profiles and repeated queries reuse them.
``"dilation:window=16"`` is also a registered sweep metric
(:data:`repro.engine.METRICS`).
"""

from __future__ import annotations

import numpy as np

from repro.engine.context import get_context
from repro.grid.metrics import manhattan

__all__ = ["window_dilation", "worst_window_pairs", "dilation_profile"]


def window_dilation(
    curve, window: int, metric: str = "manhattan"
) -> int | float:
    """Max grid distance between cells exactly ``window`` apart on the curve.

    ``max_α ∆(π^{-1}(t), π^{-1}(t+window))`` — the worst-case grid jump
    of a fixed-size curve step.  ``curve`` may be a curve or a
    :class:`repro.engine.MetricContext`; the value is the same in
    every mode (dense, chunked, threaded) and on every backend.
    """
    return get_context(curve).window_dilation(window, metric=metric)


def worst_window_pairs(
    curve, window: int
) -> tuple[np.ndarray, np.ndarray]:
    """The cell pairs attaining :func:`window_dilation` (Manhattan).

    Returns two ``(m, d)`` arrays of the worst pairs' endpoints, in
    curve order — the same arrays in every mode.
    """
    ctx = get_context(curve)
    best = ctx.window_dilation(window)
    firsts, seconds = [], []
    for _, _, a, b in ctx.iter_window_pairs(window):
        worst = manhattan(a, b) == best
        firsts.append(a[worst])
        seconds.append(b[worst])
    return np.concatenate(firsts), np.concatenate(seconds)


def dilation_profile(
    curve, windows: list[int], metric: str = "manhattan"
) -> dict[int, float]:
    """:func:`window_dilation` evaluated over a list of window sizes.

    For a Hilbert curve the profile grows like ``O(window^{1/d})``; for
    the Z curve it saturates near the grid diameter at window 1 already.
    """
    ctx = get_context(curve)
    return {
        w: float(window_dilation(ctx, w, metric=metric)) for w in windows
    }
