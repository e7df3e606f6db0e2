"""Stretch conditioned on grid distance — the probabilistic-model view.

The paper's final open question proposes analyzing proximity
preservation "using a more general probabilistic model of input".  The
natural object is the *stretch profile*

    ``profile(r) = E[ ∆π(α,β)/∆(α,β) | ∆(α,β) = r ]``

over uniformly random pairs at each grid distance r: how the stretch
decays from the NN regime (r = 1, the paper's focus) to the diameter.
Exact for small universes, from the all-pairs fold's integer totals
(``profile(r) = T_r / (r·count_r)``, see
:meth:`repro.engine.MetricContext.pair_totals`); seeded sampling for
large ones.

Functions accept a curve or a :class:`repro.engine.MetricContext`; keys
come from the context's cached key grid (exact) and rank-ordered flat
key array (sampled) instead of re-evaluating the curve.
"""

from __future__ import annotations

import numpy as np

from repro.engine.context import get_context

__all__ = ["stretch_profile_exact", "stretch_profile_sampled"]


def stretch_profile_exact(curve) -> dict[int, float]:
    """Exact ``profile(r)`` for every realized Manhattan distance r.

    Each value is the correctly rounded ``T_r / (r·count_r)`` of the
    context's memoized pair totals, the ``O(n²)`` fold the all-pairs
    stretch shares; intended for universes up to ~10⁴ cells.
    """
    ctx = get_context(curve)
    if ctx.universe.n < 2:
        raise ValueError("need n >= 2")
    return ctx.pair_totals().profile()


def stretch_profile_sampled(
    curve,
    n_pairs: int = 200_000,
    seed: int = 0,
) -> dict[int, float]:
    """Sampled ``profile(r)`` from uniform random ordered pairs.

    Distances with no sampled pair are absent from the result; rare
    extreme distances get noisy estimates — use the exact variant for
    assertions.
    """
    ctx = get_context(curve)
    universe = ctx.universe
    n = universe.n
    if n < 2:
        raise ValueError("need n >= 2")
    if n_pairs < 1:
        raise ValueError("need n_pairs >= 1")
    rng = np.random.default_rng(seed)
    from repro.grid.coords import rank_to_coords

    first = rng.integers(0, n, size=n_pairs, dtype=np.int64)
    second = (first + rng.integers(1, n, size=n_pairs, dtype=np.int64)) % n
    a = rank_to_coords(first, universe)
    b = rank_to_coords(second, universe)
    dist = np.abs(a - b).sum(axis=1)
    keys = ctx.flat_keys()
    ratio = np.abs(keys[first] - keys[second]) / dist
    max_r = int(dist.max())
    sums = np.bincount(dist, weights=ratio, minlength=max_r + 1)
    counts = np.bincount(dist, minlength=max_r + 1)
    return {
        r: float(sums[r] / counts[r])
        for r in range(1, max_r + 1)
        if counts[r] > 0
    }
