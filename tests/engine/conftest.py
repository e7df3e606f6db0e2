"""Shared helpers for the engine tests."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from repro.grid.neighbors import axis_pair_index_arrays, neighbor_count_grid


def legacy_metrics(curve):
    """Reference metric computation, straight from the key grid.

    Kept independent of the engine so parity failures cannot hide
    behind shared code.  ``davg`` is the exact rational rounded once,
    as the engine's is.
    """
    universe = curve.universe
    grid = curve.key_grid()
    sums = np.zeros(universe.shape, dtype=np.int64)
    best = np.zeros(universe.shape, dtype=np.int64)
    lambdas = []
    parts = []
    for axis in range(universe.d):
        lo, hi = axis_pair_index_arrays(universe, axis)
        dist = np.abs(grid[hi] - grid[lo])
        sums[lo] += dist
        sums[hi] += dist
        np.maximum(best[lo], dist, out=best[lo])
        np.maximum(best[hi], dist, out=best[hi])
        lambdas.append(int(dist.sum()))
        parts.append(dist.reshape(-1))
    counts = neighbor_count_grid(universe)
    # D^avg as the exact rational mean of the per-cell averages,
    # correctly rounded once.
    davg = sum(
        Fraction(int(sums[counts == c].sum()), int(c))
        for c in np.unique(counts)
    )
    return {
        "davg": float(davg / universe.n),
        "dmax": float(best.mean()),
        "lambdas": lambdas,
        "nn_values": np.concatenate(parts),
        "per_cell_avg": sums / counts,
        "per_cell_max": best,
    }


@pytest.fixture(name="legacy_metrics")
def legacy_metrics_fixture():
    return legacy_metrics
