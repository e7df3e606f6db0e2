"""Grid metrics of Section III and Lemma 6.

``manhattan`` is the paper's ``∆`` and ``euclidean`` its ``∆_E``; both are
vectorized over leading axes.  ``chebyshev`` (L-infinity) is included as an
extra metric used by the application substrates.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "manhattan",
    "euclidean",
    "chebyshev",
    "grid_diameter_manhattan",
    "grid_diameter_euclidean",
]


def _as_pair(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    a_arr = np.asarray(a, dtype=np.int64)
    b_arr = np.asarray(b, dtype=np.int64)
    if a_arr.shape[-1] != b_arr.shape[-1]:
        raise ValueError("coordinate dimensionality mismatch")
    return a_arr, b_arr


def manhattan(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The paper's ``∆(α, β) = Σ_i |α_i − β_i|`` (L1 metric)."""
    a_arr, b_arr = _as_pair(a, b)
    return np.abs(a_arr - b_arr).sum(axis=-1)


def euclidean(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The paper's ``∆_E(α, β)`` (L2 metric), returned as float64."""
    a_arr, b_arr = _as_pair(a, b)
    diff = (a_arr - b_arr).astype(np.float64)
    return np.sqrt((diff * diff).sum(axis=-1))


def chebyshev(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """L-infinity metric ``max_i |α_i − β_i|``."""
    a_arr, b_arr = _as_pair(a, b)
    return np.abs(a_arr - b_arr).max(axis=-1)


def grid_diameter_manhattan(d: int, side: int) -> int:
    """Lemma 6: ``max ∆(α,β) = d(side − 1)``, attained at opposite corners."""
    if d < 1 or side < 1:
        raise ValueError("need d >= 1 and side >= 1")
    return d * (side - 1)


def grid_diameter_euclidean(d: int, side: int) -> float:
    """Lemma 6: ``max ∆_E(α,β) = sqrt(d)·(side − 1)``."""
    if d < 1 or side < 1:
        raise ValueError("need d >= 1 and side >= 1")
    return math.sqrt(d) * (side - 1)

