"""Uniformly random bijections.

The paper's SFC definition is *any* bijection, so a uniformly random
permutation of the cells is a legitimate SFC — and a vital baseline: its
expected NN-stretch is ≈ n/3 (the mean |key difference| of two uniform
keys), far above the ``Θ(n^{1−1/d})`` of structured curves, while Theorem
1's lower bound must still hold for every sampled instance.
"""

from __future__ import annotations

import numpy as np

from repro.curves.base import PermutationCurve
from repro.grid.universe import Universe, strict_index

__all__ = ["RandomCurve", "expected_random_nn_stretch"]


def expected_random_nn_stretch(n: int) -> float:
    """Expected ``∆π`` of a fixed pair under a uniform random bijection.

    Two distinct uniform keys from ``{0,…,n−1}`` have
    ``E|key_1 − key_2| = (n+1)/3`` — the benchmark value a random curve's
    ``D^avg`` concentrates around.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    return (n + 1) / 3.0


class RandomCurve(PermutationCurve):
    """Seeded uniformly-random bijection ``U → {0,…,n−1}``."""

    name = "random"

    def __init__(self, universe: Universe, seed: int = 0) -> None:
        # A bool would alias seed 0/1 under another label.
        seed = strict_index(seed, "seed")
        rng = np.random.default_rng(seed)
        keys = rng.permutation(universe.n).astype(np.int64)
        grid = np.ascontiguousarray(
            keys.reshape(universe.shape, order="F")
        )
        super().__init__(universe, key_grid=grid, name=self.name)
        self.seed = seed

    def _cache_token(self) -> object:
        # The seed pins the permutation down, so equal-seed instances
        # on equal universes can share one metric context.
        return ("seed", int(self.seed))
