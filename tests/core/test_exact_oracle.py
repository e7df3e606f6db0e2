"""D^avg and the NN mean against an exact ``fractions.Fraction`` oracle.

The oracle evaluates Definition 2 in rational arithmetic from the
curve's NumPy reference keys: ``D^avg = (1/n) Σ_α (1/|N(α)|) Σ_{β ∈
N(α)} |π(α) − π(β)|`` and the NN mean as the pair sum over the pair
count.  Every registry curve (and the three transforms over
``hilbert``), on both backends and in dense, chunked and threaded
contexts, must agree with it:

* ``nn_mean`` is ``float(Fraction)`` exactly: the pair sum and count
  are exact integers below ``2^53`` here and the one division is
  correctly rounded;
* ``davg`` is one value across every backend and mode, within
  ``(ceil(log2 n) + 2) · 2^-53`` relative error of the Fraction: each
  per-cell average is one rounded division and NumPy's pairwise
  summation adds at most ``ceil(log2 n)`` roundings along any path.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from repro.curves.registry import available_curves, curve_is_hidden
from repro.engine import native
from repro.engine.context import MetricContext
from repro.engine.sweep import CurveSpec
from repro.grid.universe import Universe

UNIVERSES = [
    Universe(d=1, side=9),
    Universe(d=2, side=2),
    Universe(d=2, side=8),
    Universe(d=2, side=9),
    Universe(d=3, side=4),
    Universe(d=3, side=5),
    Universe(d=4, side=3),
]
BACKENDS = ["numpy"] + (["native"] if native.available() else [])
MODES = {
    "dense": {},
    "chunked": {"chunk_cells": 7},
    "threads2": {"threads": 2},
}


def _specs(universe: Universe):
    specs = [
        "random:seed=5" if name == "random" else name
        for name in available_curves()
        if not curve_is_hidden(name)
    ]
    perm = "-".join(str(a) for a in reversed(range(universe.d)))
    specs += [
        "reversed:inner=hilbert",
        "reflected:inner=hilbert,axes=0",
        f"axisperm:inner=hilbert,perm={perm}",
    ]
    return specs


def _make(spec: str, universe: Universe):
    try:
        return CurveSpec.parse(spec).make(universe)
    except ValueError:  # not applicable on this universe
        return None


def exact_metrics(curve) -> tuple:
    """``(D^avg, NN mean)`` as Fractions, cell by cell."""
    universe = curve.universe
    keys = [int(k) for k in curve.index(universe.all_coords())]
    side, d = universe.side, universe.d

    def rank(cell):
        return sum(c * side**a for a, c in enumerate(cell))

    total = Fraction(0)
    pair_sum = pair_count = 0
    for cell in universe.iter_cells():
        dists = []
        for axis in range(d):
            for step in (-1, 1):
                other = list(cell)
                other[axis] += step
                if 0 <= other[axis] < side:
                    dists.append(abs(keys[rank(cell)] - keys[rank(other)]))
                    if step == 1:
                        pair_sum += dists[-1]
                        pair_count += 1
        total += Fraction(sum(dists), len(dists))
    return total / universe.n, Fraction(pair_sum, pair_count)


CASES = [
    pytest.param(universe, spec, id=f"{universe.d}x{universe.side}-{spec}")
    for universe in UNIVERSES
    for spec in _specs(universe)
    if _make(spec, universe) is not None
]


def test_cases_cover_every_visible_registry_curve():
    covered = {spec.split(":")[0] for _, spec in (c.values for c in CASES)}
    visible = {n for n in available_curves() if not curve_is_hidden(n)}
    assert visible | {"reversed", "reflected", "axisperm"} == covered


@pytest.mark.parametrize("universe, spec", CASES)
def test_metrics_round_to_the_exact_oracle(universe, spec):
    davg_exact, nn_exact = exact_metrics(_make(spec, universe))
    bound = (math.ceil(math.log2(universe.n)) + 2) * 2.0**-53
    seen = set()
    for backend in BACKENDS:
        for mode, kwargs in MODES.items():
            ctx = MetricContext(
                _make(spec, universe), backend=backend, **kwargs
            )
            label = f"{backend}/{mode}"
            assert ctx.nn_mean() == float(nn_exact), label
            davg = ctx.davg()
            error = abs(Fraction(davg) - davg_exact)
            assert error <= bound * davg_exact, label
            seen.add(davg)
    assert len(seen) == 1, seen


def test_oracle_matches_a_hand_count():
    """2x2 simple curve: keys 0 1 / 2 3, every cell has two
    neighbours at distances 1 and 2."""
    curve = CurveSpec.parse("simple").make(Universe(d=2, side=2))
    davg, nn = exact_metrics(curve)
    assert davg == Fraction(3, 2)
    assert nn == Fraction(1 + 1 + 2 + 2, 4)
    assert np.isclose(float(davg), 1.5)
