"""D^avg and the NN mean against an exact ``fractions.Fraction`` oracle.

The oracle evaluates Definition 2 in rational arithmetic from the
curve's NumPy reference keys: ``D^avg = (1/n) Σ_α (1/|N(α)|) Σ_{β ∈
N(α)} |π(α) − π(β)|`` and the NN mean as the pair sum over the pair
count.  Every registry curve (and the three transforms over
``hilbert``), on both backends and in dense, chunked and threaded
contexts, must agree with it:

* ``nn_mean`` is ``float(Fraction)`` exactly: the pair sum and count
  are exact integers and the one division is correctly rounded;
* ``davg`` is ``float(Fraction)`` exactly too: the fold sums the
  stretch sums per neighbour-count class as integers and divides
  once, ``Σ_c T_c·(L/c) / (L·n)`` with ``L = lcm(d, …, 2d)``.

A hypothesis property runs the same oracle on random permutation
curves of random small universes.  The paper's closed forms are
oracles at sizes the cell-by-cell oracle cannot reach (2D side 2048,
3D side 128): ``Λ_i(Z)`` is an exact integer and ``D^avg`` of Z and of
the simple curve an exact Fraction, each computed in microseconds.
``D^max``, the NN mean and ``D^avg`` finalize exact integer totals
with one ``int / int`` division, which stays correctly rounded past
``2^53``; synthetic totals test that boundary without allocating
anything large.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.asymptotics import davg_simple_exact, lambda_z_exact
from repro.core.zexact import davg_z_exact
from repro.curves.base import PermutationCurve
from repro.curves.registry import available_curves, curve_is_hidden, make_curve
from repro.engine import chunked, native
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


def _assert_rounds_exactly(make, davg_exact, nn_exact) -> None:
    """Every backend and mode of ``make()``'s curve gives the
    correctly rounded D^avg and NN mean."""
    for backend in BACKENDS:
        for mode, kwargs in MODES.items():
            ctx = MetricContext(make(), backend=backend, **kwargs)
            label = f"{backend}/{mode}"
            assert ctx.nn_mean() == float(nn_exact), label
            assert ctx.davg() == float(davg_exact), label
            if ctx.threaded:
                ctx.scheduler.close()


@pytest.mark.parametrize("universe, spec", CASES)
def test_metrics_round_to_the_exact_oracle(universe, spec):
    davg_exact, nn_exact = exact_metrics(_make(spec, universe))
    _assert_rounds_exactly(
        lambda: _make(spec, universe), davg_exact, nn_exact
    )


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    shape=st.sampled_from(
        [(1, s) for s in range(2, 12)]
        + [(2, s) for s in range(2, 9)]
        + [(3, s) for s in range(2, 5)]
        + [(4, 2), (4, 3), (5, 2)]
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_random_permutations_round_to_the_exact_oracle(shape, seed):
    """A random bijection of a random small universe: D^avg and the NN
    mean are ``float(Fraction)`` on both backends, dense, chunked and
    threaded."""
    universe = Universe(d=shape[0], side=shape[1])
    keys = np.random.default_rng(seed).permutation(universe.n)
    grid = keys.reshape(universe.shape)

    def make():
        return PermutationCurve(universe, key_grid=grid)

    davg_exact, nn_exact = exact_metrics(make())
    _assert_rounds_exactly(make, davg_exact, nn_exact)


def test_oracle_matches_a_hand_count():
    """2x2 simple curve: keys 0 1 / 2 3, every cell has two
    neighbours at distances 1 and 2."""
    curve = CurveSpec.parse("simple").make(Universe(d=2, side=2))
    davg, nn = exact_metrics(curve)
    assert davg == Fraction(3, 2)
    assert nn == Fraction(1 + 1 + 2 + 2, 4)
    assert np.isclose(float(davg), 1.5)


LARGE = [Universe(d=2, side=2048), Universe(d=3, side=128)]
LARGE_MODES = {
    "dense": {},
    "chunked": {"chunk_cells": 2**18},
    "threads2": {"threads": 2},
}


@pytest.mark.parametrize("mode", LARGE_MODES)
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("universe", LARGE, ids=lambda u: f"{u.d}x{u.side}")
def test_paper_closed_forms_at_large_n(universe, backend, mode):
    """``Λ_i(Z)`` is ``==`` :func:`lambda_z_exact`; ``D^avg`` of Z and
    of the simple curve is ``==`` ``float`` of the exact closed
    forms."""
    kwargs = dict(backend=backend, max_bytes=0, **LARGE_MODES[mode])
    z = MetricContext(make_curve("z", universe), **kwargs)
    exact = [lambda_z_exact(universe, i) for i in range(1, universe.d + 1)]
    assert [int(v) for v in z.lambda_sums()] == exact
    for ctx, oracle in (
        (z, davg_z_exact(universe)),
        (
            MetricContext(make_curve("simple", universe), **kwargs),
            davg_simple_exact(universe),
        ),
    ):
        assert ctx.davg() == float(oracle)
        if ctx.threaded:
            ctx.scheduler.close()


@pytest.mark.parametrize(
    "metric, total, count",
    [
        ("dmax", 1187039413221620805, 9),
        ("nn_mean", 1662460411857191065, 12),
        ("davg", 2052054364602709040, 4 * 9),
    ],
)
def test_integer_totals_divide_once_past_2_53(
    metric, total, count, monkeypatch
):
    """A total past ``2^53`` is divided as ``int / int``, not rounded to
    a float first.  The fold of a 3x3 grid (``n = 9`` cells, 12 NN
    pairs) reports a synthetic total in place of its own; a ``D^avg``
    class total of the cells with 4 neighbours counts ``T_4 / (4·9)``.
    """
    assert float(total) / count != total / count
    assert total / count == float(Fraction(total, count))
    kernel = chunked._nn_range_kernel

    def synthetic(ctx, lo, hi, scratch, body=None):
        totals, lambdas, max_sum = kernel(ctx, lo, hi, scratch, body)
        mine = total if lo == 0 else 0
        if metric == "dmax":
            return totals, lambdas, mine
        if metric == "davg":
            return [0, 0, mine], lambdas, max_sum
        return totals, [mine, 0], max_sum

    monkeypatch.setattr(chunked, "_nn_range_kernel", synthetic)
    universe = Universe(d=2, side=3)
    assert (universe.n, 2 * 3 * 2) == (9, 12)
    for backend in BACKENDS:
        for kwargs in MODES.values():
            ctx = MetricContext(
                make_curve("simple", universe), backend=backend, **kwargs
            )
            assert getattr(ctx, metric)() == total / count
