"""Closed-form keys for Moore, spiral, diagonal and simple.

The four curves compute keys arithmetically: a NumPy reference
(``index``/``coords``) and a native codec (point encode/decode and the
one-call ``key_slab``).  Following the exact-reference pattern, both are
compared ``==`` to independent constructions over whole input ranges:

* the visit-order builders the curves used to tabulate (``moore_order``,
  ``spiral_order``, the stable argsort of the coordinate sums), kept in
  ``tests/curve_oracles.py``; the simple curve's oracle is the rank
  order itself;
* sides 1..64, odd sides, 1024 and d = 1..4 where the curve applies;
* every slab ``(lo, hi)`` up to side 64 and off-partition sub-ranges
  read through a chunked context.

A chunked context of each curve builds only its slabs (the curve keeps
no dense table) and writes nothing to a store.  Universes whose keys
cannot fit int64 are refused at construction.
"""

from __future__ import annotations

import numpy as np
import pytest
from curve_oracles import (
    diagonal_key_grid,
    moore_order,
    order_key_grid,
    spiral_order,
)

from repro.curves.base import SpaceFillingCurve
from repro.curves.registry import make_curve
from repro.engine import native
from repro.engine.context import MetricContext
from repro.engine.store import GridStore
from repro.engine.sweep import Sweep
from repro.grid.universe import Universe

requires_native = pytest.mark.skipif(
    not native.available(),
    reason=f"native backend unavailable: {native.unavailable_reason()}",
)

SIDES_2D = list(range(1, 65)) + [101, 1024]


def _oracle(name: str, universe: Universe) -> np.ndarray:
    """The C-order key grid of ``name`` by an independent construction."""
    if name == "moore":
        return order_key_grid(universe, moore_order(universe.k))
    if name == "spiral":
        return order_key_grid(universe, spiral_order(universe.side))
    if name == "diagonal":
        return diagonal_key_grid(universe)
    # simple: the key is the rank, i.e. the Fortran-order position.
    ranks = np.arange(universe.n, dtype=np.int64)
    return np.ascontiguousarray(ranks.reshape(universe.shape, order="F"))


def _cases():
    cases = [("moore", 2, 1 << k) for k in range(1, 11)]
    cases += [("spiral", 2, side) for side in SIDES_2D]
    for d, sides in (
        (1, list(range(1, 65)) + [1024]),
        (2, SIDES_2D),
        (3, list(range(1, 33)) + [64]),
        (4, list(range(1, 13))),
    ):
        cases += [(name, d, side) for name in ("diagonal", "simple")
                  for side in sides]
    return cases


CASES = _cases()


def _ids(case):
    name, d, side = case
    return f"{name}-{d}x{side}"


@pytest.mark.parametrize("case", CASES, ids=_ids)
def test_reference_equals_oracle(case):
    """``key_grid()`` and the inverse of the NumPy closed form."""
    name, d, side = case
    universe = Universe(d=d, side=side)
    curve = make_curve(name, universe)
    expected = _oracle(name, universe)
    assert np.array_equal(curve.key_grid(), expected)
    if universe.n <= 4096 or side == 1024:
        keys = np.arange(universe.n, dtype=np.int64)
        cells = curve.coords(keys)
        assert np.array_equal(expected[tuple(cells.T)], keys)


def _spans(side: int):
    """Every ``(lo, hi)`` up to side 64; for a larger side the whole
    axis, single planes, prefixes, suffixes and misaligned spans."""
    if side <= 64:
        return [(lo, hi) for lo in range(side + 1)
                for hi in range(lo, side + 1)]
    picks = {0, 1, 2, 3, side // 3, side // 2 - 1, side // 2,
             side // 2 + 1, side - 2, side - 1, side}
    return [(lo, hi) for lo in sorted(picks) for hi in sorted(picks)
            if lo <= hi]


@requires_native
@pytest.mark.parametrize("case", CASES, ids=_ids)
def test_native_codec_equals_oracle(case):
    """Slabs, point encode and decode of the native codec."""
    name, d, side = case
    universe = Universe(d=d, side=side)
    curve = make_curve(name, universe)
    codec = native.encoder_for(curve)
    if side == 1 or (name == "diagonal" and d == 1):
        assert codec is None  # degenerate: the NumPy form serves
        return
    assert codec is not None
    expected = _oracle(name, universe)
    for lo, hi in _spans(side):
        slab = codec.key_slab(lo, hi)
        assert slab.shape == expected[lo:hi].shape
        assert np.array_equal(slab, expected[lo:hi]), (lo, hi)
    cells = universe.all_coords()
    keys = codec.encode(cells)
    assert np.array_equal(keys, curve.index(cells))
    assert np.array_equal(codec.decode(keys), cells)


CHUNKED = [("moore", 2, 16), ("spiral", 2, 13), ("diagonal", 2, 13),
           ("diagonal", 3, 7), ("simple", 2, 13), ("simple", 3, 7)]


@pytest.mark.parametrize(
    "backend", ["numpy", pytest.param("native", marks=requires_native)]
)
@pytest.mark.parametrize("case", CHUNKED, ids=_ids)
class TestChunkedBuildsOnlySlabs:
    def test_davg_without_a_dense_table(self, case, backend, tmp_path):
        name, d, side = case
        universe = Universe(d=d, side=side)
        store = GridStore(tmp_path)
        plane = side ** (d - 1)
        ctx = MetricContext(
            make_curve(name, universe), chunk_cells=3 * plane,
            backend=backend, store=store,
        )
        dense = MetricContext(make_curve(name, universe), backend="numpy")
        assert len(ctx._slab_ranges()) > 1
        assert ctx.davg() == dense.davg()
        assert ctx.dmax() == dense.dmax()
        assert ctx.nn_mean() == dense.nn_mean()
        assert ctx.curve._key_grid_cache is None
        assert store.entries() == []

    def test_off_partition_reads(self, case, backend):
        """Sub-ranges that cut across the slab partition, cached or not,
        equal the oracle's slices."""
        name, d, side = case
        universe = Universe(d=d, side=side)
        expected = _oracle(name, universe)
        plane = side ** (d - 1)
        for max_bytes in (None, 0):
            kwargs = {} if max_bytes is None else {"max_bytes": max_bytes}
            ctx = MetricContext(
                make_curve(name, universe), chunk_cells=3 * plane,
                backend=backend, **kwargs,
            )
            list(ctx.iter_key_slabs())
            for lo, hi in (
                (1, 2), (2, 4), (2, 5), (4, 7), (5, side), (0, side)
            ):
                assert np.array_equal(ctx._key_slab(lo, hi), expected[lo:hi])
            assert ctx.curve._key_grid_cache is None


class TestInt64KeyRange:
    @pytest.mark.parametrize(
        "d,side", [(2, 2**32), (3, 2**21 + 1), (1, 2**63 + 1)]
    )
    @pytest.mark.parametrize(
        "name", ["simple", "snake", "diagonal", "spiral", "moore", "z"]
    )
    def test_construction_refuses_keys_past_int64(self, name, d, side):
        universe = Universe(d=d, side=side)
        with pytest.raises(ValueError):
            make_curve(name, universe)

    def test_base_class_check_names_the_range(self):
        class Probe(SpaceFillingCurve):
            def _index_impl(self, coords):
                raise AssertionError("never evaluated")

        with pytest.raises(ValueError, match="int64"):
            Probe(Universe(d=2, side=2**32))
        Probe(Universe(d=1, side=2**63))  # keys 0 .. 2^63 - 1 fit

    @pytest.mark.parametrize("name", ["simple", "snake", "diagonal", "spiral"])
    def test_largest_key_of_the_largest_2d_grid(self, name):
        """n just below 2^63: the corner keys come out exact, with no
        grid allocated."""
        side = 3037000499  # floor(sqrt(2^63))
        universe = Universe(d=2, side=side)
        curve = make_curve(name, universe)
        corners = np.array(
            [[0, 0], [side - 1, 0], [0, side - 1], [side - 1, side - 1]]
        )
        keys = curve.index(corners)
        assert keys.min() >= 0 and keys.max() < universe.n
        assert np.array_equal(curve.coords(keys), corners)
        for backend in ("numpy", "native"):
            assert np.array_equal(curve.keys_of(corners, backend), keys)
            assert np.array_equal(curve.coords_of(keys, backend), corners)

    def test_sweep_reports_a_construction_skip(self):
        result = Sweep(
            dims=[2], sides=[2**32], curves=["simple", "snake"],
            metrics=("davg",), reports=False,
        ).run()
        assert result.records == []
        assert [s.spec for s in result.skipped] == ["simple", "snake"]
        assert all(
            s.reason.startswith("construction error") and "int64" in s.reason
            for s in result.skipped
        )
