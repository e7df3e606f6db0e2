"""Tests for the SFC base classes (key grids, orders, PermutationCurve)."""

import numpy as np
import pytest

from repro import Universe
from repro.curves.base import PermutationCurve, check_bijection
from repro.curves.simple import SimpleCurve
from repro.curves.zcurve import ZCurve
from repro.engine import native


class TestCheckBijection:
    def test_accepts_permutation(self):
        assert check_bijection(np.array([[3, 1], [2, 0]]), 4)

    def test_rejects_duplicate(self):
        assert not check_bijection(np.array([[0, 1], [1, 3]]), 4)

    def test_rejects_out_of_range(self):
        assert not check_bijection(np.array([[0, 1], [2, 4]]), 4)

    def test_rejects_negative(self):
        assert not check_bijection(np.array([[0, 1], [2, -1]]), 4)

    def test_rejects_wrong_size(self):
        assert not check_bijection(np.array([0, 1, 2]), 4)


class TestKeyGrid:
    def test_indexable_by_coords(self, u2_8):
        z = ZCurve(u2_8)
        grid = z.key_grid()
        for cell in [(0, 0), (3, 5), (7, 7)]:
            assert grid[cell] == int(z.index(np.asarray(cell)))

    def test_contiguous(self, u2_8):
        assert ZCurve(u2_8).key_grid().flags["C_CONTIGUOUS"]


class TestOrder:
    def test_order_inverts_index(self, u2_8):
        z = ZCurve(u2_8)
        path = z.order()
        keys = z.index(path)
        assert np.array_equal(keys, np.arange(u2_8.n))

    def test_order_covers_all_cells(self, u3_4):
        z = ZCurve(u3_4)
        cells = {tuple(r) for r in z.order()}
        assert len(cells) == u3_4.n


class TestCurveDistance:
    def test_definition(self, u2_8):
        z = ZCurve(u2_8)
        a, b = np.array([1, 2]), np.array([5, 0])
        assert z.curve_distance(a, b) == abs(
            int(z.index(a)) - int(z.index(b))
        )

    def test_symmetry(self, u2_8):
        z = ZCurve(u2_8)
        a, b = np.array([0, 7]), np.array([7, 0])
        assert z.curve_distance(a, b) == z.curve_distance(b, a)


class TestGenericInverse:
    def test_argsort_inverse_matches_analytic(self, u2_8):
        """The base-class inverse (used by permutation curves) must agree
        with an analytic inverse."""

        class NoInverseZ(ZCurve):
            _coords_impl = PermutationCurve.__mro__[1]._coords_impl  # base

        generic = NoInverseZ(u2_8)
        analytic = ZCurve(u2_8)
        idx = np.arange(u2_8.n)
        assert np.array_equal(generic.coords(idx), analytic.coords(idx))


class TestPermutationCurve:
    def test_from_key_grid(self):
        u = Universe(d=2, side=2)
        grid = np.array([[0, 2], [1, 3]])
        curve = PermutationCurve(u, key_grid=grid, name="custom")
        assert curve.name == "custom"
        assert int(curve.index(np.array([0, 1]))) == 2

    def test_from_order(self):
        u = Universe(d=2, side=2)
        order = np.array([[0, 0], [1, 0], [1, 1], [0, 1]])
        curve = PermutationCurve(u, order=order)
        assert np.array_equal(curve.order(), order)
        assert curve.is_continuous()

    def test_order_and_grid_agree(self, u2_8):
        z = ZCurve(u2_8)
        clone = PermutationCurve(u2_8, key_grid=z.key_grid().copy())
        assert np.array_equal(clone.order(), z.order())

    @pytest.mark.parametrize(
        "backend",
        [
            "numpy",
            pytest.param(
                "native",
                marks=pytest.mark.skipif(
                    not native.available(), reason="native backend unavailable"
                ),
            ),
        ],
    )
    def test_few_point_encode_reads_the_table_in_place(self, backend):
        """Encoding a few points indexes the C-order table: no O(n)
        flattening of it per call."""
        import tracemalloc

        u = Universe(d=2, side=512)
        rng = np.random.default_rng(5)
        curve = PermutationCurve(
            u, key_grid=rng.permutation(u.n).reshape(u.shape)
        )
        coords = np.array([[0, 0], [511, 3], [7, 511], [200, 100]])
        expected = curve.key_grid()[tuple(coords.T)]
        tracemalloc.start()
        try:
            keys = curve.keys_of(coords, backend=backend)
            points = curve.index(coords[:, None, :])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(keys, expected)
        assert np.array_equal(points, expected[:, None])
        assert peak < curve.key_grid().nbytes // 16, peak

    def test_rejects_both_arguments(self):
        u = Universe(d=2, side=2)
        with pytest.raises(ValueError, match="exactly one"):
            PermutationCurve(
                u, key_grid=np.zeros((2, 2)), order=np.zeros((4, 2))
            )

    def test_rejects_neither_argument(self):
        with pytest.raises(ValueError, match="exactly one"):
            PermutationCurve(Universe(d=2, side=2))

    def test_rejects_non_bijection_grid(self):
        u = Universe(d=2, side=2)
        with pytest.raises(ValueError, match="bijection"):
            PermutationCurve(u, key_grid=np.zeros((2, 2), dtype=int))

    def test_rejects_wrong_shape_grid(self):
        u = Universe(d=2, side=2)
        with pytest.raises(ValueError, match="shape"):
            PermutationCurve(u, key_grid=np.arange(9).reshape(3, 3))

    def test_rejects_wrong_order_shape(self):
        u = Universe(d=2, side=2)
        with pytest.raises(ValueError, match="shape"):
            PermutationCurve(u, order=np.zeros((3, 2), dtype=int))

    def test_rejects_duplicate_order_cells(self):
        u = Universe(d=2, side=2)
        order = np.array([[0, 0], [0, 0], [1, 1], [0, 1]])
        with pytest.raises(ValueError):
            PermutationCurve(u, order=order)


class TestContinuity:
    def test_simple_curve_not_continuous_above_1d(self, u2_8):
        assert not SimpleCurve(u2_8).is_continuous()

    def test_simple_curve_continuous_in_1d(self):
        assert SimpleCurve(Universe(d=1, side=8)).is_continuous()

    def test_every_zoo_curve_is_bijection(self, zoo_2d, zoo_3d):
        for zoo in (zoo_2d, zoo_3d):
            for name, curve in zoo.items():
                assert curve.is_bijection(), name


class TestInstanceCacheTokens:
    """Instance-keyed cache tokens must never alias across lifetimes."""

    def test_distinct_instances_distinct_keys(self):
        u = Universe(d=2, side=2)
        order = u.all_coords()
        a = PermutationCurve(u, order=order)
        b = PermutationCurve(u, order=order)
        assert a.cache_key() != b.cache_key()

    def test_token_survives_id_reuse(self):
        """A gc'd table's token is never handed to a new table.

        With id()-based tokens, allocating a new curve right after one
        is collected can reuse the address and silently alias the dead
        curve's pooled context; the monotonic token cannot collide.
        """
        import gc

        u = Universe(d=2, side=2)
        order = u.all_coords()
        seen = set()
        for _ in range(50):
            curve = PermutationCurve(u, order=order)
            token = curve._cache_token()
            assert token not in seen, "instance token was reused"
            seen.add(token)
            del curve
            gc.collect()

    def test_deterministic_subclasses_still_share(self):
        class Fixed(PermutationCurve):
            _deterministic = True

        u = Universe(d=2, side=2)
        a = Fixed(u, order=u.all_coords())
        b = Fixed(u, order=u.all_coords())
        assert a.cache_key() == b.cache_key()
