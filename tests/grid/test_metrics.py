"""Tests for grid metrics (Manhattan, Euclidean, Chebyshev; Lemma 6)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.grid.metrics import (
    chebyshev,
    euclidean,
    grid_diameter_euclidean,
    grid_diameter_manhattan,
    manhattan,
)

coords_strategy = st.lists(
    st.integers(min_value=0, max_value=20), min_size=1, max_size=5
)


class TestManhattan:
    def test_basic(self):
        assert manhattan(np.array([1, 1]), np.array([3, 5])) == 6

    def test_zero_for_equal(self):
        assert manhattan(np.array([2, 3, 4]), np.array([2, 3, 4])) == 0

    def test_vectorized(self):
        a = np.array([[0, 0], [1, 1]])
        b = np.array([[1, 0], [4, 5]])
        assert manhattan(a, b).tolist() == [1, 7]

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            manhattan(np.zeros(2), np.zeros(3))


class TestEuclidean:
    def test_basic(self):
        assert euclidean(np.array([0, 0]), np.array([3, 4])) == 5.0

    def test_returns_float(self):
        out = euclidean(np.array([0]), np.array([2]))
        assert out.dtype == np.float64


class TestChebyshev:
    def test_basic(self):
        assert chebyshev(np.array([1, 1]), np.array([3, 2])) == 2

    def test_dominated_by_manhattan(self):
        a, b = np.array([1, 4, 2]), np.array([5, 0, 0])
        assert chebyshev(a, b) <= manhattan(a, b)


class TestDiameters:
    def test_manhattan_diameter(self):
        # Lemma 6: d*(side-1), attained at opposite corners.
        assert grid_diameter_manhattan(3, 8) == 21

    def test_euclidean_diameter(self):
        assert grid_diameter_euclidean(4, 8) == pytest.approx(
            math.sqrt(4) * 7
        )

    def test_diameter_attained(self):
        d, side = 3, 4
        corner_a = np.zeros(d, dtype=int)
        corner_b = np.full(d, side - 1)
        assert manhattan(corner_a, corner_b) == grid_diameter_manhattan(d, side)
        assert euclidean(corner_a, corner_b) == pytest.approx(
            grid_diameter_euclidean(d, side)
        )

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            grid_diameter_manhattan(0, 4)
        with pytest.raises(ValueError):
            grid_diameter_euclidean(2, 0)


@settings(max_examples=80, deadline=None)
@given(a=coords_strategy, data=st.data())
def test_metric_axioms(a, data):
    """Symmetry + triangle inequality for all three metrics."""
    d = len(a)
    b = data.draw(
        st.lists(st.integers(0, 20), min_size=d, max_size=d)
    )
    c = data.draw(
        st.lists(st.integers(0, 20), min_size=d, max_size=d)
    )
    a_arr, b_arr, c_arr = map(np.asarray, (a, b, c))
    for metric in (manhattan, euclidean, chebyshev):
        assert metric(a_arr, b_arr) == metric(b_arr, a_arr)
        assert metric(a_arr, c_arr) <= metric(a_arr, b_arr) + metric(
            b_arr, c_arr
        ) + 1e-9


@settings(max_examples=50, deadline=None)
@given(a=coords_strategy, data=st.data())
def test_metric_orderings(a, data):
    """chebyshev <= euclidean <= manhattan <= d * chebyshev."""
    d = len(a)
    b = data.draw(st.lists(st.integers(0, 20), min_size=d, max_size=d))
    a_arr, b_arr = np.asarray(a), np.asarray(b)
    cheb = float(chebyshev(a_arr, b_arr))
    eucl = float(euclidean(a_arr, b_arr))
    manh = float(manhattan(a_arr, b_arr))
    assert cheb <= eucl + 1e-9
    assert eucl <= manh + 1e-9
    assert manh <= d * cheb + 1e-9
