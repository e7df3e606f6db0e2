"""Tests for the seeded random bijection curve."""

import numpy as np
import pytest

from repro import Universe
from repro.curves.random_curve import RandomCurve, expected_random_nn_stretch


class TestRandomCurve:
    def test_bijection(self):
        assert RandomCurve(Universe(d=2, side=8), seed=1).is_bijection()

    def test_deterministic_for_seed(self):
        u = Universe(d=2, side=4)
        a = RandomCurve(u, seed=7)
        b = RandomCurve(u, seed=7)
        assert np.array_equal(a.key_grid(), b.key_grid())

    def test_different_seeds_differ(self):
        u = Universe(d=2, side=8)
        a = RandomCurve(u, seed=1)
        b = RandomCurve(u, seed=2)
        assert not np.array_equal(a.key_grid(), b.key_grid())

    def test_roundtrip(self):
        u = Universe(d=2, side=4)
        c = RandomCurve(u, seed=0)
        idx = np.arange(u.n)
        assert np.array_equal(c.index(c.coords(idx)), idx)

    def test_works_on_any_side(self):
        assert RandomCurve(Universe(d=3, side=5), seed=0).is_bijection()

    @pytest.mark.parametrize("seed", [True, False, 1.0, 1.5, "3"])
    def test_non_integer_seed_refused(self, seed):
        with pytest.raises(ValueError, match="seed must be an integer"):
            RandomCurve(Universe(d=2, side=4), seed=seed)

    def test_numpy_integer_seed_accepted(self):
        u = Universe(d=2, side=4)
        curve = RandomCurve(u, seed=np.int64(3))
        assert type(curve.seed) is int
        assert np.array_equal(
            curve.key_grid(), RandomCurve(u, seed=3).key_grid()
        )

    def test_bool_seed_is_a_sweep_construction_error(self):
        """``random:seed=true`` no longer runs seed 1 under its own
        label; the sweep skips it like ``random:seed=-1``."""
        from repro.engine.sweep import Sweep

        result = Sweep(
            dims=[2], sides=[4], curves=["random:seed=true"],
            metrics=["davg"], reports=False,
        ).run()
        assert result.records == []
        (skip,) = result.skipped
        assert skip.reason.startswith("construction error: seed must be")


class TestExpectedStretch:
    def test_formula(self):
        # E|X - Y| for distinct uniform keys in {0..n-1} is (n+1)/3.
        assert expected_random_nn_stretch(2) == 1.0
        assert expected_random_nn_stretch(5) == 2.0

    def test_brute_force_small_n(self):
        n = 6
        total = sum(
            abs(i - j) for i in range(n) for j in range(n) if i != j
        )
        assert expected_random_nn_stretch(n) == pytest.approx(
            total / (n * (n - 1))
        )

    def test_rejects_tiny_n(self):
        with pytest.raises(ValueError):
            expected_random_nn_stretch(1)

    def test_random_davg_concentrates_near_expectation(self):
        """D^avg of a random bijection ≈ (n+1)/3, far above structured
        curves — the baseline motivating the whole paper."""
        from repro.core.stretch import average_average_nn_stretch

        u = Universe(d=2, side=16)
        davg = average_average_nn_stretch(RandomCurve(u, seed=3))
        expected = expected_random_nn_stretch(u.n)
        assert davg == pytest.approx(expected, rel=0.1)
