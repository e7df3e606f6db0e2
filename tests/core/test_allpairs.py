"""Tests for the all-pairs stretch and the Lemma 2 identity."""

import math
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Universe
from repro.core.allpairs import (
    average_allpairs_stretch_exact,
    average_allpairs_stretch_sampled,
    lemma2_sum_exact,
    lemma2_sum_measured,
    pair_totals,
)
from repro.curves.random_curve import RandomCurve
from repro.curves.simple import SimpleCurve
from repro.curves.zcurve import ZCurve

from tests.core.test_exact_oracle import exact_metrics


class TestLemma2:
    def test_closed_form_small(self):
        # n=4: sum over ordered pairs of |i-j| for keys {0,1,2,3} = 20.
        assert lemma2_sum_exact(4) == 20

    def test_closed_form_formula(self):
        for n in (2, 3, 8, 64, 1000):
            assert lemma2_sum_exact(n) == (n - 1) * n * (n + 1) // 3

    def test_measured_equals_exact_for_every_curve(self, zoo_2d):
        """Lemma 2: the identity holds for EVERY bijection."""
        for name, curve in zoo_2d.items():
            assert lemma2_sum_measured(curve) == lemma2_sum_exact(64), name

    def test_measured_3d(self, zoo_3d):
        for curve in zoo_3d.values():
            assert lemma2_sum_measured(curve) == lemma2_sum_exact(64)

    def test_measured_brute_force(self):
        u = Universe(d=2, side=3)
        z = SimpleCurve(u)
        keys = z.key_grid().reshape(-1)
        brute = sum(
            abs(int(a) - int(b)) for a in keys for b in keys
        )
        assert lemma2_sum_measured(z) == brute

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_lemma2_random_bijections(self, seed):
        """Property: the identity is permutation-invariant."""
        u = Universe(d=2, side=4)
        curve = RandomCurve(u, seed=seed)
        assert lemma2_sum_measured(curve) == lemma2_sum_exact(u.n)

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            lemma2_sum_exact(0)


def _assert_oracle(curve, metric):
    """Manhattan is ``float`` of the exact Fraction; Euclidean is
    within 1 ulp of the 50-digit Decimal."""
    *_, manhattan, euclidean = exact_metrics(curve)
    value = average_allpairs_stretch_exact(curve, metric)
    if metric == "manhattan":
        assert value == float(manhattan)
    else:
        assert abs(Decimal(value) - euclidean) <= Decimal(math.ulp(value))


class TestExactAllPairs:
    @pytest.mark.parametrize("metric", ["manhattan", "euclidean"])
    def test_matches_brute_force_simple(self, metric):
        _assert_oracle(SimpleCurve(Universe(d=2, side=4)), metric)

    @pytest.mark.parametrize("metric", ["manhattan", "euclidean"])
    def test_matches_brute_force_z(self, metric):
        _assert_oracle(ZCurve(Universe(d=2, side=4)), metric)

    def test_euclidean_le_sqrt2_manhattan_relation(self):
        """∆_E ≥ ∆/√2 in the paper's Lemma 7 proof ⇒ str_E ≤ √2·str_M
        ... per-pair; averages inherit the inequality."""
        u = Universe(d=2, side=4)
        s = SimpleCurve(u)
        m = average_allpairs_stretch_exact(s, "manhattan")
        e = average_allpairs_stretch_exact(s, "euclidean")
        assert e <= np.sqrt(2) * m + 1e-12
        assert e >= m - 1e-12  # ∆_E ≤ ∆ pointwise ⇒ ratios grow

    def test_rejects_bad_metric(self):
        with pytest.raises(ValueError, match="metric"):
            average_allpairs_stretch_exact(
                SimpleCurve(Universe(d=2, side=4)), "cosine"
            )

    def test_rejects_single_cell(self):
        with pytest.raises(ValueError):
            average_allpairs_stretch_exact(
                SimpleCurve(Universe(d=1, side=1))
            )


def _class_totals(keys: np.ndarray, rows: int = 256) -> tuple:
    """``(T_m, count_m, T_s)`` pair by pair, in row blocks: every pair
    of cells with the first of rank below the second, binned by its
    Manhattan and squared Euclidean distance (float bins, exact while
    the totals stay below 2^53)."""
    cells = np.indices(keys.shape).reshape(keys.ndim, -1).T
    flat = keys.reshape(-1)
    n = flat.size
    top = keys.ndim * (keys.shape[0] - 1) ** 2 + 1
    sums = np.zeros((3, top))
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        delta = cells[lo:hi, None, :] - cells[None, :, :]
        later = np.arange(lo, hi)[:, None] < np.arange(n)[None, :]
        key_dist = np.abs(flat[lo:hi, None] - flat[None, :])[later]
        m = np.abs(delta).sum(-1)[later]
        s = (delta * delta).sum(-1)[later]
        sums[0] += np.bincount(m, weights=key_dist, minlength=top)
        sums[1] += np.bincount(m, minlength=top)
        sums[2] += np.bincount(s, weights=key_dist, minlength=top)
    return tuple({k: int(v) for k, v in enumerate(row) if v} for row in sums)


class TestPairTotals:
    """The fold against a pair-by-pair count, on universes where it
    pairs slices along several leading axes (offsets with negative
    entries), along one, or none (one block)."""

    @pytest.mark.parametrize(
        "d, side",
        [(1, 100), (2, 65), (3, 9), (8, 2), (2, 8)],
        ids=lambda v: str(v),
    )
    def test_matches_pair_by_pair_totals(self, d, side):
        universe = Universe(d=d, side=side)
        rng = np.random.default_rng(d * 1000 + side)
        keys = rng.permutation(universe.n).reshape(universe.shape)
        totals = pair_totals(keys)
        manhattan, counts, euclidean = _class_totals(keys)
        assert totals.manhattan == manhattan
        assert totals.counts == counts
        assert totals.euclidean == euclidean
        assert 2 * sum(totals.manhattan.values()) == lemma2_sum_exact(
            universe.n
        )


class TestSampledAllPairs:
    def test_unbiased_against_exact(self):
        u = Universe(d=2, side=8)
        z = ZCurve(u)
        exact = average_allpairs_stretch_exact(z)
        est = average_allpairs_stretch_sampled(z, n_pairs=40_000, seed=1)
        assert est.compatible_with(exact)

    def test_euclidean_metric(self):
        u = Universe(d=2, side=8)
        z = ZCurve(u)
        exact = average_allpairs_stretch_exact(z, "euclidean")
        est = average_allpairs_stretch_sampled(
            z, n_pairs=40_000, metric="euclidean", seed=2
        )
        assert est.compatible_with(exact)

    def test_ci_width_shrinks_with_samples(self):
        u = Universe(d=2, side=16)
        z = ZCurve(u)
        small = average_allpairs_stretch_sampled(z, n_pairs=1_000, seed=0)
        large = average_allpairs_stretch_sampled(z, n_pairs=50_000, seed=0)
        assert large.stderr < small.stderr

    def test_deterministic_for_seed(self):
        u = Universe(d=2, side=8)
        z = ZCurve(u)
        a = average_allpairs_stretch_sampled(z, n_pairs=1_000, seed=9)
        b = average_allpairs_stretch_sampled(z, n_pairs=1_000, seed=9)
        assert a.mean == b.mean

    def test_ci95_contains_mean(self):
        u = Universe(d=2, side=8)
        est = average_allpairs_stretch_sampled(ZCurve(u), 1_000, seed=0)
        lo, hi = est.ci95
        assert lo <= est.mean <= hi

    def test_rejects_tiny_sample(self):
        with pytest.raises(ValueError):
            average_allpairs_stretch_sampled(
                ZCurve(Universe(d=2, side=4)), n_pairs=1
            )

    def test_pairs_never_identical(self):
        """The sampler must never draw α == β (ratio would be inf)."""
        u = Universe(d=1, side=2)  # tiny universe maximizes collision risk
        est = average_allpairs_stretch_sampled(
            SimpleCurve(u), n_pairs=1_000, seed=3
        )
        assert np.isfinite(est.mean)
        assert est.mean == pytest.approx(1.0)  # only pair: (0,1), ratio 1


class TestSchedulerParity:
    """The sampled estimate's scheduler parameter fans its ratio
    evaluation out over worker threads without changing a single bit
    of the result."""

    @pytest.mark.parametrize("threads", (2, 4))
    def test_sampled_threaded_matches_serial(self, threads):
        from repro.engine.threads import BlockScheduler

        u = Universe(d=2, side=8)
        z = RandomCurve(u, seed=7)
        serial = average_allpairs_stretch_sampled(z, n_pairs=5_000, seed=2)
        scheduler = BlockScheduler(threads)
        try:
            threaded = average_allpairs_stretch_sampled(
                z, n_pairs=5_000, seed=2, scheduler=scheduler
            )
        finally:
            scheduler.close()
        assert threaded.mean == serial.mean
        assert threaded.stderr == serial.stderr
