"""Tests for the stretch-by-distance profile."""

import itertools
from collections import Counter
from fractions import Fraction

import pytest

from repro import Universe
from repro.analysis.profile import (
    stretch_profile_exact,
    stretch_profile_sampled,
)
from repro.curves.random_curve import RandomCurve
from repro.curves.simple import SimpleCurve
from repro.curves.zcurve import ZCurve


class TestExactProfile:
    def test_distances_covered(self):
        u = Universe(d=2, side=4)
        profile = stretch_profile_exact(SimpleCurve(u))
        assert sorted(profile) == list(range(1, 7))  # r = 1..d(side-1)

    def test_r1_matches_nn_average(self):
        """profile(1) is the unweighted mean ∆π over NN pairs."""
        from repro.core.stretch import nn_distance_values

        u = Universe(d=2, side=8)
        z = ZCurve(u)
        profile = stretch_profile_exact(z)
        assert profile[1] == pytest.approx(
            float(nn_distance_values(z).mean())
        )

    def test_weighted_average_is_allpairs_stretch(self):
        """Averaging profile(r) with the pair-count weights recovers
        str_{avg,M} exactly: profile(r) = T_r/(r·count_r), so the
        weighted sum is Σ_r T_r/r — consistency between the modules,
        with the pair counts taken from the cells."""
        from repro.core.allpairs import average_allpairs_stretch_exact
        from repro.engine.context import get_context

        u = Universe(d=2, side=4)
        z = ZCurve(u)
        totals = get_context(z).pair_totals().manhattan
        counts = Counter(
            sum(abs(x - y) for x, y in zip(a, b))
            for a, b in itertools.combinations(u.iter_cells(), 2)
        )
        exact = {r: Fraction(totals[r], r * counts[r]) for r in counts}
        profile = stretch_profile_exact(z)
        assert profile == {r: float(p) for r, p in sorted(exact.items())}
        weighted = sum(exact[r] * counts[r] for r in counts)
        assert float(2 * weighted / (u.n * (u.n - 1))) == (
            average_allpairs_stretch_exact(z)
        )

    def test_random_curve_flat_key_distance(self):
        """For a random bijection E[∆π | r] ≈ (n+1)/3 for every r, so
        profile(r) ≈ (n+1)/(3r) — a 1/r law."""
        u = Universe(d=2, side=16)
        profile = stretch_profile_exact(RandomCurve(u, seed=4))
        expected_const = (u.n + 1) / 3.0
        for r in (1, 3, 6, 10):
            assert profile[r] * r == pytest.approx(expected_const, rel=0.15)

    def test_structured_vs_random_crossover(self):
        """At r=1 the Z curve beats random by Θ(n^{1/d}); the Z profile
        is roughly flat in r while random decays like 1/r, so the two
        cross somewhere before the diameter — the structured advantage
        is specifically a *short-range* phenomenon, which is the
        paper's argument for focusing on nearest neighbors."""
        u = Universe(d=2, side=16)
        z = stretch_profile_exact(ZCurve(u))
        r = stretch_profile_exact(RandomCurve(u, seed=0))
        assert z[1] < r[1] / 5
        # Z's profile is flat within a factor ~2 across the range.
        z_values = [z[rr] for rr in (1, 2, 4, 8, 15)]
        assert max(z_values) / min(z_values) < 2.0
        # A crossover exists: random wins (smaller ratio) at long range.
        max_r = max(z)
        assert r[max_r] < z[max_r]

    def test_rejects_single_cell(self):
        with pytest.raises(ValueError):
            stretch_profile_exact(SimpleCurve(Universe(d=1, side=1)))


class TestSampledProfile:
    def test_matches_exact_on_common_distances(self):
        u = Universe(d=2, side=8)
        z = ZCurve(u)
        exact = stretch_profile_exact(z)
        sampled = stretch_profile_sampled(z, n_pairs=200_000, seed=1)
        for r in (1, 2, 4, 8):
            assert sampled[r] == pytest.approx(exact[r], rel=0.1)

    def test_deterministic(self):
        u = Universe(d=2, side=8)
        z = ZCurve(u)
        a = stretch_profile_sampled(z, n_pairs=10_000, seed=2)
        b = stretch_profile_sampled(z, n_pairs=10_000, seed=2)
        assert a == b

    def test_rejects_bad_args(self):
        u = Universe(d=2, side=4)
        with pytest.raises(ValueError):
            stretch_profile_sampled(ZCurve(u), n_pairs=0)
