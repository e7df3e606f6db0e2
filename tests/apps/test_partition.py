"""Tests for SFC domain decomposition."""

import numpy as np
import pytest

from repro import Universe
from repro.apps.partition import (
    edge_cut,
    load_imbalance,
    partition_by_curve,
    partition_quality,
)
from repro.curves.hilbert import HilbertCurve
from repro.curves.random_curve import RandomCurve
from repro.curves.simple import SimpleCurve
from repro.curves.zcurve import ZCurve
from repro.engine.pool import ContextPool
from repro.engine.sweep import CurveSpec


def _oracle_labels(curve, n_parts, weights=None):
    """Reference label grid: the 1-D cut of the curve order, read back
    through the curve's reference key grid."""
    keys = np.asarray(curve.key_grid())
    n = keys.size
    along = (np.arange(n, dtype=np.int64) * n_parts) // n
    if weights is not None:
        order_weights = np.empty(n, dtype=np.float64)
        order_weights[keys.reshape(-1)] = np.asarray(
            weights, dtype=np.float64
        ).reshape(-1)
        cumulative = np.cumsum(order_weights)
        if cumulative[-1] > 0:
            mids = cumulative - order_weights / 2.0
            along = np.minimum(
                (mids / cumulative[-1] * n_parts).astype(np.int64),
                n_parts - 1,
            )
    return along[keys]


def _oracle_quality(curve, n_parts, weights=None):
    """``(imbalance, edge_cut)`` of the oracle labels."""
    labels = _oracle_labels(curve, n_parts, weights)
    return (
        load_imbalance(labels, n_parts, weights),
        edge_cut(curve.universe, labels),
    )


class TestPartitionByCurve:
    def test_labels_shape_and_range(self, u2_8):
        labels = partition_by_curve(ZCurve(u2_8), 4)
        assert labels.shape == u2_8.shape
        assert labels.min() == 0
        assert labels.max() == 3

    def test_equal_counts_without_weights(self, u2_8):
        labels = partition_by_curve(ZCurve(u2_8), 4)
        counts = np.bincount(labels.reshape(-1))
        assert counts.tolist() == [16, 16, 16, 16]

    def test_parts_are_curve_contiguous(self, u2_8):
        """Each part is a contiguous curve segment (the defining
        property of SFC partitioning)."""
        z = ZCurve(u2_8)
        labels = partition_by_curve(z, 4)
        along_curve = labels.reshape(-1)[np.argsort(z.key_grid().reshape(-1))]
        # labels along the curve must be sorted.
        assert np.all(np.diff(along_curve) >= 0)

    def test_single_part(self, u2_8):
        labels = partition_by_curve(ZCurve(u2_8), 1)
        assert np.all(labels == 0)

    def test_n_parts_equals_n(self, u2_8):
        labels = partition_by_curve(ZCurve(u2_8), u2_8.n)
        assert len(np.unique(labels)) == u2_8.n

    def test_rejects_bad_parts(self, u2_8):
        with pytest.raises(ValueError):
            partition_by_curve(ZCurve(u2_8), 0)
        with pytest.raises(ValueError):
            partition_by_curve(ZCurve(u2_8), u2_8.n + 1)

    def test_weighted_split_balances_mass(self, u2_8):
        """Heavy half of the grid gets more parts under weighting."""
        weights = np.ones(u2_8.shape)
        weights[4:, :] = 10.0  # right half is heavy
        labels = partition_by_curve(ZCurve(u2_8), 4, weights)
        imbalance = load_imbalance(labels, 4, weights)
        uniform_labels = partition_by_curve(ZCurve(u2_8), 4)
        uniform_imbalance = load_imbalance(uniform_labels, 4, weights)
        assert imbalance < uniform_imbalance

    def test_weight_shape_mismatch(self, u2_8):
        with pytest.raises(ValueError, match="shape"):
            partition_by_curve(ZCurve(u2_8), 2, np.ones((4, 4)))

    def test_negative_weights_rejected(self, u2_8):
        weights = np.ones(u2_8.shape)
        weights[0, 0] = -1
        with pytest.raises(ValueError, match="non-negative"):
            partition_by_curve(ZCurve(u2_8), 2, weights)

    def test_zero_total_weight_falls_back(self, u2_8):
        labels = partition_by_curve(ZCurve(u2_8), 4, np.zeros(u2_8.shape))
        assert len(np.unique(labels)) == 4


class TestQualityMetrics:
    def test_imbalance_perfect(self, u2_8):
        labels = partition_by_curve(ZCurve(u2_8), 4)
        assert load_imbalance(labels, 4) == 1.0

    def test_imbalance_rejects_zero_load(self):
        with pytest.raises(ValueError):
            load_imbalance(np.zeros((2, 2), dtype=int), 2, np.zeros((2, 2)))

    def test_edge_cut_counts_crossings(self, u2_8):
        """Splitting the 8x8 grid into two x-halves cuts exactly 8 pairs."""
        labels = np.zeros(u2_8.shape, dtype=np.int64)
        labels[4:, :] = 1
        assert edge_cut(u2_8, labels) == 8

    def test_edge_cut_zero_for_single_part(self, u2_8):
        assert edge_cut(u2_8, np.zeros(u2_8.shape, dtype=int)) == 0

    def test_edge_cut_shape_check(self, u2_8):
        with pytest.raises(ValueError):
            edge_cut(u2_8, np.zeros((4, 4), dtype=int))

    def test_partition_quality_struct(self, u2_8):
        q = partition_quality(ZCurve(u2_8), 8)
        assert q.n_parts == 8
        assert 0 < q.cut_fraction < 1
        assert q.imbalance >= 1.0


class TestSurfaceMetrics:
    def test_surface_counts_sum_to_twice_cut(self, u2_8):
        from repro.apps.partition import part_surface_counts

        labels = partition_by_curve(ZCurve(u2_8), 4)
        surface = part_surface_counts(u2_8, labels)
        assert surface.sum() == 2 * edge_cut(u2_8, labels)

    def test_surface_single_part_zero(self, u2_8):
        from repro.apps.partition import part_surface_counts

        labels = np.zeros(u2_8.shape, dtype=np.int64)
        assert part_surface_counts(u2_8, labels).tolist() == [0]

    def test_half_split_surface(self, u2_8):
        from repro.apps.partition import part_surface_counts

        labels = np.zeros(u2_8.shape, dtype=np.int64)
        labels[4:, :] = 1
        assert part_surface_counts(u2_8, labels).tolist() == [8, 8]

    def test_surface_to_volume_compactness(self):
        """Quadrant blocks are more compact than strips."""
        from repro.apps.partition import mean_surface_to_volume

        u = Universe.power_of_two(d=2, k=4)
        z_labels = partition_by_curve(ZCurve(u), 4)  # 8x8 quadrants
        s_labels = partition_by_curve(SimpleCurve(u), 4)  # 16x4 strips
        assert mean_surface_to_volume(u, z_labels) < mean_surface_to_volume(
            u, s_labels
        )

    def test_surface_to_volume_rejects_empty_part(self, u2_8):
        from repro.apps.partition import mean_surface_to_volume

        labels = np.zeros(u2_8.shape, dtype=np.int64)
        labels[0, 0] = 2  # part 1 empty
        with pytest.raises(ValueError, match="non-empty"):
            mean_surface_to_volume(u2_8, labels)

    def test_shape_check(self, u2_8):
        from repro.apps.partition import part_surface_counts

        with pytest.raises(ValueError):
            part_surface_counts(u2_8, np.zeros((4, 4), dtype=int))


class TestCurveComparison:
    def test_locality_curves_beat_random(self, u2_8):
        """The application-level payoff of stretch: structured curves
        cut far fewer NN pairs than a random bijection."""
        cut_h = partition_quality(HilbertCurve(u2_8), 8).edge_cut
        cut_r = partition_quality(RandomCurve(u2_8), 8).edge_cut
        assert cut_h < cut_r / 2

    def test_hilbert_and_z_beat_simple_at_many_parts(self):
        """Recursive curves produce compact parts; strips of the simple
        curve get long and thin as p grows."""
        u = Universe.power_of_two(d=2, k=5)
        cut_z = partition_quality(ZCurve(u), 32).edge_cut
        cut_s = partition_quality(SimpleCurve(u), 32).edge_cut
        assert cut_z < cut_s


class TestChunkedPartition:
    """Chunked contexts partition (weighted included) bit-for-bit like
    the test-local oracle."""

    @pytest.mark.parametrize("chunk", (1, 7, 16, 100))
    def test_unweighted_labels_match_dense(self, u2_8, chunk):
        from repro.engine.context import MetricContext

        dense = _oracle_labels(ZCurve(u2_8), 4)
        ctx = MetricContext(ZCurve(u2_8), chunk_cells=chunk)
        assert np.array_equal(partition_by_curve(ctx, 4), dense)

    @pytest.mark.parametrize("chunk", (1, 7, 16, 100))
    def test_weighted_labels_match_dense(self, u2_8, chunk):
        from repro.engine.context import MetricContext

        weights = np.ones(u2_8.shape)
        weights[4:, :] = 10.0
        dense = _oracle_labels(ZCurve(u2_8), 4, weights)
        ctx = MetricContext(ZCurve(u2_8), chunk_cells=chunk)
        assert np.array_equal(partition_by_curve(ctx, 4, weights), dense)

    def test_weighted_quality_matches_dense(self, u2_8):
        from repro.engine.context import MetricContext

        rng = np.random.default_rng(3)
        weights = rng.random(u2_8.shape)
        dense = _oracle_quality(ZCurve(u2_8), 6, weights)
        ctx = MetricContext(ZCurve(u2_8), chunk_cells=9)
        q = partition_quality(ctx, 6, weights)
        assert (q.imbalance, q.edge_cut) == dense

    def test_unweighted_quality_matches_dense(self, u2_8):
        from repro.engine.context import MetricContext

        dense = _oracle_quality(ZCurve(u2_8), 5)
        ctx = MetricContext(ZCurve(u2_8), chunk_cells=9)
        q = partition_quality(ctx, 5)
        assert (q.imbalance, q.edge_cut) == dense

    def test_chunked_rejects_bad_parts(self, u2_8):
        from repro.engine.context import MetricContext

        ctx = MetricContext(ZCurve(u2_8), chunk_cells=8)
        with pytest.raises(ValueError):
            partition_by_curve(ctx, 0)
        with pytest.raises(ValueError):
            partition_by_curve(ctx, u2_8.n + 1, np.ones(u2_8.shape))


class TestContextAcceptance:
    def test_partition_accepts_context(self, u2_8):
        from repro.engine.context import get_context

        curve = ZCurve(u2_8)
        via_curve = partition_by_curve(curve, 4)
        via_ctx = partition_by_curve(get_context(curve), 4)
        assert np.array_equal(via_curve, via_ctx)

    def test_quality_accepts_context(self, u2_8):
        from repro.engine.context import get_context

        curve = HilbertCurve(u2_8)
        assert partition_quality(get_context(curve), 8) == partition_quality(
            curve, 8
        )

    def test_halo_accepts_context(self, u2_8):
        from repro.apps.halo import halo_exchange
        from repro.engine.context import get_context

        curve = ZCurve(u2_8)
        assert halo_exchange(get_context(curve), 4) == halo_exchange(curve, 4)


def _oracle_cases():
    """``(d, side, spec)`` cells of the oracle matrix, applicable only."""
    cases = []
    for d, side in ((1, 7), (2, 1), (2, 8), (2, 9), (3, 5), (2, 64)):
        universe = Universe(d=d, side=side)
        for spec in (
            "z",
            "hilbert",
            "snake",
            "random:seed=3",
            "reversed:inner=hilbert",
            "reversed:inner=snake",
            "simple",
        ):
            try:
                CurveSpec.parse(spec).make(universe)
            except ValueError:
                continue
            cases.append((d, side, spec))
    return cases


#: Pool settings of every execution mode the partition code runs in.
_POOL_MODES = [
    {},
    {"chunk_cells": 1},
    {"chunk_cells": 7},
    {"threads": 2},
]


class TestPartitionOracle:
    """Every mode's partition equals the oracle, weighted or not."""

    @pytest.mark.parametrize("d, side, spec", _oracle_cases())
    def test_quality_and_labels_match_oracle(self, d, side, spec):
        universe = Universe(d=d, side=side)
        reference = CurveSpec.parse(spec).make(universe)
        weights = np.random.default_rng(5).random(universe.shape)
        parts = sorted(
            {p for p in (1, 2, 3, 8, universe.n) if p <= universe.n}
        )
        for mode in _POOL_MODES:
            ctx = ContextPool(**mode).get(CurveSpec.parse(spec).make(universe))
            for n_parts in parts:
                for w in (None, weights):
                    q = partition_quality(ctx, n_parts, w)
                    assert (q.imbalance, q.edge_cut) == _oracle_quality(
                        reference, n_parts, w
                    ), (mode, n_parts)
                    assert np.array_equal(
                        partition_by_curve(ctx, n_parts, w),
                        _oracle_labels(reference, n_parts, w),
                    ), (mode, n_parts)
