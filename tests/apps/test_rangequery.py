"""Tests for the SFC range-query index."""

import numpy as np
import pytest

from repro import Universe
from repro.analysis.clustering import cluster_count, rectangle_cells
from repro.apps.rangequery import QueryCost, SFCIndex
from repro.curves.hilbert import HilbertCurve
from repro.curves.random_curve import RandomCurve
from repro.curves.zcurve import ZCurve


class TestQueryRuns:
    def test_runs_cover_exactly_the_box(self, u2_8):
        """Oracle check: cells returned by runs == brute-force box cells."""
        index = SFCIndex(ZCurve(u2_8))
        lo, hi = (1, 2), (5, 7)
        got = {tuple(r) for r in index.query_cells(lo, hi)}
        expected = {tuple(r) for r in rectangle_cells(u2_8, lo, hi)}
        assert got == expected

    def test_runs_cover_hilbert(self, u2_8):
        index = SFCIndex(HilbertCurve(u2_8))
        lo, hi = (0, 3), (6, 8)
        got = {tuple(r) for r in index.query_cells(lo, hi)}
        expected = {tuple(r) for r in rectangle_cells(u2_8, lo, hi)}
        assert got == expected

    def test_runs_are_disjoint_and_sorted(self, u2_8):
        runs = SFCIndex(ZCurve(u2_8)).query_runs((1, 1), (6, 6))
        for (a1, b1), (a2, b2) in zip(runs[:-1], runs[1:]):
            assert b1 + 1 < a2  # gap between runs, else they'd merge
        assert all(a <= b for a, b in runs)

    def test_run_count_is_cluster_count(self, u2_8):
        z = ZCurve(u2_8)
        index = SFCIndex(z)
        lo, hi = (2, 0), (7, 5)
        assert len(index.query_runs(lo, hi)) == cluster_count(z, lo, hi)

    def test_aligned_quadrant_single_run(self, u2_8):
        runs = SFCIndex(ZCurve(u2_8)).query_runs((0, 0), (4, 4))
        assert runs == [(0, 15)]


class TestQueryCost:
    def test_total_formula(self):
        cost = QueryCost(runs=3, cells_read=20, seek_cost=10.0, scan_cost=1.0)
        assert cost.total == 50.0

    def test_cells_read_equals_volume(self, u2_8):
        index = SFCIndex(ZCurve(u2_8))
        cost = index.query_cost((1, 1), (4, 5))
        assert cost.cells_read == 3 * 4

    def test_rejects_negative_costs(self, u2_8):
        with pytest.raises(ValueError):
            SFCIndex(ZCurve(u2_8), seek_cost=-1.0)

    def test_average_cost_deterministic(self, u2_8):
        index = SFCIndex(ZCurve(u2_8))
        a = index.average_query_cost((3, 3), n_samples=20, seed=7)
        b = index.average_query_cost((3, 3), n_samples=20, seed=7)
        assert a == b

    def test_structured_beats_random(self, u2_8):
        """Random bijections shatter every box into ~volume runs."""
        cost_z = SFCIndex(ZCurve(u2_8)).average_query_cost(
            (4, 4), n_samples=30, seed=0
        )
        cost_r = SFCIndex(RandomCurve(u2_8)).average_query_cost(
            (4, 4), n_samples=30, seed=0
        )
        assert cost_z < cost_r

    def test_random_curve_worst_case_runs(self, u2_8):
        """A random bijection's box of volume v needs ≈ v runs."""
        index = SFCIndex(RandomCurve(u2_8, seed=5))
        runs = index.query_runs((0, 0), (4, 4))
        assert len(runs) > 10  # nearly one run per cell

    def test_seek_scan_tradeoff(self, u2_8):
        """Higher seek cost penalizes fragmented curves more."""
        z, r = ZCurve(u2_8), RandomCurve(u2_8)
        cheap_seek_gap = SFCIndex(r, seek_cost=0.0).average_query_cost(
            (3, 3), 20, seed=1
        ) - SFCIndex(z, seek_cost=0.0).average_query_cost((3, 3), 20, seed=1)
        dear_seek_gap = SFCIndex(r, seek_cost=50.0).average_query_cost(
            (3, 3), 20, seed=1
        ) - SFCIndex(z, seek_cost=50.0).average_query_cost((3, 3), 20, seed=1)
        assert dear_seek_gap > cheap_seek_gap
        assert cheap_seek_gap == pytest.approx(0.0)  # same volume read


class TestContextAcceptance:
    def test_index_accepts_context(self, u2_8):
        from repro.engine.context import get_context
        from repro.curves.zcurve import ZCurve

        curve = ZCurve(u2_8)
        via_curve = SFCIndex(curve).query_runs((1, 2), (5, 7))
        via_ctx = SFCIndex(get_context(curve)).query_runs((1, 2), (5, 7))
        assert via_curve == via_ctx

    def test_queries_reuse_cached_order(self, u2_8):
        from repro.engine.context import MetricContext
        from repro.curves.zcurve import ZCurve

        ctx = MetricContext(ZCurve(u2_8))
        index = SFCIndex(ctx)
        index.query_cells((0, 0), (3, 3))
        index.query_cells((2, 2), (6, 6))
        assert ctx.stats.compute_count("order") == 1
        assert ctx.stats.compute_count("key_grid") == 1


class TestThreadedQueries:
    """average_query_cost on a threaded context (PR 6): per-box costs
    merge in submission order, so the float accumulation replays the
    serial addition sequence bit for bit."""

    def test_threaded_matches_serial(self, u2_8):
        from repro.curves.zcurve import ZCurve
        from repro.engine.context import MetricContext

        serial = SFCIndex(ZCurve(u2_8)).average_query_cost((3, 3), 50, seed=2)
        for threads in (2, 4):
            ctx = MetricContext(ZCurve(u2_8), threads=threads)
            assert SFCIndex(ctx).average_query_cost((3, 3), 50, seed=2) == serial

    def test_threaded_chunked_matches_serial(self, u2_8):
        from repro.curves.zcurve import ZCurve
        from repro.engine.context import MetricContext

        serial = SFCIndex(ZCurve(u2_8)).average_query_cost((2, 4), 30, seed=6)
        ctx = MetricContext(ZCurve(u2_8), chunk_cells=9, threads=2)
        assert SFCIndex(ctx).average_query_cost((2, 4), 30, seed=6) == serial
