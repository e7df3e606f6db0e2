"""Incremental metric engine: exact parity under randomized workloads.

The acceptance-critical property: after *every* batch of moves —
inserts, deletes, moves, duplicate-cell targets, empty batches,
degenerate side-1 universes, online re-selection — the incrementally
maintained aggregates equal a full from-scratch recompute with ``==``
(never approximately).  The hypothesis suite drives randomized op
sequences against that invariant.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Universe
from repro.core.optimal import population_stretch
from repro.engine import ContextPool, DynamicUniverse
from repro.engine.context import get_context
from repro.engine.sweep import CurveSpec


def make_dynamic(spec="hilbert", d=2, side=8, **kwargs):
    return DynamicUniverse(
        spec, universe=Universe(d=d, side=side), **kwargs
    )


def random_batch(dyn, rng, size):
    """One mixed move batch with intra-batch-safe delete/move targets."""
    moves = []
    gone = set()
    pids = dyn.pids().tolist()
    d, side = dyn.universe.d, dyn.universe.side
    for _ in range(size):
        roll = rng.random()
        live = [p for p in pids if p not in gone]
        if roll < 0.35 or not live:
            coords = tuple(
                int(c) for c in rng.integers(0, side, size=d)
            )
            moves.append(("insert", coords))
        elif roll < 0.6:
            pid = live[int(rng.integers(0, len(live)))]
            gone.add(pid)
            moves.append(("delete", pid))
        else:
            pid = live[int(rng.integers(0, len(live)))]
            coords = tuple(
                int(c) for c in rng.integers(0, side, size=d)
            )
            moves.append(("move", pid, coords))
    return moves


class TestBulkLoad:
    def test_matches_recompute(self):
        dyn = make_dynamic()
        rng = np.random.default_rng(0)
        dyn.bulk_load(rng.integers(0, 8, size=(50, 2)))
        assert dyn.metrics() == dyn.recompute()

    def test_pids_and_count(self):
        dyn = make_dynamic()
        pids = dyn.bulk_load(np.array([[0, 0], [1, 1], [0, 0]]))
        assert pids.tolist() == [0, 1, 2]
        assert len(dyn) == 3
        assert dyn.n_cells == 2

    def test_empty_load(self):
        dyn = make_dynamic()
        assert dyn.bulk_load(np.empty((0, 2), dtype=np.int64)).size == 0
        assert dyn.metrics() == dyn.recompute()

    def test_bulk_load_onto_populated(self):
        dyn = make_dynamic()
        dyn.bulk_load(np.array([[0, 0]]))
        pids = dyn.bulk_load(np.array([[3, 3], [4, 4]]))
        assert pids.tolist() == [1, 2]
        assert dyn.metrics() == dyn.recompute()

    def test_reload_after_deleting_all_never_reuses_pids(self):
        """Once every point is deleted, the vectorized path continues
        the pids exactly as inserts through ``apply`` do."""
        first = np.array([[0, 0], [1, 1], [5, 2]])
        second = np.array([[3, 3], [0, 0]])
        bulk, applied = make_dynamic(), make_dynamic()
        for dyn in (bulk, applied):
            old = dyn.bulk_load(first)
            dyn.apply([("delete", int(pid)) for pid in old])
            assert len(dyn) == 0
        pids = bulk.bulk_load(second)
        applied.apply([("insert", tuple(row)) for row in second.tolist()])
        assert pids.tolist() == applied.pids().tolist() == [3, 4]
        assert bulk.metrics() == bulk.recompute()
        assert bulk.metrics() == applied.metrics()
        assert bulk.sorted_pids().tolist() == applied.sorted_pids().tolist()
        assert np.array_equal(bulk.particle_ranks(), applied.particle_ranks())

    def test_full_occupancy_equals_context_mean(self):
        """With every cell occupied, the population D^avg is exactly
        the static engine's nn_distance_values mean."""
        u = Universe(d=2, side=8)
        curve = CurveSpec.parse("hilbert").make(u)
        dyn = DynamicUniverse(curve)
        dyn.bulk_load(u.all_coords())
        ctx = get_context(curve)
        values = ctx.nn_distance_values()
        assert dyn.metrics().davg == int(values.sum()) / values.size

    def test_rejects_bad_shapes(self):
        dyn = make_dynamic()
        with pytest.raises(ValueError):
            dyn.bulk_load(np.array([0, 0]))
        with pytest.raises(ValueError):
            dyn.bulk_load(np.array([[9, 9]]))


class TestConstructorArguments:
    """``parts`` and ``window`` are refused, not truncated, unless they
    are integers >= 1 — the rule ``DynamicCreate.from_dict`` applies."""

    @pytest.mark.parametrize("name", ("parts", "window"))
    @pytest.mark.parametrize("bad", (2.5, 2.7, 2.0, True, "2", None))
    def test_non_integers_rejected(self, name, bad):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            make_dynamic(**{name: bad})

    @pytest.mark.parametrize("name", ("parts", "window"))
    def test_below_one_rejected(self, name):
        with pytest.raises(ValueError, match=f"{name} must be >= 1"):
            make_dynamic(**{name: 0})

    def test_numpy_integers_accepted(self):
        dyn = make_dynamic(parts=np.int64(3), window=np.int32(2))
        assert (dyn.parts, dyn.window) == (3, 2)
        assert type(dyn.parts) is int and type(dyn.window) is int
        dyn.bulk_load(np.array([[0, 0], [5, 5], [7, 1]]))
        assert dyn.metrics() == dyn.recompute()


class TestApply:
    def test_insert_delete_move_parity(self):
        dyn = make_dynamic()
        dyn.apply(
            [("insert", (0, 0)), ("insert", (3, 4)), ("insert", (0, 0))]
        )
        assert dyn.metrics() == dyn.recompute()
        dyn.apply([("move", 0, (7, 7)), ("delete", 2)])
        assert dyn.metrics() == dyn.recompute()

    def test_empty_batch_is_a_step(self):
        dyn = make_dynamic()
        before = dyn.metrics()
        assert dyn.apply([]) == before
        assert dyn.steps == 1

    def test_sequential_semantics_within_batch(self):
        """Later ops see earlier ops' effects: a move-then-delete of
        the same pid works; a double delete raises."""
        dyn = make_dynamic()
        (pid,) = dyn.bulk_load(np.array([[1, 1]]))
        dyn.apply([("move", int(pid), (2, 2)), ("delete", int(pid))])
        assert len(dyn) == 0
        (pid,) = dyn.bulk_load(np.array([[1, 1]]))
        with pytest.raises(KeyError):
            dyn.apply([("delete", int(pid)), ("delete", int(pid))])

    def test_unknown_op_and_bad_coords(self):
        dyn = make_dynamic()
        with pytest.raises(ValueError):
            dyn.apply([("teleport", (0, 0))])
        with pytest.raises(ValueError):
            dyn.apply([("insert", (8, 0))])
        with pytest.raises(KeyError):
            dyn.apply([("delete", 99)])

    def test_rank_parity_with_stable_argsort(self):
        dyn = make_dynamic(side=16)
        rng = np.random.default_rng(2)
        dyn.bulk_load(rng.integers(0, 16, size=(60, 2)))
        dyn.apply(random_batch(dyn, rng, 20))
        keys = dyn.keys_by_pid()[dyn.pids()]
        order = np.argsort(keys, kind="stable")
        assert np.array_equal(dyn.sorted_pids(), dyn.pids()[order])
        assert np.array_equal(dyn.sorted_keys(), keys[order])

    def test_heavy_batch_rebuild_path(self):
        """A batch much larger than the population takes the rebuild
        path and still lands on the identical state."""
        dyn = make_dynamic()
        dyn.bulk_load(np.array([[0, 0], [1, 1]]))
        rng = np.random.default_rng(3)
        dyn.apply(random_batch(dyn, rng, 64))
        assert dyn.metrics() == dyn.recompute()

    def test_side_one_universe(self):
        dyn = make_dynamic(spec="simple", d=2, side=1)
        dyn.apply([("insert", (0, 0)), ("insert", (0, 0))])
        assert dyn.metrics() == dyn.recompute()
        assert dyn.metrics().edge_count == 0


class TestPropertyParity:
    @settings(max_examples=25, deadline=None)
    @given(
        spec=st.sampled_from(["hilbert", "z", "gray", "snake", "simple"]),
        d=st.integers(min_value=1, max_value=3),
        side=st.sampled_from([1, 2, 4, 8]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n_batches=st.integers(min_value=1, max_value=5),
    )
    def test_incremental_equals_recompute_after_every_batch(
        self, spec, d, side, seed, n_batches
    ):
        dyn = make_dynamic(spec=spec, d=d, side=side, parts=4, window=2)
        rng = np.random.default_rng(seed)
        if rng.random() < 0.7:
            dyn.bulk_load(
                rng.integers(0, side, size=(int(rng.integers(0, 40)), d))
            )
            assert dyn.metrics() == dyn.recompute()
        for _ in range(n_batches):
            dyn.apply(random_batch(dyn, rng, int(rng.integers(0, 16))))
            assert dyn.metrics() == dyn.recompute()

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        window=st.integers(min_value=1, max_value=5),
    )
    def test_window_parameter_parity(self, seed, window):
        dyn = make_dynamic(side=8, window=window)
        rng = np.random.default_rng(seed)
        dyn.bulk_load(rng.integers(0, 8, size=(30, 2)))
        for _ in range(3):
            dyn.apply(random_batch(dyn, rng, 10))
            assert dyn.metrics() == dyn.recompute()


class TestPopulationStretch:
    def test_matches_full_grid(self):
        u = Universe(d=2, side=8)
        curve = CurveSpec.parse("z").make(u)
        stretch = population_stretch(curve, u.all_coords())
        values = get_context(curve).nn_distance_values()
        assert stretch.stretch_sum == int(values.sum())
        assert stretch.edge_count == values.size

    def test_empty_population(self):
        u = Universe(d=2, side=4)
        curve = CurveSpec.parse("z").make(u)
        stretch = population_stretch(
            curve, np.empty((0, 2), dtype=np.int64)
        )
        assert stretch.stretch_sum == 0
        assert stretch.edge_count == 0
        assert stretch.davg == 0.0


class TestReselection:
    def test_manual_reselect_switches_and_rebases(self):
        pool = ContextPool()
        dyn = DynamicUniverse(
            "simple",
            universe=Universe(d=2, side=8),
            pool=pool,
            candidates=("hilbert", "z", "simple"),
        )
        rng = np.random.default_rng(4)
        dyn.bulk_load(rng.integers(0, 8, size=(48, 2)))
        event = dyn.reselect()
        assert set(event.scores) >= {"hilbert", "z", "simple"}
        best = min(event.scores, key=event.scores.get)
        if best != "simple":
            assert event.switched and dyn.spec == event.to_spec == best
        assert dyn.metrics() == dyn.recompute()
        # Baseline resets: drift is measured from the new spec.
        assert dyn.drift() == 0.0

    def test_auto_reselect_on_drift(self):
        dyn = make_dynamic(
            spec="simple",
            side=8,
            reselect_threshold=1e-9,
            candidates=("hilbert", "simple"),
        )
        rng = np.random.default_rng(5)
        dyn.bulk_load(rng.integers(0, 8, size=(40, 2)))
        for _ in range(6):
            dyn.apply(random_batch(dyn, rng, 12))
            assert dyn.metrics() == dyn.recompute()
        assert dyn.reselections

    def test_inapplicable_candidates_are_skipped(self):
        dyn = make_dynamic(side=8, candidates=("z", "no-such-curve"))
        dyn.bulk_load(np.array([[0, 0], [5, 5]]))
        event = dyn.reselect()
        assert "no-such-curve" not in event.scores

    def test_tie_keeps_current_spec(self):
        dyn = make_dynamic(spec="z", side=4, candidates=("z",))
        dyn.bulk_load(np.array([[0, 0], [0, 1]]))
        event = dyn.reselect()
        assert not event.switched
        assert event.to_spec == "z"


class TestPoolIntegration:
    def test_pool_contexts_are_shared(self):
        pool = ContextPool()
        u = Universe(d=2, side=8)
        curve = CurveSpec.parse("hilbert").make(u)
        ctx = pool.get(curve)
        dyn = DynamicUniverse(curve, pool=pool)
        assert dyn.ctx is ctx
