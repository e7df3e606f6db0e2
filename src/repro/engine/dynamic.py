"""Incremental metric maintenance for dynamic point populations.

Every other workload in the repo evaluates a *static* grid: the curve
is fixed, every cell is occupied, and the metrics are closed-form
reductions over the whole universe.  A time-stepped simulation (the
Warren–Salmon motivation seeded in :mod:`repro.apps.resort` and
:mod:`repro.apps.nbody`) is the opposite shape — points arrive, move
and leave a few at a time — and recomputing the population metrics
from scratch after every batch is O(N) work for an O(k) change.

:class:`DynamicUniverse` owns a point population over an existing
:class:`repro.engine.MetricContext` and maintains the population
metrics **incrementally** under batches of k moves in O(k·d) work:

* **D^avg** — the mean curve-distance over occupied nearest-neighbor
  cell pairs — is kept as two integers, ``stretch_sum`` (int64 Σ ∆π
  over occupied NN edges) and ``edge_count``.  A move touches at most
  ``2·2d`` edges (those incident to the vacated and the newly occupied
  cell), so the integer deltas are O(d) per op; the single float
  division happens in Python at query time.  Integer addition is
  order-free, so the incremental sums are **bit-for-bit equal** to a
  from-scratch recompute — :meth:`recompute` asserts ``==``, never
  approximate equality (the engine-wide parity doctrine).
* **Dilation** — the max Manhattan distance between occupied cells
  ``window`` apart in curve-key order — lives in a bucketed window-max
  structure: each key-range bucket holds the max over pairs whose left
  endpoint falls in the bucket, an insert/delete invalidates only the
  O(window) pairs whose left endpoint index shifts, and dirty buckets
  are repaired lazily at query time.  Integer maxima are order-free,
  so parity is again exact.
* **Partition loads** — points per equal-key-range part
  (``part = key · parts // n``, the ``apps.partition`` equal-count
  split applied to keys) — are per-part integer counters.

Construction is pool-aware: pass a :class:`repro.engine.ContextPool`
and the universe's cached key grids and neighbor structures are shared
with every other consumer of the pool (the serve mode's sessions ride
on the service's pools this way).  Move encoding goes through the
``curve.keys_of`` batch codec — one native-backend call per batch, not
one per op.

Online **curve re-selection**: when the relative drift of the
incremental D^avg from its bulk-load baseline crosses
``reselect_threshold``, the population is re-evaluated under the
candidate curve specs (a pooled :func:`repro.core.optimal.select_curve`
pass over the *same* point set) and re-keyed onto the winner.  See
``docs/dynamic.md`` for the delta model and the re-selection policy.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.optimal import population_stretch, select_curve
from repro.engine.context import MetricContext, get_context
from repro.engine.pool import ContextPool
from repro.grid.universe import strict_index

__all__ = [
    "DynamicMetrics",
    "DynamicUniverse",
    "ReselectionEvent",
]

#: Bucket count ceiling for the dilation window-max structure.  The
#: bucket *width* in key space is ``max(1, n // _DILATION_BUCKETS)``,
#: so repairing one dirty bucket scans O(occupied / buckets) pairs.
#: Buckets are stored sparsely (only buckets holding a pair's left
#: endpoint exist), so a fine grain costs no memory on sparse
#: populations while keeping per-repair scans near O(window).
_DILATION_BUCKETS = 16384

#: Default candidate specs for online re-selection; specs that cannot
#: be constructed on the session's universe are skipped, mirroring the
#: sweep planner's non-strict behavior.
DEFAULT_CANDIDATES = ("z", "gray", "hilbert", "snake", "simple")


@dataclass(frozen=True)
class DynamicMetrics:
    """One snapshot of the population aggregates.

    All integer fields are Python ints and ``davg`` is the single
    Python float division ``stretch_sum / edge_count`` (0.0 when there
    are no occupied NN edges), so snapshots from the incremental path
    and from :meth:`DynamicUniverse.recompute` compare with ``==``.
    """

    n_points: int
    n_cells: int
    edge_count: int
    stretch_sum: int
    davg: float
    dilation: int
    loads: Tuple[int, ...]


def _positive_int(value, name: str) -> int:
    """``value`` as an ``int >= 1``; bools and non-integers (``2.5``)
    raise ``ValueError`` rather than being truncated."""
    value = strict_index(value, name)
    if value < 1:
        raise ValueError(f"{name} must be >= 1")
    return value


@dataclass(frozen=True)
class ReselectionEvent:
    """One online re-selection pass (threshold crossing)."""

    step: int
    drift: float
    from_spec: str
    to_spec: str
    #: ``spec -> population D^avg`` for every evaluated candidate.
    scores: Dict[str, float] = field(compare=False)
    switched: bool = False


class DynamicUniverse:
    """A mutable point population with incrementally maintained metrics.

    Parameters
    ----------
    curve:
        The ordering curve, its :class:`~repro.engine.MetricContext`,
        or a curve spec string (requires ``universe=``).
    pool:
        Optional :class:`~repro.engine.ContextPool`; contexts (current
        curve and re-selection candidates) resolve through it so cached
        key grids are shared.  Created lazily when omitted.
    parts:
        Partition count for the per-part load counters.
    window:
        Dilation window over occupied cells in key order (default 1:
        consecutive occupied cells).
    reselect_threshold:
        Relative D^avg drift that triggers :meth:`reselect` during
        :meth:`apply`; ``None`` disables automatic re-selection.
    candidates:
        Curve spec strings evaluated by :meth:`reselect`.
    """

    def __init__(
        self,
        curve,
        *,
        universe=None,
        pool: Optional[ContextPool] = None,
        parts: int = 8,
        window: int = 1,
        reselect_threshold: Optional[float] = None,
        candidates: Optional[Sequence[str]] = None,
    ) -> None:
        parts = _positive_int(parts, "parts")
        window = _positive_int(window, "window")
        if isinstance(curve, str):
            if universe is None:
                raise ValueError("spec-string construction needs universe=")
            from repro.engine.sweep import CurveSpec

            spec = CurveSpec.parse(curve)
            curve = spec.make(universe)
            self.spec = spec.label
        else:
            self.spec = getattr(
                getattr(curve, "curve", curve), "name", str(curve)
            )
        self._pool = pool
        if pool is not None and not isinstance(curve, MetricContext):
            self.ctx = pool.get(curve)
        else:
            self.ctx = get_context(curve)
        self.universe = self.ctx.universe
        self.parts = parts
        self.window = window
        self.reselect_threshold = reselect_threshold
        self.candidates: Tuple[str, ...] = tuple(
            candidates if candidates is not None else DEFAULT_CANDIDATES
        )
        #: Completed :meth:`apply` batches.
        self.steps = 0
        #: Every re-selection pass, in order.
        self.reselections: List[ReselectionEvent] = []

        d, side = self.universe.d, self.universe.side
        #: Simple-curve rank strides (axis 0 fastest, the
        #: ``Universe.all_coords`` enumeration order), as Python ints.
        self._strides = [side**axis for axis in range(d)]
        self._bucket_width = max(1, self.universe.n // _DILATION_BUCKETS)

        # Point storage, indexed by pid (ids are never reused).
        self._pos = np.empty((0, d), dtype=np.int64)
        self._keys = np.empty(0, dtype=np.int64)
        self._alive = np.empty(0, dtype=bool)
        self._next_id = 0
        self._count = 0

        # Cell-level occupancy: simple rank -> [point count, curve key];
        # curve key -> coordinate tuple for occupied cells.
        self._occ: Dict[int, List[int]] = {}
        self._cell_coords: Dict[int, Tuple[int, ...]] = {}
        #: Occupied cell keys, sorted (the dilation pair order).
        self._occ_keys: List[int] = []
        #: Particle order: (key, pid) sorted — ties broken by pid, which
        #: is exactly ``np.argsort(keys, kind="stable")`` over pid-ordered
        #: arrays (the resort/nbody rank contract).
        self._sorted: List[Tuple[int, int]] = []

        # Incremental aggregates (Python ints: order-free, overflow-free).
        self._stretch_sum = 0
        self._edge_count = 0
        self._loads = [0] * self.parts
        self._bucket_max: Dict[int, int] = {}
        self._dirty_buckets: set = set()
        self._baseline_davg = 0.0
        #: Pids created by the most recent batch (bulk_load/apply).
        self._last_pids = np.empty(0, dtype=np.int64)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._count

    @property
    def n_cells(self) -> int:
        """Occupied cells (a cell may hold many points)."""
        return len(self._occ)

    def positions(self) -> np.ndarray:
        """Alive positions in pid order, ``(m, d)`` (a fresh array)."""
        live = self._alive[: self._next_id]
        return self._pos[: self._next_id][live].copy()

    def pids(self) -> np.ndarray:
        """Alive pids in pid order."""
        return np.nonzero(self._alive[: self._next_id])[0].astype(np.int64)

    def keys_by_pid(self) -> np.ndarray:
        """Curve keys indexed by pid (dead slots undefined; fresh array)."""
        return self._keys[: self._next_id].copy()

    def particle_ranks(self) -> np.ndarray:
        """Array-slot rank per pid in the (key, pid)-sorted order.

        ``-1`` for dead pids.  Equal to the stable-argsort inverse
        permutation the static resort path computes.
        """
        ranks = np.full(self._next_id, -1, dtype=np.int64)
        for rank, (_, pid) in enumerate(self._sorted):
            ranks[pid] = rank
        return ranks

    def sorted_keys(self) -> np.ndarray:
        """Alive keys in (key, pid) order — the curve-sorted store."""
        return np.array([key for key, _ in self._sorted], dtype=np.int64)

    def sorted_pids(self) -> np.ndarray:
        """Alive pids in (key, pid) order."""
        return np.array([pid for _, pid in self._sorted], dtype=np.int64)

    def sorted_positions(self) -> np.ndarray:
        """Alive positions in (key, pid) order, ``(m, d)``."""
        if not self._sorted:
            return np.empty((0, self.universe.d), dtype=np.int64)
        return self._pos[self.sorted_pids()]

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def bulk_load(self, positions: np.ndarray) -> np.ndarray:
        """Insert many points at once; returns their pids.

        On a universe with no live point this takes a fully vectorized
        path — one ``keys_of`` batch encode, one lexsort, one unique
        (:meth:`_rebuild_cells`) — producing aggregates identical to
        (because computed the same way as) the from-scratch reference;
        afterwards the structures and the pids, which continue after
        every pid ever issued, are exactly what op-by-op inserts would
        have built.
        """
        pos = self.universe.validate_coords(positions)
        if pos.ndim != 2:
            raise ValueError("positions must be a (m, d) array")
        if len(pos) == 0:
            return np.empty(0, dtype=np.int64)
        if self._count:
            self.apply(
                [("insert", tuple(row)) for row in pos.tolist()],
                _reselect=False,
            )
            return self._last_pids
        keys = self.ctx.curve.keys_of(pos, backend=self.ctx.backend)
        start, stop = self._next_id, self._next_id + len(pos)
        self._grow(stop)
        self._pos[start:stop] = pos
        self._keys[start:stop] = keys
        self._alive[start:stop] = True
        self._next_id = stop
        self._count = len(pos)
        self._rebuild_cells(pos, keys)
        self._baseline_davg = self._davg()
        self._last_pids = np.arange(start, stop, dtype=np.int64)
        return self._last_pids

    def apply(self, moves: Sequence, *, _reselect: bool = True) -> DynamicMetrics:
        """Apply one batch of ops and return the updated metrics.

        ``moves`` is a sequence of ``("insert", coords)``,
        ``("delete", pid)`` and ``("move", pid, coords)`` tuples,
        applied in order (duplicate targets compose sequentially; an
        empty batch is a no-op step).  All new coordinates are encoded
        in **one** ``curve.keys_of`` batch call; the per-op structure
        repair is O(d) dict/bisect work, so a batch of k ops costs
        O(k·d) plus O(k log m) order maintenance.
        """
        ops, new_keys = self._encode_batch(moves)
        heavy = len(ops) * 4 > self._count + 16
        inserted: List[int] = []
        key_cursor = 0
        for op in ops:
            kind = op[0]
            if kind == "insert":
                coords = op[1]
                key = new_keys[key_cursor]
                key_cursor += 1
                pid = self._next_id
                self._grow(pid + 1)
                self._pos[pid] = coords
                self._keys[pid] = key
                self._alive[pid] = True
                self._next_id = pid + 1
                self._count += 1
                self._add_point(key, coords)
                if not heavy:
                    insort(self._sorted, (key, pid))
                inserted.append(pid)
            elif kind == "delete":
                pid = op[1]
                # Re-checked here: an earlier op in this batch may have
                # deleted the target the pre-pass saw alive.
                self._check_alive(pid)
                key = int(self._keys[pid])
                coords = tuple(self._pos[pid].tolist())
                self._alive[pid] = False
                self._count -= 1
                self._remove_point(key, coords)
                if not heavy:
                    del self._sorted[
                        bisect_left(self._sorted, (key, pid))
                    ]
            else:  # move
                pid, coords = op[1], op[2]
                self._check_alive(pid)
                key = new_keys[key_cursor]
                key_cursor += 1
                old_key = int(self._keys[pid])
                old_coords = tuple(self._pos[pid].tolist())
                self._remove_point(old_key, old_coords)
                self._pos[pid] = coords
                self._keys[pid] = key
                self._add_point(key, coords)
                if not heavy:
                    del self._sorted[
                        bisect_left(self._sorted, (old_key, pid))
                    ]
                    insort(self._sorted, (key, pid))
        if heavy:
            self._rebuild_sorted()
        self._last_pids = np.array(inserted, dtype=np.int64)
        self.steps += 1
        if (
            _reselect
            and self.reselect_threshold is not None
            and self.drift() > self.reselect_threshold
        ):
            self.reselect()
        return self.metrics()

    def _encode_batch(self, moves: Sequence):
        """Validate ops and batch-encode every new coordinate."""
        ops = []
        coords_batch: List[Tuple[int, ...]] = []
        for op in moves:
            if not op or op[0] not in ("insert", "delete", "move"):
                raise ValueError(f"unknown op {op!r}")
            kind = op[0]
            if kind == "delete":
                pid = int(op[1])
                self._check_alive(pid)
                ops.append(("delete", pid))
                continue
            coords = tuple(int(c) for c in (op[1] if kind == "insert" else op[2]))
            if len(coords) != self.universe.d or not all(
                0 <= c < self.universe.side for c in coords
            ):
                raise ValueError(
                    f"coords {coords} outside the {self.universe.d}-d "
                    f"side-{self.universe.side} universe"
                )
            if kind == "insert":
                ops.append(("insert", coords))
            else:
                pid = int(op[1])
                self._check_alive(pid)
                ops.append(("move", pid, coords))
            coords_batch.append(coords)
        if coords_batch:
            encoded = self.ctx.curve.keys_of(
                np.asarray(coords_batch, dtype=np.int64),
                backend=self.ctx.backend,
            )
            new_keys = encoded.tolist()
        else:
            new_keys = []
        return ops, new_keys

    def _check_alive(self, pid: int) -> None:
        if not (0 <= pid < self._next_id) or not self._alive[pid]:
            raise KeyError(f"no live point with id {pid}")

    def _grow(self, capacity: int) -> None:
        if capacity <= len(self._keys):
            return
        new_cap = max(capacity, 2 * len(self._keys), 16)
        pos = np.empty((new_cap, self.universe.d), dtype=np.int64)
        keys = np.empty(new_cap, dtype=np.int64)
        alive = np.zeros(new_cap, dtype=bool)
        pos[: self._next_id] = self._pos[: self._next_id]
        keys[: self._next_id] = self._keys[: self._next_id]
        alive[: self._next_id] = self._alive[: self._next_id]
        self._pos, self._keys, self._alive = pos, keys, alive

    def _rebuild_sorted(self) -> None:
        live = np.nonzero(self._alive[: self._next_id])[0]
        keys = self._keys[live]
        order = np.lexsort((live, keys))
        self._sorted = list(
            zip(keys[order].tolist(), live[order].tolist())
        )

    def _rebuild_cells(self, pos: np.ndarray, keys: np.ndarray) -> None:
        """Rebuild every cell structure and aggregate from scratch.

        ``pos`` and ``keys`` are the live points' positions and curve
        keys in pid order.  One ``unique`` over the cell ranks, one
        population stretch pass and one ``bincount`` give the same
        structures op-by-op inserts would have built.
        """
        self._occ.clear()
        self._cell_coords.clear()
        self._bucket_max.clear()
        ranks = pos @ np.asarray(self._strides, dtype=np.int64)
        cell_ranks, first, counts = np.unique(
            ranks, return_index=True, return_counts=True
        )
        for rank, count, key, row in zip(
            cell_ranks.tolist(),
            counts.tolist(),
            keys[first].tolist(),
            pos[first].tolist(),
        ):
            self._occ[rank] = [count, key]
            self._cell_coords[key] = tuple(row)
        self._occ_keys = sorted(self._cell_coords)
        self._dirty_buckets = {
            key // self._bucket_width for key in self._occ_keys
        }
        stretch = population_stretch(
            self.ctx.curve,
            pos,
            backend=self.ctx.backend,
            kernels=self.ctx.kernels,
        )
        self._stretch_sum = stretch.stretch_sum
        self._edge_count = stretch.edge_count
        part_idx = keys * self.parts // self.universe.n
        self._loads = [
            int(v) for v in np.bincount(part_idx, minlength=self.parts)
        ]
        self._rebuild_sorted()

    # -- cell-level bookkeeping ----------------------------------------
    def _add_point(self, key: int, coords: Tuple[int, ...]) -> None:
        self._loads[key * self.parts // self.universe.n] += 1
        rank = sum(c * s for c, s in zip(coords, self._strides))
        entry = self._occ.get(rank)
        if entry is not None:
            entry[0] += 1
            return
        self._occ[rank] = [1, key]
        self._cell_coords[key] = coords
        # New occupied cell: add its edges to every occupied neighbor.
        for nrank, in_bounds in self._neighbor_ranks(rank, coords):
            if not in_bounds:
                continue
            nentry = self._occ.get(nrank)
            if nentry is not None:
                self._stretch_sum += abs(key - nentry[1])
                self._edge_count += 1
        pos = bisect_left(self._occ_keys, key)
        self._occ_keys.insert(pos, key)
        self._dirty_window(pos)

    def _remove_point(self, key: int, coords: Tuple[int, ...]) -> None:
        self._loads[key * self.parts // self.universe.n] -= 1
        rank = sum(c * s for c, s in zip(coords, self._strides))
        entry = self._occ[rank]
        entry[0] -= 1
        if entry[0]:
            return
        del self._occ[rank]
        for nrank, in_bounds in self._neighbor_ranks(rank, coords):
            if not in_bounds:
                continue
            nentry = self._occ.get(nrank)
            if nentry is not None:
                self._stretch_sum -= abs(key - nentry[1])
                self._edge_count -= 1
        pos = bisect_left(self._occ_keys, key)
        self._dirty_window(pos)
        del self._occ_keys[pos]
        del self._cell_coords[key]

    def _neighbor_ranks(self, rank: int, coords: Tuple[int, ...]):
        side = self.universe.side
        for axis, stride in enumerate(self._strides):
            c = coords[axis]
            yield rank - stride, c > 0
            yield rank + stride, c + 1 < side

    def _dirty_window(self, pos: int) -> None:
        """Mark the buckets of the lefts whose window pair changed.

        A mutation at sorted position ``pos`` changes exactly the pairs
        whose left endpoint sits at index ``pos - window .. pos`` (the
        mutated key itself plus its ``window`` predecessors), so those
        keys' buckets are the invalidation set — O(window) marks.
        """
        keys = self._occ_keys
        for i in range(max(0, pos - self.window), min(pos + 1, len(keys))):
            self._dirty_buckets.add(keys[i] // self._bucket_width)

    def _repair_dilation(self) -> int:
        keys = self._occ_keys
        coords = self._cell_coords
        w = self.window
        width = self._bucket_width
        last_left = len(keys) - w
        for bucket in self._dirty_buckets:
            lo = bisect_left(keys, bucket * width)
            hi = bisect_left(keys, (bucket + 1) * width)
            if hi > last_left:
                hi = last_left
            best = -1
            for i in range(lo, hi):
                a = coords[keys[i]]
                b = coords[keys[i + w]]
                dist = 0
                for x, y in zip(a, b):
                    dist += x - y if x >= y else y - x
                if dist > best:
                    best = dist
            if best >= 0:
                self._bucket_max[bucket] = best
            else:
                self._bucket_max.pop(bucket, None)
        self._dirty_buckets.clear()
        return max(self._bucket_max.values(), default=0)

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def _davg(self) -> float:
        # The only float op: one Python division over the int aggregates.
        if not self._edge_count:
            return 0.0
        return self._stretch_sum / self._edge_count

    def metrics(self) -> DynamicMetrics:
        """The current aggregates from the incremental state."""
        return DynamicMetrics(
            n_points=self._count,
            n_cells=len(self._occ),
            edge_count=self._edge_count,
            stretch_sum=self._stretch_sum,
            davg=self._davg(),
            dilation=self._repair_dilation(),
            loads=tuple(self._loads),
        )

    def recompute(self) -> DynamicMetrics:
        """Full from-scratch recompute of every aggregate (O(m·d)).

        The parity reference: after any move sequence,
        ``self.metrics() == self.recompute()`` holds bit-for-bit — the
        integer aggregates are order-free sums/maxima over the same
        edge/pair sets and the float division is the same operation on
        the same ints.
        """
        pos = self.positions()
        m = len(pos)
        if m == 0:
            return DynamicMetrics(
                n_points=0,
                n_cells=0,
                edge_count=0,
                stretch_sum=0,
                davg=0.0,
                dilation=0,
                loads=(0,) * self.parts,
            )
        keys = self.ctx.curve.keys_of(pos, backend=self.ctx.backend)
        stretch = population_stretch(
            self.ctx.curve,
            pos,
            backend=self.ctx.backend,
            kernels=self.ctx.kernels,
        )
        ranks = pos @ np.asarray(self._strides, dtype=np.int64)
        _, first = np.unique(ranks, return_index=True)
        cell_keys = keys[first]
        cell_pos = pos[first]
        order = np.argsort(cell_keys, kind="stable")
        sorted_pos = cell_pos[order]
        w = self.window
        if len(sorted_pos) > w:
            dilation = int(
                np.abs(sorted_pos[w:] - sorted_pos[:-w])
                .sum(axis=1)
                .max()
            )
        else:
            dilation = 0
        part_idx = keys * self.parts // self.universe.n
        loads = np.bincount(part_idx, minlength=self.parts)
        return DynamicMetrics(
            n_points=m,
            n_cells=len(cell_keys),
            edge_count=stretch.edge_count,
            stretch_sum=stretch.stretch_sum,
            davg=stretch.davg,
            dilation=dilation,
            loads=tuple(int(v) for v in loads),
        )

    # ------------------------------------------------------------------
    # Drift + online re-selection
    # ------------------------------------------------------------------
    def drift(self) -> float:
        """Relative D^avg drift from the bulk-load / last-reselect baseline."""
        base = self._baseline_davg
        cur = self._davg()
        if base == 0.0:
            # No meaningful baseline yet (empty population or no edges
            # at bulk-load); drift is defined once a baseline exists.
            return 0.0
        return abs(cur - base) / base

    def _pool_or_create(self) -> ContextPool:
        if self._pool is None:
            self._pool = ContextPool(backend=self.ctx.backend)
        return self._pool

    def reselect(
        self, candidates: Optional[Sequence[str]] = None
    ) -> ReselectionEvent:
        """Pooled re-evaluation of the candidate curves; re-key if beaten.

        Evaluates the population D^avg under every constructible
        candidate spec through the shared pool (cached grids are
        reused), switches to the best candidate when it is *strictly*
        better than the current curve, and resets the drift baseline
        either way so one crossing triggers one pass.
        """
        from repro.engine.sweep import CurveSpec

        pool = self._pool_or_create()
        pos = self.positions()
        specs = tuple(candidates if candidates is not None else self.candidates)
        labels = [self.spec]
        contexts = {self.spec: self.ctx}
        for text in specs:
            try:
                spec = CurveSpec.parse(text)
                if spec.label in contexts:
                    continue
                ctx = pool.get(spec.make(self.universe))
            except (ValueError, KeyError, NotImplementedError):
                continue  # inapplicable candidate, like a non-strict sweep
            contexts[spec.label] = ctx
            labels.append(spec.label)
        # The pooled evaluation: every candidate context comes from the
        # shared pool, so cached key grids are reused across passes.
        best, davgs = select_curve(
            [contexts[label] for label in labels], pos
        )
        scores = dict(zip(labels, davgs))
        best_label = labels[best]
        drift = self.drift()
        switched = best_label != self.spec
        event = ReselectionEvent(
            step=self.steps,
            drift=drift,
            from_spec=self.spec,
            to_spec=best_label if switched else self.spec,
            scores=dict(scores),
            switched=switched,
        )
        if switched:
            self._rebase(contexts[best_label], best_label)
        self._baseline_davg = self._davg()
        self.reselections.append(event)
        return event

    def _rebase(self, ctx: MetricContext, label: str) -> None:
        """Re-key the whole population onto a new curve (O(m·d))."""
        self.ctx = ctx
        self.spec = label
        live = np.nonzero(self._alive[: self._next_id])[0]
        pos = self._pos[live]
        keys = ctx.curve.keys_of(pos, backend=ctx.backend)
        self._keys[live] = keys
        self._rebuild_cells(pos, keys)
