"""P10 — incremental metric engine vs from-scratch recompute.

A dynamic universe (N-body drift, particles churning between cells)
needs population metrics *per step*, and the step only touches k ≪ N
particles.  :class:`repro.engine.dynamic.DynamicUniverse` maintains
D^avg (integer stretch partials), the windowed dilation (bucketed
window-max) and partition loads in O(k·d) per batch; the bench pits
that delta path against calling :meth:`recompute` every step.

Two timings per workload:

* **bulk load** — one-shot ingestion of N points (vectorized batch
  encode + single stable sort);
* **sustained traffic** — a pre-generated mixed insert/delete/move
  stream applied in batches of k, incremental vs recompute-per-batch.

Acceptance: at k ≤ N/100 the incremental path wins by ≥ 5x, and the
incrementally maintained metrics equal a full recompute — with ``==``,
never approximately — after the stream.  The speedup is the median,
over the batches, of the per-batch (recompute / incremental) time
ratio, the two sides timed back to back in alternating order, each
in CPU time of the process (``time.process_time``).  Both
the parity flag and the workload shape (k, N) land in the benchmark
JSON via ``extra_info``.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from repro import Universe
from repro.engine.dynamic import DynamicUniverse

from _bench_utils import run_once

#: 20k particles on a 256^2 hilbert universe; k = 64 moves per batch
#: (k ≤ N/100 = 200 — the "small batch against a large population"
#: regime the delta engine exists for).
N_POINTS = 20_000
SIDE = 256
D = 2
SPEC = "hilbert"
BATCH_SIZE = 64
N_BATCHES = 10
MIN_SPEEDUP = 5.0


def _make_loaded(seed: int = 7) -> DynamicUniverse:
    dyn = DynamicUniverse(SPEC, universe=Universe(d=D, side=SIDE))
    rng = np.random.default_rng(seed)
    dyn.bulk_load(
        rng.integers(0, SIDE, size=(N_POINTS, D), dtype=np.int64)
    )
    # Settle the initial full-window dilation repair so the timed
    # loops below measure steady-state delta updates only.
    dyn.metrics()
    return dyn


def _traffic(dyn: DynamicUniverse, seed: int = 8):
    """Pre-generate N_BATCHES mixed batches against dyn's population.

    Delete/move targets are tracked so every op is valid when the
    stream is later replayed against an identically seeded universe.
    """
    rng = np.random.default_rng(seed)
    live = set(int(p) for p in dyn.pids())
    next_pid = max(live) + 1 if live else 0
    batches = []
    for _ in range(N_BATCHES):
        moves = []
        pool = sorted(live)
        for _ in range(BATCH_SIZE):
            roll = rng.random()
            if roll < 0.25 or not pool:
                coords = tuple(
                    int(c) for c in rng.integers(0, SIDE, size=D)
                )
                moves.append(("insert", coords))
                live.add(next_pid)
                pool.append(next_pid)
                next_pid += 1
            else:
                pid = pool[int(rng.integers(0, len(pool)))]
                if roll < 0.4:
                    moves.append(("delete", pid))
                    live.discard(pid)
                    pool.remove(pid)
                else:
                    coords = tuple(
                        int(c) for c in rng.integers(0, SIDE, size=D)
                    )
                    moves.append(("move", pid, coords))
        batches.append(moves)
    return batches


def test_p10_bulk_load(benchmark, workload_shape, results_writer):
    """One-shot ingestion of the full population, timed."""
    workload_shape(n_points=N_POINTS, batch_size=N_POINTS, mode="bulk")

    def load():
        start = time.perf_counter()
        dyn = _make_loaded()
        return dyn, time.perf_counter() - start

    dyn, seconds = run_once(benchmark, load)
    assert len(dyn) == N_POINTS
    assert dyn.metrics() == dyn.recompute()
    benchmark.extra_info["bulk_load"] = {
        "seconds": round(seconds, 4),
        "points_per_s": round(N_POINTS / seconds),
        "parity": True,
    }
    results_writer(
        "p10_dynamic_bulk_load",
        f"P10 — bulk load ({SPEC} on {SIDE}^{D}, N={N_POINTS})\n\n"
        f"load + first metrics: {seconds * 1e3:8.1f} ms "
        f"({N_POINTS / seconds:,.0f} points/s)\n"
        "parity: metrics == recompute after load\n",
    )
    print(f"\nbulk load: {seconds * 1e3:.1f} ms")


def test_p10_incremental_vs_recompute(
    benchmark, workload_shape, results_writer
):
    """Acceptance: ≥ 5x at k ≤ N/100, exact parity after the stream."""
    assert BATCH_SIZE <= N_POINTS // 100

    # Two identically seeded universes replay the same stream, so the
    # per-batch cost comparison is apples to apples.
    inc = _make_loaded()
    ref = _make_loaded()
    batches = _traffic(inc)

    def drive_pairs():
        """Each batch as an (incremental, recompute) pair of timings,
        the side that runs first alternating from batch to batch."""
        inc_times, rec_times = [], []

        # CPU time of this process, not wall time: a ~1 ms batch is
        # shorter than a scheduler slice, so one preemption by another
        # process would inflate a whole wall-clock sample.
        def incremental(moves):
            start = time.process_time()
            inc.apply(moves)
            inc_times.append(time.process_time() - start)

        def recompute(moves):
            start = time.process_time()
            ref.apply(moves)
            ref.recompute()
            rec_times.append(time.process_time() - start)

        for index, moves in enumerate(batches):
            sides = (incremental, recompute)
            for side in sides if index % 2 == 0 else sides[::-1]:
                side(moves)
        return inc_times, rec_times

    inc_times, rec_times = run_once(benchmark, drive_pairs)
    inc_s, rec_s = sum(inc_times), sum(rec_times)

    # Exact parity: the maintained aggregates equal a from-scratch
    # pass, and both replicas landed on the same state.
    parity = inc.metrics() == inc.recompute()
    assert parity
    assert inc.metrics() == ref.metrics()

    per_batch_inc = inc_s / N_BATCHES
    per_batch_rec = rec_s / N_BATCHES
    # Each ratio compares two runs made under the same machine load; the
    # median of the per-batch ratios is stable where a ratio of totals
    # is not.
    speedup = statistics.median(
        rec / inc for inc, rec in zip(inc_times, rec_times)
    )
    ops_per_s = N_BATCHES * BATCH_SIZE / inc_s
    workload_shape(
        n_points=N_POINTS,
        batch_size=BATCH_SIZE,
        n_batches=N_BATCHES,
        mode="sustained",
    )
    benchmark.extra_info["dynamic"] = {
        "incremental_s": round(inc_s, 4),
        "recompute_s": round(rec_s, 4),
        "per_batch_incremental_ms": round(per_batch_inc * 1e3, 3),
        "per_batch_recompute_ms": round(per_batch_rec * 1e3, 3),
        "speedup": round(speedup, 2),
        "ops_per_s": round(ops_per_s),
        "parity": bool(parity),
    }
    results_writer(
        "p10_dynamic_incremental",
        f"P10 — incremental vs recompute ({SPEC} on {SIDE}^{D}, "
        f"N={N_POINTS}, k={BATCH_SIZE}, {N_BATCHES} batches)\n\n"
        f"incremental: {per_batch_inc * 1e3:8.2f} ms/batch "
        f"({ops_per_s:,.0f} ops/s)\n"
        f"recompute:   {per_batch_rec * 1e3:8.2f} ms/batch\n"
        f"speedup:     {speedup:8.1f}x (median of per-batch pairs)\n"
        "parity: incremental == recompute after the stream\n",
    )
    print(
        f"\nincremental {per_batch_inc * 1e3:.2f} ms/batch vs "
        f"recompute {per_batch_rec * 1e3:.2f} ms/batch "
        f"({speedup:.1f}x)"
    )
    assert speedup >= MIN_SPEEDUP, (
        f"incremental path only {speedup:.2f}x over recompute at "
        f"k={BATCH_SIZE}, N={N_POINTS} (want >= {MIN_SPEEDUP}x)"
    )
