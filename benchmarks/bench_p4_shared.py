"""P4 — shared-memory process sweeps: grids published once, not per worker.

``Sweep(processes=N, shared=False)`` rebuilds every key grid privately
inside each worker cell — the exact redundancy the paper's
shared-structure argument says to exploit (every stretch metric of a
cell reduces over *one* permutation's key grid).  With ``shared`` on
(the default), the parent publishes one key grid per canonical curve
spec into :class:`repro.engine.SharedGridStore` segments — deriving
transform curves' grids from their inner curve instead of evaluating
them — and workers attach zero-copy views.

This bench runs the same multi-curve ``processes=4`` sweep both ways
(a Hilbert/Gray family with reversed / reflected / axis-permuted
variants, where the private mode pays a full curve evaluation per cell)
and asserts the point of the feature:

* every metric value is **bit-for-bit identical**,
* shared mode is at least **1.5x faster** end-to-end, and
* each worker's **private resident memory (USS) shrinks** — its grids
  live in segments mapped once machine-wide, not in per-process copies.

Wall-clock is measured end-to-end (publish cost included), over
``PAIRS`` pairs of runs with the side that runs first alternating; the
speedup is the median of the per-pair (private / shared) ratios, so one
run slowed by other load on the machine does not decide it.  The memory
probe reads ``/proc/self/smaps_rollup`` inside the workers via a
bench-local registered metric: USS (``Private_Clean + Private_Dirty``)
is the honest per-worker figure — lifetime peak RSS also counts the
*shared* pages a worker touches, which the kernel charges to every
attacher even though they exist once machine-wide (``ru_maxrss`` is
recorded alongside for reference).  The speedup assertion assumes the
redundancy-dominated regime this bench constructs (grid builds ≫ metric
reductions); scale ``UNIVERSE``/``CURVES`` together if the machine
changes that balance.

Both modes run on the NumPy backend.  There a Hilbert or Gray grid
costs a full NumPy curve evaluation, which is what sharing saves; on
the native backend the codec builds these grids faster than the parent
could publish them, so they are never shared
(:func:`repro.engine.shm.reuse_key`) and the two modes coincide.
"""

import resource
import statistics
import time

from repro import Universe
from repro.engine.sweep import METRICS, Sweep, register_metric

from _bench_utils import run_once
from conftest import cache_stats_payload

#: 512^2 cells: a Hilbert key-grid build costs ~5x the full NN metric
#: set, so per-worker grid rebuilds dominate the private mode.
UNIVERSE = Universe.power_of_two(d=2, k=9)

#: Two expensive bases and their stretch-invariant transform family;
#: unshared workers build a base grid again for every variant's cell,
#: while the shared parent derives the ten transforms from the two base
#: grids.
CURVES = tuple(
    spec
    for base in ("hilbert", "gray")
    for spec in (
        base,
        f"reversed:inner={base}",
        f"reflected:inner={base},axes=0",
        f"reflected:inner={base},axes=1",
        f"axisperm:inner={base},perm=1-0",
        f"reversed:inner=reflected:inner={base}",
    )
)

METRIC_SET = ("davg", "dmax", "nn_mean", "lambdas")
PROCESSES = 4
MIN_SPEEDUP = 1.5
#: Alternating (shared, private) wall-clock pairs behind the speedup.
PAIRS = 5


def _run(shared: bool, metrics=METRIC_SET):
    kwargs = dict(shared=True) if shared else dict(shared=False, pooled=False)
    return Sweep(
        universes=[UNIVERSE],
        curves=list(CURVES),
        metrics=metrics,
        reports=False,
        processes=PROCESSES,
        backend="numpy",
        **kwargs,
    ).run()


def _timed_pairs():
    """``PAIRS`` wall-clock pairs of the two modes, the mode that runs
    first alternating from pair to pair: ``(times, results)``, each
    keyed by ``shared``, with each mode's last result."""
    times, results = {True: [], False: []}, {}
    for index in range(PAIRS):
        for shared in (True, False) if index % 2 == 0 else (False, True):
            start = time.perf_counter()
            results[shared] = _run(shared)
            times[shared].append(time.perf_counter() - start)
    return times, results


def _worker_memory(ctx) -> tuple:
    """(USS KiB, peak RSS KiB) of the calling worker process."""
    uss = 0
    with open("/proc/self/smaps_rollup") as fh:
        for line in fh:
            if line.startswith(("Private_Clean:", "Private_Dirty:")):
                uss += int(line.split()[1])
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return uss, peak


def test_p4_shared_sweep_speedup_and_worker_memory(
    benchmark, results_writer
):
    """Acceptance: >=1.5x wall-clock (median pair ratio), USS
    reduction, identical records."""
    times, results = run_once(benchmark, _timed_pairs)
    shared_result, private_result = results[True], results[False]
    t_shared = statistics.median(times[True])
    t_private = statistics.median(times[False])
    # Each ratio compares two runs made under the same machine load.
    ratios = [
        private / shared for shared, private in zip(times[True], times[False])
    ]
    speedup = statistics.median(ratios)
    shown = ", ".join(f"{r:.2f}" for r in ratios)

    assert shared_result.records == private_result.records  # bit-for-bit
    assert len(shared_result.records) == len(CURVES)
    stats = shared_result.cache_stats
    assert stats.shared_count("key_grid") == len(CURVES)
    # only the two bases were evaluated from scratch (by the parent)
    assert stats.compute_count("key_grid") == 2
    benchmark.extra_info["engine_cache"] = cache_stats_payload(stats)

    # Per-worker memory probe: same sweeps plus a bench-local metric
    # reporting each worker's memory at cell completion.
    register_metric("_p4_worker_memory", _worker_memory, overwrite=True)
    try:
        probed = METRIC_SET + ("_p4_worker_memory",)
        mem_shared = [
            r.values["_p4_worker_memory"]
            for r in _run(True, metrics=probed).records
        ]
        mem_private = [
            r.values["_p4_worker_memory"]
            for r in _run(False, metrics=probed).records
        ]
    finally:
        METRICS.pop("_p4_worker_memory", None)
    uss_shared = max(uss for uss, _ in mem_shared)
    uss_private = max(uss for uss, _ in mem_private)
    rss_shared = max(peak for _, peak in mem_shared)
    rss_private = max(peak for _, peak in mem_private)

    reduction = 1 - uss_shared / uss_private
    benchmark.extra_info["shared_sweep"] = {
        "t_shared_s": round(t_shared, 3),
        "t_private_s": round(t_private, 3),
        "speedup": round(speedup, 2),
        "pair_ratios": [round(r, 2) for r in ratios],
        "worker_uss_shared_kib": uss_shared,
        "worker_uss_private_kib": uss_private,
        "worker_peak_rss_shared_kib": rss_shared,
        "worker_peak_rss_private_kib": rss_private,
    }
    results_writer(
        "p4_shared_sweep",
        f"P4 — processes={PROCESSES} sweep of {len(CURVES)} curves on "
        f"{UNIVERSE}, metrics {', '.join(METRIC_SET)}\n"
        "(shared grid store vs fully private workers; records "
        "bit-for-bit identical)\n\n"
        f"wall-clock (medians of {PAIRS} alternating pairs)  "
        f"shared: {t_shared:7.3f} s   private: {t_private:7.3f} s   "
        f"speedup: {speedup:5.2f}x (median pair ratio)\n"
        f"pair ratios: {shown}\n"
        f"worker USS  shared: {uss_shared / 1024:7.1f} MiB   "
        f"private: {uss_private / 1024:7.1f} MiB   "
        f"reduction: {reduction:6.1%}\n"
        f"worker peak RSS (shared pages included)  "
        f"shared: {rss_shared / 1024:.1f} MiB   "
        f"private: {rss_private / 1024:.1f} MiB\n",
    )
    print(
        f"\nshared {t_shared:.3f}s vs private {t_private:.3f}s "
        f"({speedup:.2f}x, pair ratios {shown}); "
        f"worker USS {uss_shared / 1024:.1f} vs "
        f"{uss_private / 1024:.1f} MiB ({reduction:.1%} smaller)"
    )
    assert speedup >= MIN_SPEEDUP, (
        f"shared sweep speedup {speedup:.2f}x below {MIN_SPEEDUP}x"
    )
    assert uss_shared < uss_private, (
        f"worker USS did not shrink: shared {uss_shared} KiB vs "
        f"private {uss_private} KiB"
    )


def test_p4_segments_reclaimed():
    """The sweep leaves no shared-memory segments behind."""
    from pathlib import Path

    shm_dir = Path("/dev/shm")
    before = {p.name for p in shm_dir.iterdir()}
    _run(True)
    after = {p.name for p in shm_dir.iterdir()}
    assert after == before
