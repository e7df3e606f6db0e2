"""The two sweep workloads: ``sweep_cold`` and ``sweep_warm``.

One *pass* is two :class:`repro.engine.Sweep` runs:

* dense: every registry curve applicable to 2D side 1024 and 3D side
  64 (``random`` seeded from ``--seed``),
  metrics ``davg,dmax,lower_bound,davg_ratio,lambdas,nn_mean``;
* chunked: ``hilbert,z`` on 2D side 2048 at ``chunk_cells=2**18``
  (16 slabs per cell), metrics ``davg,dmax,nn_mean``.

``sweep_cold`` runs both serially in-process with no store, threads or
processes.  ``sweep_warm`` runs the dense half with ``processes=2``
against a :class:`repro.engine.store.GridStore` filled during set-up
(workers attach shared-memory grids the parent publishes from mmap)
and the chunked half with ``threads=2``.  Every pass builds new
pools, new workers and new store handles, so each pays what a
restarted process pays, including the store's checksum checks.

The chunked half of ``sweep_warm`` runs without the store: a chunked
context with a store and ``threads >= 2`` deadlocks (the main thread
holds ``MetricContext._scalar_lock`` inside ``_scalar`` while the
block-scheduler threads wait for it in ``_spill_grid_view``).  The
store holds no artifact for these procedural curves, so the work is
the same.
"""

from __future__ import annotations

import shutil
import sys
import threading
import time
from typing import Dict, List, Optional

from common import (
    BENCH_DIR,
    Outcome,
    child_env,
    cpu_s,
    median,
    peak_rss_mib,
    timed_child,
)

DENSE_UNIVERSES = ((2, 1024), (3, 64))
DENSE_METRICS = ("davg", "dmax", "lower_bound", "davg_ratio", "lambdas", "nn_mean")
CHUNKED_UNIVERSE = (2, 2048)
CHUNKED_CURVES = ("hilbert", "z")
CHUNKED_METRICS = ("davg", "dmax", "nn_mean")
CHUNK_CELLS = 2**18
WARM_PROCESSES = 2
WARM_THREADS = 2
#: Set-ups per run; the one that used the least CPU is reported.
#: Passes report their median instead: the process pool of
#: ``sweep_warm`` spreads cells over workers differently from pass to
#: pass, so its cheapest pass is a lucky draw.
SETUPS = {"sweep_cold": 9, "sweep_warm": 2}
MIN_PASSES = 3
SETUP_TIMEOUT_S = 170.0

_IMPORTS = (
    "import repro.engine.sweep, repro.engine.native as n; n.load_kernels()"
)
#: The set-up of ``sweep_warm``, run in a fresh interpreter.
_FILL = (
    "import sys; sys.path.insert(0, {bench!r}); "
    "import sweeps; sweeps.fill_store({store!r}, {seed})"
)


def curve_specs(seed: int) -> List[str]:
    """Every registry curve in registry order, ``random`` seeded.

    The order stays fixed: it decides which grids are resident
    together, so shuffling it would move peak memory between seeds.
    """
    from repro.curves.registry import available_curves

    return [
        f"random:seed={seed}" if name == "random" else name
        for name in available_curves()
    ]


def _universes(pairs):
    from repro import Universe

    return [Universe(d=d, side=side) for d, side in pairs]


def dense_sweep(specs: List[str], warm: bool, store: Optional[str]):
    from repro.engine.sweep import Sweep

    return Sweep(
        universes=_universes(DENSE_UNIVERSES),
        curves=specs,
        metrics=DENSE_METRICS,
        reports=False,
        chunk_cells=0,
        processes=WARM_PROCESSES if warm else None,
        store_dir=store,
    )


def chunked_sweep(warm: bool):
    from repro.engine.sweep import Sweep

    return Sweep(
        universes=_universes((CHUNKED_UNIVERSE,)),
        curves=list(CHUNKED_CURVES),
        metrics=CHUNKED_METRICS,
        reports=False,
        chunk_cells=CHUNK_CELLS,
        threads=WARM_THREADS if warm else None,
    )


def run_pass(specs: List[str], warm: bool, store: Optional[str]):
    """One pass; ``(seconds, [dense_result, chunked_result])``."""
    start = time.perf_counter()
    results = [
        dense_sweep(specs, warm, store).run(),
        chunked_sweep(warm).run(),
    ]
    return time.perf_counter() - start, results


def fill_store(store: str, seed: int) -> None:
    """Set-up of ``sweep_warm``: one warm-configuration dense sweep
    over an empty store writes every artifact later passes map."""
    dense_sweep(curve_specs(seed), warm=True, store=store).run()


def _records(results) -> list:
    return [record for result in results for record in result.records]


def check_pass(records: list, reference: Optional[list]) -> List[str]:
    """Output checks of one pass; one message per failing cell."""
    from repro.core.lower_bounds import davg_lower_bound

    problems = []
    for record in records:
        bound = record.values.get("lower_bound")
        if bound is None:
            bound = davg_lower_bound(record.n, record.d)
        if not record.values["davg"] >= bound:
            problems.append(
                f"{record.spec}@{record.d}x{record.side}: davg "
                f"{record.values['davg']} < lower bound {bound}"
            )
    if reference is not None:
        if len(records) != len(reference):
            problems.append(
                f"{len(records)} records, expected {len(reference)}"
            )
        for got, want in zip(records, reference):
            if got != want:
                problems.append(
                    f"{got.spec}@{got.d}x{got.side}: record differs "
                    "from the reference pass"
                )
    return problems


def _cache_counts(results) -> Dict[str, float]:
    from repro.engine.context import CacheStats

    stats = CacheStats.aggregate([r.cache_stats for r in results])
    return {
        "engine.context.computes": sum(stats.computes.values()),
        "engine.context.hits": stats.hits,
        "engine.context.mmap": sum(stats.mmap.values()),
        "engine.context.shared": sum(stats.shared.values()),
        "engine.context.derived": sum(stats.derived.values()),
        "engine.context.evictions": stats.evictions,
    }


def _backends(results) -> Dict[str, int]:
    out: Dict[str, int] = {}
    for result in results:
        for name, count in result.cache_stats.backends.items():
            out[name] = out.get(name, 0) + count
    return out


def _check_passes(
    out: Outcome, specs: List[str], warm: bool, passes: List[list]
) -> None:
    """Every timed pass against its reference, after the timed phase.

    ``sweep_cold`` passes must equal the first; ``sweep_warm`` passes
    must equal an untimed ``sweep_cold`` pass of the same seed.
    """
    if warm:
        _, cold = run_pass(specs, warm=False, store=None)
        reference = _records(cold)
        for problem in check_pass(reference, None):
            out.fail("wrong_output", f"reference pass: {problem}")
    else:
        reference = passes[0]
    for records in passes:
        out.attempted += len(records)
        for problem in check_pass(records, reference):
            out.fail("wrong_output", problem)


def run_sweep_workload(
    name: str, seed: int, seconds: float, trace: bool, run_dir
) -> Outcome:
    warm = name == "sweep_warm"
    out = Outcome()
    env = child_env(run_dir.tmp)
    specs = curve_specs(seed)

    # -- set-up ----------------------------------------------------------
    # A traced run needs the store but reports no set-up time.
    n_setups = (1 if warm else 0) if trace else SETUPS[name]
    store = None
    setups: List[float] = []
    setup_cpu: List[float] = []
    for k in range(n_setups):
        if warm:
            if store is not None:
                shutil.rmtree(store, ignore_errors=True)
            store = str(run_dir.path / f"store-{k}")
            code = _FILL.format(bench=str(BENCH_DIR), store=store, seed=seed)
        else:
            code = _IMPORTS
        argv = [sys.executable, "-c", code]
        cpu = cpu_s()
        setups.append(timed_child(argv, env, SETUP_TIMEOUT_S))
        setup_cpu.append(cpu_s() - cpu)

    # -- timed passes ----------------------------------------------------
    # Records of every timed pass, checked after the timed phase.
    passes: List[list] = []

    def measure(budget: float, min_passes: int, tracer=None):
        times: List[float] = []
        cpu_times: List[float] = []
        counts: List[Dict[str, float]] = []
        deadline = time.perf_counter() + budget
        while len(times) < min_passes or time.perf_counter() < deadline:
            handle = tracer.open("bench.pass") if tracer else None
            cpu = cpu_s()
            try:
                elapsed, results = run_pass(specs, warm, store)
            finally:
                if tracer:
                    tracer.close(handle)
            times.append(elapsed)
            cpu_times.append(cpu_s() - cpu)
            passes.append(_records(results))
            counts.append(_cache_counts(results))
            out.backends = _backends(results)
            out.report["cells_per_pass"] = len(passes[-1])
            out.report["skipped_per_pass"] = sum(
                len(r.skipped) for r in results
            )
        return times, cpu_times, counts

    if not trace:
        times, cpu_times, _ = measure(seconds, MIN_PASSES)
        peak = peak_rss_mib()
        _check_passes(out, specs, warm, passes)
        out.metrics = {
            "setup_s": min(setup_cpu),
            "peak_rss_mib": peak,
            "ok_ratio": 1.0 - out.failed / max(out.attempted, 1),
            "cpu_ms_per_op": 1e3
            * median(cpu_times)
            / out.report["cells_per_pass"],
        }
        out.report["pass_wall_s"] = times
        out.report["setup_wall_s"] = setups
        out.report["sweep_s"] = median(times)
        out.report["pass_cpu_s"] = cpu_times
        out.report["setup_cpu_s"] = setup_cpu
        return out

    # -- traced run: untraced passes, then the same passes traced --------
    from layers import install_engine, layer_metrics
    from tracing import Tracer

    plain, _, _ = measure(seconds / 2, 2)
    tracer = Tracer()
    install_engine(tracer)
    lo = time.perf_counter_ns()
    traced, _, counts = measure(seconds / 2, 2, tracer)
    hi = time.perf_counter_ns()
    _check_passes(out, specs, warm, passes)
    summary = tracer.summary(lo, hi)
    main = tracer.summary(lo, hi, thread=threading.get_ident())
    cache = {
        key: sum(c[key] for c in counts) / len(counts) for key in counts[0]
    }
    cache["serve.service.rejected"] = 0.0
    metrics = layer_metrics(summary, len(traced), cache)
    pass_total = summary["total_s"].get("bench.pass", 0.0)
    # Both ratios are per traced pass against the fastest untraced pass:
    # the first pass in a process also pays lazy imports, which would
    # otherwise read as (negative) overhead.
    plain_s = min(plain)
    metrics["trace.overhead_ratio"] = (
        sum(traced) / (plain_s * len(traced)) - 1.0
    )
    # How much of the untraced wall time the main thread's layer spans
    # account for; the bench.pass root (unattributed time) is left out.
    layer_self = sum(
        value for span, value in main["self_s"].items() if span != "bench.pass"
    )
    metrics["trace.self_sum_ratio"] = layer_self / (plain_s * len(traced))
    metrics["trace.unattributed_ratio"] = (
        summary["self_s"].get("bench.pass", 0.0) / pass_total
        if pass_total
        else 0.0
    )
    out.metrics = metrics
    out.report["untraced_pass_wall_s"] = plain
    out.report["traced_pass_wall_s"] = traced
    return out
