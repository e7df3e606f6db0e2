"""Shared bench infrastructure.

Every bench regenerates one paper artifact (table/figure/claim), writes
its table to ``benchmarks/results/<exp>.txt`` and asserts the paper's
*shape* claim (who wins, by what factor, where limits sit).  Timing is
reported through pytest-benchmark; experiment payloads run once via
``benchmark.pedantic`` so the expensive sweeps are not repeated.

Sweep-shaped benches additionally record the engine's aggregate cache
counters (hits / misses / computes / derivations) into the
pytest-benchmark ``extra_info`` payload, so ``--benchmark-json`` runs
track cache effectiveness alongside wall-clock over time.
"""

from __future__ import annotations

import os
import time
import tracemalloc
from pathlib import Path

import pytest

from _bench_utils import cache_stats_payload  # noqa: F401  (re-export)

RESULTS_DIR = Path(__file__).resolve().parent / "results"


@pytest.fixture(scope="session", autouse=True)
def _isolated_disk_caches(tmp_path_factory):
    """Keep bench runs off the host's persistent caches (see
    tests/conftest.py): native builds go to session tmp when no cache
    is configured, and the store env defaults are cleared so every
    bench that wants a store opts in with an explicit directory.

    The native kernels are built here, once, so no bench times a
    compile; on a host without a compiler this records the fallback
    reason, which the benches then report as before."""
    from repro.engine import native

    preset = os.environ.get("REPRO_NATIVE_CACHE")
    if not preset:
        os.environ["REPRO_NATIVE_CACHE"] = str(
            tmp_path_factory.mktemp("native-cache")
        )
    native.available()
    saved = {
        name: os.environ.pop(name, None)
        for name in ("REPRO_STORE", "REPRO_STORE_CRASH")
    }
    try:
        yield
    finally:
        if not preset:
            del os.environ["REPRO_NATIVE_CACHE"]
        for name, value in saved.items():
            if value is not None:
                os.environ[name] = value


@pytest.fixture
def run_sweep(request):
    """Run a declarative curve × universe sweep (engine-backed).

    The sweep-shaped benches all share this entry point, so their
    orchestration loop lives in :class:`repro.engine.Sweep` instead of
    being hand-rolled per bench.  When the test also uses the
    ``benchmark`` fixture, the sweep's engine cache counters are stored
    under ``extra_info["engine_cache"]`` in the benchmark JSON.
    """
    from repro.engine.sweep import Sweep

    def run(universes, curves=None, metrics=None, **kwargs):
        sweep = Sweep(
            universes=list(universes),
            curves=curves,
            metrics=tuple(metrics) if metrics is not None else (),
            **kwargs,
        )
        result = sweep.run()
        try:
            bench = request.getfixturevalue("benchmark")
        except Exception:
            bench = None
        if bench is not None:
            bench.extra_info["engine_cache"] = cache_stats_payload(
                result.cache_stats
            )
        return result

    return run


@pytest.fixture
def peak_memory(request):
    """Measure a callable's allocation peak (tracemalloc) + wall-clock.

    Returns ``measure(label, fn) -> (value, peak_bytes, seconds)``.
    Every measurement lands under ``extra_info["peak_memory"][label]``
    in the benchmark JSON when the test also uses the ``benchmark``
    fixture — how bench_p3 records dense-vs-chunked footprints over
    time.  tracemalloc tracks NumPy's buffers, so unlike ``ru_maxrss``
    (monotone per process) the peak resets per measured phase.
    """
    payload: dict = {}

    def measure(label: str, fn):
        tracemalloc.start()
        try:
            start = time.perf_counter()
            value = fn()
            seconds = time.perf_counter() - start
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        payload[label] = {
            "peak_bytes": int(peak),
            "seconds": round(seconds, 4),
        }
        # Only attach to a benchmark the test itself declared (and
        # therefore runs): instantiating an unused benchmark fixture
        # here would both warn and suppress the JSON output.
        if "benchmark" in request.fixturenames:
            bench = request.getfixturevalue("benchmark")
            bench.extra_info["peak_memory"] = payload
        return value, peak, seconds

    return measure


@pytest.fixture
def workload_shape(request):
    """Record a dynamic workload's shape into the benchmark JSON.

    Call ``workload_shape(n_points=..., batch_size=..., **extra)`` once
    per bench; everything lands under ``extra_info["workload"]`` so
    ``--benchmark-json`` runs can compare incremental-update timings at
    like-for-like ``k`` (move-batch size) and ``N`` (universe
    population) across revisions.
    """

    def record(n_points: int, batch_size: int, **extra):
        payload = {"n_points": int(n_points), "batch_size": int(batch_size)}
        payload.update(extra)
        if "benchmark" in request.fixturenames:
            bench = request.getfixturevalue("benchmark")
            bench.extra_info["workload"] = payload
        return payload

    return record


@pytest.fixture
def results_writer():
    """Write a named experiment table under benchmarks/results/."""

    def write(name: str, text: str) -> Path:
        RESULTS_DIR.mkdir(exist_ok=True)
        path = RESULTS_DIR / f"{name}.txt"
        path.write_text(text if text.endswith("\n") else text + "\n")
        return path

    return write


def run_once(benchmark, fn, *args, **kwargs):
    """Run an experiment exactly once under the benchmark timer."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
