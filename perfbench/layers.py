"""Which library calls the traced run wraps, and the per-layer metrics.

Layers are named after the library's modules.  :func:`install_engine`
wraps the curve, engine and dynamic-engine entry points;
:func:`install_serve` adds the HTTP/service layers (used inside the
server process by ``serve_traced.py``).  :func:`layer_metrics` turns
tracer summaries into the ``per_layer`` metrics named in
``BENCHMARK.json``.

Every ``*_s`` metric is a *self time* (span minus its child spans),
except ``serve.service.handle_sweep_s``, ``handle_dynamic_s`` and
``run_batch_s``, which are whole span times (request service time and
compute-thread busy time).  Values are normalised per unit of work:
per sweep pass on the sweep workloads, per HTTP request on
``serve_mixed``.  ``engine.native.computed_bytes`` is computed from
the sizes of the arrays each kernel reads and writes, not measured.
A layer that does not run on a workload reports 0, and so does a p99
with fewer than ten samples beyond it (the run prints the count).
"""

from __future__ import annotations

import threading
import time
from typing import Dict

from tracing import (
    Tracer,
    patch_function,
    patch_method,
    percentile,
    rebind,
)

#: Span name -> metric name, for layers reported as self time.
_SELF_SPANS = {
    "curves.construct": "curves.construct_s",
    "curves.key_grid": "curves.key_grid_s",
    "curves.keys_of": "curves.keys_of_s",
    "engine.context.fold": "engine.context.fold_s",
    "engine.context.finalize": "engine.context.finalize_s",
    "engine.chunked.nn_block_reduction": "engine.chunked.nn_block_reduction_s",
    "engine.chunked.pairwise_sum": "engine.chunked.pairwise_sum_s",
    "engine.threads.nn_reduction": "engine.threads.nn_reduction_s",
    "engine.native.kernel": "engine.native.kernel_s",
    "engine.store.get": "engine.store.get_s",
    "engine.store.put": "engine.store.put_s",
    "engine.shm.put": "engine.shm.put_s",
    "engine.pool.get": "engine.pool.get_s",
    "engine.sweep.plan": "engine.sweep.plan_s",
    "engine.sweep.run": "engine.sweep.run_self_s",
    "engine.dynamic.apply": "engine.dynamic.apply_s",
    "engine.dynamic.metrics": "engine.dynamic.metrics_s",
    "serve.app.dispatch": "serve.app.dispatch_self_s",
    "serve.schemas.parse": "serve.schemas.parse_s",
    "serve.schemas.render": "serve.schemas.render_s",
}
#: Span name -> metric name, for layers reported as whole span time.
_TOTAL_SPANS = {
    "serve.service.handle_sweep": "serve.service.handle_sweep_s",
    "serve.service.handle_dynamic": "serve.service.handle_dynamic_s",
    "serve.service.run_batch": "serve.service.run_batch_s",
}
#: Counter names kept as-is (summed by the wrappers).
_COUNTS = (
    "curves.key_grid_cells",
    "curves.keys_of_points",
    "engine.native.kernel_calls",
    "engine.native.computed_bytes",
    "engine.store.get_calls",
    "engine.store.get_hits",
    "engine.store.put_bytes",
    "engine.shm.put_bytes",
    "engine.shm.get_calls",
    "engine.pool.get_calls",
    "engine.sweep.cells",
    "engine.dynamic.ops",
)


def _nbytes(*arrays) -> int:
    return sum(int(getattr(a, "nbytes", 0)) for a in arrays)


def install_engine(tracer: Tracer) -> None:
    """Wrap the curve and engine entry points (once per process)."""
    import repro.curves.registry as registry
    import repro.curves.transforms as transforms
    import repro.engine.chunked as chunked
    import repro.engine.native as native
    import repro.engine.sweep  # noqa: F401  (binds make_curve et al.)
    import repro.engine.threads as threads
    from repro.curves.base import SpaceFillingCurve
    from repro.engine.context import MetricContext
    from repro.engine.dynamic import DynamicUniverse
    from repro.engine.pool import ContextPool
    from repro.engine.shm import SharedGridStore
    from repro.engine.store import GridStore
    from repro.engine.sweep import Sweep

    # -- curves ----------------------------------------------------------
    patch_function(tracer, registry, "make_curve", "curves.construct")
    original_key_grid = SpaceFillingCurve.key_grid
    traced_key_grid = tracer.wrap(original_key_grid, "curves.key_grid")

    def key_grid(self):
        if self._key_grid_cache is None:
            tracer.count("curves.key_grid_cells", self.universe.n)
        return traced_key_grid(self)

    SpaceFillingCurve.key_grid = key_grid

    def count_points(tr, args, kwargs, result):
        # Transform wrappers delegate to their inner curve: count the
        # outermost call only.
        if tr.current_name() != "curves.keys_of":
            points = args[1] if len(args) > 1 else kwargs["points"]
            tr.count("curves.keys_of_points", len(points))

    classes = [SpaceFillingCurve] + [
        cls
        for cls in vars(transforms).values()
        if isinstance(cls, type)
        and issubclass(cls, SpaceFillingCurve)
        and "keys_of" in cls.__dict__
    ]
    for cls in classes:
        patch_method(tracer, cls, "keys_of", "curves.keys_of", count_points)

    # -- engine.context --------------------------------------------------
    for attr in ("per_cell_stretch_sums", "lambda_sums", "nn_distance_values"):
        patch_method(tracer, MetricContext, attr, "engine.context.fold")
    for attr in ("davg", "dmax", "nn_mean", "lower_bound", "davg_ratio"):
        patch_method(tracer, MetricContext, attr, "engine.context.finalize")

    # -- engine.chunked / engine.threads ---------------------------------
    patch_function(
        tracer, chunked, "nn_block_reduction",
        "engine.chunked.nn_block_reduction",
    )
    # The block reductions hand pairwise_sum_stream a generator that
    # runs the fold lazily; time each pull as the calling layer's span
    # so the fold is not billed to the summation.
    original_sum = chunked.pairwise_sum_stream
    traced_sum = tracer.wrap(original_sum, "engine.chunked.pairwise_sum")

    def pairwise_sum_stream(blocks, *args, **kwargs):
        producer = tracer.current_name() or "engine.chunked.pairwise_sum"

        def pulled():
            source = iter(blocks)
            while True:
                handle = tracer.open(producer)
                try:
                    block = next(source)
                except StopIteration:
                    return
                finally:
                    tracer.close(handle)
                yield block

        return traced_sum(pulled(), *args, **kwargs)

    rebind(original_sum, pairwise_sum_stream)
    patch_function(
        tracer, threads, "threaded_nn_reduction", "engine.threads.nn_reduction"
    )

    # -- engine.native ---------------------------------------------------
    def kernel_bytes(select):
        def on_call(tr, args, kwargs, result):
            tr.count("engine.native.kernel_calls")
            tr.count("engine.native.computed_bytes", select(args, result))

        return on_call

    kernel_io = {
        "nn_block_pairs": lambda a, r: _nbytes(a[1], a[4], a[5]),
        "neighbor_counts": lambda a, r: _nbytes(a[5]),
        "window_max": lambda a, r: _nbytes(a[1], a[2]),
        "delta_fold": lambda a, r: _nbytes(a[1], a[2]),
    }
    for attr, select in kernel_io.items():
        patch_method(
            tracer, native.NativeKernels, attr, "engine.native.kernel",
            kernel_bytes(select),
        )
    for attr in ("encode", "decode"):
        patch_method(
            tracer, native._Codec, attr, "engine.native.kernel",
            kernel_bytes(lambda a, r: _nbytes(a[1], r)),
        )

    # -- engine.store / engine.shm / engine.pool -------------------------
    def store_get(tr, args, kwargs, result):
        tr.count("engine.store.get_calls")
        if result is not None:
            tr.count("engine.store.get_hits")

    patch_method(tracer, GridStore, "get", "engine.store.get", store_get)
    patch_method(
        tracer, GridStore, "put", "engine.store.put",
        lambda tr, a, k, r: tr.count("engine.store.put_bytes", _nbytes(a[3])),
    )
    patch_method(
        tracer, SharedGridStore, "put", "engine.shm.put",
        lambda tr, a, k, r: tr.count("engine.shm.put_bytes", _nbytes(a[3])),
    )
    patch_method(
        tracer, SharedGridStore, "get", "engine.shm.get",
        lambda tr, a, k, r: tr.count("engine.shm.get_calls"),
    )
    patch_method(
        tracer, ContextPool, "get", "engine.pool.get",
        lambda tr, a, k, r: tr.count("engine.pool.get_calls"),
    )

    # -- engine.sweep ----------------------------------------------------
    def planned(tr, args, kwargs, result):
        if result is not None:
            tr.count("engine.sweep.cells", len(result[0]))

    patch_method(tracer, Sweep, "_plan", "engine.sweep.plan", planned)
    patch_method(tracer, Sweep, "run", "engine.sweep.run")

    # -- engine.dynamic --------------------------------------------------
    patch_method(
        tracer, DynamicUniverse, "apply", "engine.dynamic.apply",
        lambda tr, a, k, r: tr.count("engine.dynamic.ops", len(a[1])),
    )
    patch_method(tracer, DynamicUniverse, "metrics", "engine.dynamic.metrics")


def install_serve(tracer: Tracer) -> None:
    """Wrap the HTTP, schema, service, batching and single-flight layers."""
    from repro.serve.app import HttpServer
    from repro.serve.batching import MicroBatcher
    from repro.serve.schemas import (
        DynamicStepRequest,
        DynamicStepResponse,
        SweepRequest,
        SweepResponse,
    )
    from repro.serve.service import SweepService
    from repro.serve.singleflight import SingleFlight

    patch_method(tracer, HttpServer, "dispatch", "serve.app.dispatch")
    for cls in (SweepRequest, DynamicStepRequest):
        patch_method(tracer, cls, "from_dict", "serve.schemas.parse")
    for cls in (SweepResponse, DynamicStepResponse):
        patch_method(tracer, cls, "to_dict", "serve.schemas.render")
    patch_method(
        tracer, SweepService, "handle_sweep", "serve.service.handle_sweep"
    )
    patch_method(
        tracer, SweepService, "handle_dynamic", "serve.service.handle_dynamic"
    )

    # Queue wait: enqueue (event-loop thread) to batch start (compute
    # thread), per cell.
    enqueued: Dict[object, int] = {}
    lock = threading.Lock()
    original_enqueue = MicroBatcher.enqueue

    def enqueue(self, key, task):
        with lock:
            enqueued[key] = time.perf_counter_ns()
        return original_enqueue(self, key, task)

    MicroBatcher.enqueue = enqueue
    traced_run_batch = tracer.wrap(
        SweepService.run_batch, "serve.service.run_batch"
    )

    def run_batch(self, tasks):
        now = time.perf_counter_ns()
        with lock:
            waits = [now - enqueued.pop(task, now) for task in tasks]
        for wait in waits:
            tracer.sample("serve.batching.queue_wait_ms", wait / 1e6)
        tracer.sample("serve.batching.batch_size", len(tasks))
        return traced_run_batch(self, tasks)

    SweepService.run_batch = run_batch

    def admitted(tr, args, kwargs, result):
        tr.count("serve.singleflight.admitted")
        if result is not None and not result[1]:
            tr.count("serve.singleflight.deduped")

    patch_method(
        tracer, SingleFlight, "admit", "serve.singleflight.admit", admitted
    )


def layer_metrics(
    summary: dict, units: int, cache: Dict[str, float]
) -> Dict[str, float]:
    """The per-layer metrics from one :meth:`Tracer.summary`.

    ``units`` is the number of work units the summary covers (passes or
    requests); ``cache`` holds the ``engine.context.*`` tier counts and
    ``serve.service.rejected``, already per unit.  The ``trace.*``
    accounting ratios other than the span count are added by the
    workload, which knows its untraced baseline.
    """
    per = max(units, 1)
    counts = summary["counts"]
    out: Dict[str, float] = {}
    for span, metric in _SELF_SPANS.items():
        out[metric] = summary["self_s"].get(span, 0.0) / per
    for span, metric in _TOTAL_SPANS.items():
        out[metric] = summary["total_s"].get(span, 0.0) / per
    for name in _COUNTS:
        out[name] = counts.get(name, 0.0) / per
    out.update(cache)
    waits = summary["samples"].get("serve.batching.queue_wait_ms", [])
    out["serve.batching.queue_wait_p50_ms"] = percentile(waits, 0.5) or 0.0
    out["serve.batching.queue_wait_p99_ms"] = percentile(waits, 0.99) or 0.0
    sizes = summary["samples"].get("serve.batching.batch_size", [])
    out["serve.batching.batch_size_mean"] = (
        sum(sizes) / len(sizes) if sizes else 0.0
    )
    admitted = counts.get("serve.singleflight.admitted", 0.0)
    out["serve.singleflight.admitted"] = admitted / per
    out["serve.singleflight.dedup_ratio"] = (
        counts.get("serve.singleflight.deduped", 0.0) / admitted
        if admitted
        else 0.0
    )
    out["trace.span_count"] = summary["span_count"] / per
    return out
