"""The sweep service core: persistent pools, warm start, admission.

One :class:`SweepService` owns the engine state that ``repro sweep``
rebuilds per invocation and keeps it for the process lifetime:

* a :class:`repro.engine.ContextPool` per execution mode
  ``(chunk_cells, threads, backend)`` — every request computing a
  canonical (curve, universe) spec resolves the *same* context, so key
  grids and metric memos persist across requests, and the warm-started
  hot set's grids stay resident in their pooled contexts under the
  same LRU rule as every other grid;
* the async request machinery — a :class:`SingleFlight` table keyed by
  the engine's canonical :class:`~repro.engine.sweep.CellTask` and a
  :class:`MicroBatcher`
  draining new cells to a single compute thread.

Admission control happens *before* any engine work: oversized requests
are rejected by a byte estimate (413), and requests that would push the
in-flight cell count past ``max_inflight`` get a 429 with a retry hint
— the bounded-queue backpressure the tentpole requires.
"""

from __future__ import annotations

import asyncio
import dataclasses
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

from repro.engine.context import DEFAULT_CACHE_BYTES, CacheStats
from repro.engine.pool import ContextPool
from repro.engine.sweep import CurveSpec, _assemble, _run_cell
from repro.engine.threads import resolve_threads
from repro.grid.universe import Universe
from repro.serve.batching import MicroBatcher
from repro.serve.schemas import (
    CellRecord,
    CellSkip,
    DynamicStepRequest,
    DynamicStepResponse,
    SweepRequest,
    SweepResponse,
)
from repro.serve.singleflight import SingleFlight

__all__ = ["ServeConfig", "SweepService", "parse_hot_set"]


def parse_hot_set(text: str) -> Tuple[Tuple[str, int, int], ...]:
    """Parse ``--hot-set``: ``;``-separated ``spec@DxS`` entries.

    Curve specs may contain commas and colons (``random:seed=3``), so
    entries are ``;``-separated and the geometry rides after the last
    ``@``: ``"hilbert@2x64;random:seed=3@3x16"``.

    >>> parse_hot_set("hilbert@2x64; z@3x16")
    (('hilbert', 2, 64), ('z', 3, 16))
    >>> parse_hot_set("")
    ()
    """
    entries = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        spec, sep, geometry = chunk.rpartition("@")
        if not sep or not spec:
            raise ValueError(
                f"hot-set entry {chunk!r} is not of the form spec@DxS"
            )
        d_text, sep, side_text = geometry.partition("x")
        try:
            d, side = int(d_text), int(side_text)
        except ValueError:
            raise ValueError(
                f"hot-set geometry {geometry!r} is not DxS (e.g. 2x64)"
            ) from None
        if not sep or d < 1 or side < 1:
            raise ValueError(
                f"hot-set geometry {geometry!r} is not DxS (e.g. 2x64)"
            )
        entries.append((spec, d, side))
    return tuple(entries)


@dataclass(frozen=True)
class ServeConfig:
    """Everything ``repro serve`` needs to run."""

    host: str = "127.0.0.1"
    port: int = 8842
    #: ``(curve_spec, d, side)`` pairs warmed at startup.
    hot_set: Tuple[Tuple[str, int, int], ...] = ()
    #: Bound on concurrently in-flight canonical cells (backpressure).
    max_inflight: int = 64
    #: Micro-batch collection window (seconds).
    batch_window_s: float = 0.005
    #: Default per-request timeout; requests may lower/raise their own.
    timeout_s: float = 30.0
    #: Reject requests whose cells' estimated engine state exceeds
    #: this (bytes); ``None`` disables the check.
    max_request_bytes: Optional[int] = 1 << 30
    #: Per-context LRU budget, as in ``Sweep.max_bytes``.
    max_bytes: Optional[int] = DEFAULT_CACHE_BYTES
    #: Default worker threads per cell for requests that don't choose.
    threads: Union[None, int, str] = None
    #: Default compute backend for requests that don't choose
    #: (``"numpy"``, ``"native"``, or ``"auto"``).
    backend: str = "auto"
    #: Bound on live ``/dynamic/step`` sessions (each holds a point
    #: population and its incremental aggregates resident).
    max_sessions: int = 16
    #: Directory of a persistent :class:`repro.engine.store.GridStore`
    #: (``repro serve --store``), or ``None``.  With a store the warm
    #: start *maps* previously computed hot-set grids from disk instead
    #: of evaluating curves, every pool writes fresh grids through, and
    #: a server restart comes back warm — persistence across restarts,
    #: which ``--hot-set`` alone (the pooled contexts die with the
    #: process) cannot provide.
    store_dir: Optional[str] = None


class _DynamicSession:
    """One live :class:`repro.engine.dynamic.DynamicUniverse` + its lock.

    The lock serializes step batches per session on the event loop;
    the universe itself is only ever touched from the compute thread.
    """

    __slots__ = ("universe", "lock")

    def __init__(self, universe) -> None:
        self.universe = universe
        self.lock = asyncio.Lock()


class SweepService:
    """Long-lived sweep engine behind the HTTP app.

    Construction performs the warm start synchronously (the server
    should not accept requests advertising a cold hot set);
    :meth:`start` (async) brings up the batcher and executor, and
    :meth:`aclose` drains and tears them down — the clean shutdown the
    lifecycle tests assert on.
    """

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        #: The persistent grid store behind every pool, or ``None``.
        self.grid_store = None
        if config.store_dir is not None:
            from repro.engine.store import GridStore

            self.grid_store = GridStore(config.store_dir)
        self.flight = SingleFlight()
        self.counters: Dict[str, int] = {
            "requests": 0,
            "cells_planned": 0,
            "cells_started": 0,
            "served_from_warm": 0,
            "timeouts": 0,
            "rejected": 0,
            "errors": 0,
            "dynamic_requests": 0,
            "dynamic_steps": 0,
            "dynamic_moves": 0,
        }
        #: Live dynamic sessions by name; see :meth:`handle_dynamic`.
        self._sessions: Dict[str, "_DynamicSession"] = {}
        self._pools: Dict[Tuple, ContextPool] = {}
        self._pool_lock = threading.Lock()
        self._warm_pairs: set = set()
        self._default_threads = resolve_threads(config.threads)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self.batcher: Optional[MicroBatcher] = None
        self._warm_start()

    # ------------------------------------------------------------------
    # Engine state
    # ------------------------------------------------------------------
    def _pool_for(
        self,
        chunk_cells: Optional[int] = None,
        threads: Optional[int] = None,
        backend: Optional[str] = None,
    ) -> ContextPool:
        """The persistent pool of one execution mode (created once).

        ``threads`` and ``backend`` default to the server's, so
        ``_pool_for()`` is the default pool.
        """
        threads = threads or self._default_threads
        backend = backend or self.config.backend
        key = (chunk_cells, threads, backend)
        with self._pool_lock:
            pool = self._pools.get(key)
            if pool is None:
                pool = ContextPool(
                    max_bytes=self.config.max_bytes,
                    chunk_cells=chunk_cells,
                    threads=threads,
                    backend=backend,
                    store=self.grid_store,
                )
                self._pools[key] = pool
            return pool

    def _warm_start(self) -> None:
        """Compute the hot set's grids into the default pool.

        A hot entry that fails to parse or construct raises — a typo'd
        hot set should stop the server at startup, not surface as
        mysteriously cold requests later.

        Every hot grid is resident in its pooled context afterwards.
        With a persistent store configured the pools are already wired
        to it, so a restarted server *maps* previously computed grids
        from disk here (counted in ``cache.mmap``) instead of
        re-evaluating the curves, and first-boot computes are written
        through for the next restart — except for the curves the store
        exempts (tables, and curves encoded by a native codec on the
        served backend), which a context builds faster than it reads.
        """
        for spec_text, d, side in self.config.hot_set:
            spec = CurveSpec.parse(spec_text)
            curve = spec.make(Universe(d=d, side=side))
            self._pool_for().get(curve).key_grid()
            self._warm_pairs.add((d, side, spec.label))

    def run_batch(self, tasks: list) -> list:
        """Execute one micro-batch on the compute thread.

        Returns one outcome per task — a ``SweepRecord``, a
        ``SkippedCell``, or the exception the cell raised (callers
        map those per request; one bad cell must not fail its
        batchmates).
        """
        outcomes = []
        for task in tasks:
            try:
                pool = self._pool_for(
                    task.chunk_cells, task.threads, task.backend
                )
                outcomes.append(_run_cell(task, pool=pool))
            except Exception as exc:
                outcomes.append(exc)
        return outcomes

    @staticmethod
    def estimate_task_bytes(task) -> int:
        """Rough resident engine state of one cell (admission check).

        Chunked cells hold ~64 bytes per block cell (keys, coordinates,
        reduction temporaries); dense cells hold the key grid plus the
        same-order derived arrays (flat keys, curve order, per-cell
        grids).
        """
        n = task.side**task.d
        if task.chunk_cells:
            return min(n, task.chunk_cells) * 64
        return n * 8 * 4

    # ------------------------------------------------------------------
    # Async lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        # Single compute thread: cells parallelize internally via the
        # engine's block scheduler; see the batching module docstring.
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-compute"
        )
        self.batcher = MicroBatcher(
            self.run_batch,
            self._finish_cell,
            window_s=self.config.batch_window_s,
            executor=self._executor,
        )
        await self.batcher.start()

    def _finish_cell(self, key, outcome) -> None:
        self.flight.resolve(key, outcome)

    async def aclose(self) -> None:
        """Stop the batcher, fail waiting requests, drain compute."""
        if self.batcher is not None:
            await self.batcher.aclose()
        self.flight.fail_all(RuntimeError("server shutting down"))
        if self._executor is not None:
            # wait=True: a batch still computing finishes before the
            # service reports itself closed.
            self._executor.shutdown(wait=True)

    # ------------------------------------------------------------------
    # Request handling
    # ------------------------------------------------------------------
    async def _settle(
        self, futures: list, request, what: str
    ) -> Optional[Tuple[int, dict]]:
        """``None`` once every future holds a result; else the 504 of
        a timeout or the failure of the first future that raised.

        The timeout is the request's, else the server's.  A timeout
        never cancels the futures: they are shared with concurrent
        requests through the single-flight table, and the work goes on
        server-side.
        """
        timeout = (
            request.timeout_s
            if request.timeout_s is not None
            else self.config.timeout_s
        )
        _, pending = await asyncio.wait(futures, timeout=timeout)
        if pending:
            self.counters["timeouts"] += 1
            return 504, {
                "error": (
                    f"{what} timed out after {timeout}s; it continues "
                    "server-side"
                )
            }
        for future in futures:
            if future.exception() is not None:
                return self._failure(future.exception())
        return None

    def _failure(self, exc: BaseException) -> Tuple[int, dict]:
        """The response for a plan, cell or session exception: the
        errors a caller can cause are 400s, anything else a 500."""
        self.counters["errors"] += 1
        if isinstance(exc, (ValueError, KeyError)):
            # A KeyError's str() is the repr of its message.
            message = exc.args[0] if len(exc.args) == 1 else exc
            return 400, {"error": str(message)}
        return 500, {"error": f"{type(exc).__name__}: {exc}"}

    async def handle_sweep(self, request: SweepRequest) -> Tuple[int, dict]:
        """``(status, payload)`` for one validated sweep request."""
        self.counters["requests"] += 1
        if isinstance(request.threads, int):
            # Values are bit-for-bit equal at any thread count; more
            # threads than cores only adds OS threads and pools.
            request = dataclasses.replace(
                request, threads=min(request.threads, resolve_threads("auto"))
            )
        try:
            sweep = request.to_sweep(
                max_bytes=self.config.max_bytes,
                default_threads=self.config.threads,
                default_backend=self.config.backend,
                store_dir=self.config.store_dir,
            )
            tasks, planned_skips = sweep._plan()
        except (ValueError, KeyError) as exc:
            return self._failure(exc)
        unique = list(dict.fromkeys(tasks))
        self.counters["cells_planned"] += len(unique)
        if self.config.max_request_bytes is not None:
            estimate = sum(map(self.estimate_task_bytes, unique))
            if estimate > self.config.max_request_bytes:
                self.counters["rejected"] += 1
                return 413, {
                    "error": (
                        f"request needs ~{estimate} bytes of engine "
                        f"state, over the server's "
                        f"{self.config.max_request_bytes}-byte budget; "
                        "split the sweep or pass chunk_cells"
                    )
                }
        if (
            len(self.flight) + self.flight.new_keys(unique)
            > self.config.max_inflight
        ):
            self.counters["rejected"] += 1
            return 429, {
                "error": (
                    "server is at its in-flight cell bound "
                    f"({self.config.max_inflight}); retry shortly"
                ),
                "retry_after_s": max(self.config.batch_window_s * 10, 0.1),
            }
        warm_hits = sum(
            1
            for task in unique
            if (task.d, task.side, task.spec) in self._warm_pairs
        )
        self.counters["served_from_warm"] += warm_hits
        deduped = 0
        futures: Dict[object, asyncio.Future] = {}
        for task in unique:
            future, created = self.flight.admit(task, self._loop)
            if created:
                self.counters["cells_started"] += 1
                self.batcher.enqueue(task, task)
            else:
                deduped += 1
            futures[task] = future
        if futures:
            failed = await self._settle(
                list(futures.values()), request, "sweep"
            )
            if failed:
                return failed
        records, skipped = _assemble(
            tasks,
            {task: future.result() for task, future in futures.items()},
            planned_skips,
        )
        response = SweepResponse(
            records=tuple(map(CellRecord.from_record, records)),
            skipped=tuple(map(CellSkip.from_skip, skipped)),
            deduped_cells=deduped,
            served_from_warm=warm_hits,
        )
        return 200, response.to_dict()

    # ------------------------------------------------------------------
    # Dynamic sessions
    # ------------------------------------------------------------------
    async def handle_dynamic(
        self, request: DynamicStepRequest
    ) -> Tuple[int, dict]:
        """``(status, payload)`` for one validated dynamic-step request.

        Session creation goes through the single-flight table (keyed
        ``("dynamic", name)``), so concurrent self-bootstrapping
        requests build the universe once and share it.  Steps run on
        the *same* single compute thread as sweep micro-batches and are
        serialized per session by an :class:`asyncio.Lock` — concurrent
        batches against one session compose sequentially, never
        interleave.
        """
        self.counters["dynamic_requests"] += 1
        name = request.session
        created = False
        session = self._sessions.get(name)
        if session is None:
            if request.create is None:
                self.counters["errors"] += 1
                return 404, {
                    "error": (
                        f"no dynamic session {name!r}; include a "
                        '"create" block to bootstrap it'
                    )
                }
            if len(self._sessions) >= self.config.max_sessions:
                self.counters["rejected"] += 1
                return 429, {
                    "error": (
                        "server is at its dynamic session bound "
                        f"({self.config.max_sessions}); retry shortly"
                    ),
                    "retry_after_s": 1.0,
                }
            key = ("dynamic", name)
            future, created = self.flight.admit(key, self._loop)
            if created:

                def build() -> object:
                    try:
                        return self._build_session(request.create)
                    except Exception as exc:
                        return exc

                handle = self._loop.run_in_executor(self._executor, build)

                def publish(done_future) -> None:
                    outcome = done_future.result()
                    if not isinstance(outcome, BaseException):
                        self._sessions[name] = outcome
                    self.flight.resolve(key, outcome)

                handle.add_done_callback(publish)
            failed = await self._settle(
                [future], request, "session bootstrap"
            )
            if failed:
                return failed
            session = future.result()
        # The step task owns the session lock for its full compute, so
        # a request timeout returns 504 without breaking serialization
        # (the in-flight batch finishes before the next one starts).
        task = self._loop.create_task(
            self._step_session(session, request)
        )
        failed = await self._settle([task], request, "dynamic step")
        if failed:
            return failed
        response: DynamicStepResponse = task.result()
        if created:
            response = dataclasses.replace(response, created=True)
        return 200, response.to_dict()

    def _build_session(self, create) -> "_DynamicSession":
        """Construct one dynamic universe on the compute thread.

        The universe rides on the service's default pool, so its key
        grids (and any re-selection candidates') are the same cached
        contexts sweep requests resolve.
        """
        import numpy as np

        from repro.engine.dynamic import DynamicUniverse

        universe = Universe(d=create.d, side=create.side)
        dyn = DynamicUniverse(
            create.curve,
            universe=universe,
            pool=self._pool_for(),
            parts=create.parts,
            window=create.window,
            reselect_threshold=create.reselect_threshold,
            candidates=create.candidates,
        )
        if create.seed_points:
            rng = np.random.default_rng(create.seed)
            dyn.bulk_load(
                rng.integers(
                    0,
                    create.side,
                    size=(create.seed_points, create.d),
                    dtype=np.int64,
                )
            )
        return _DynamicSession(dyn)

    async def _step_session(
        self, session: "_DynamicSession", request: DynamicStepRequest
    ) -> DynamicStepResponse:
        """Apply one batch under the session lock, on the compute thread."""
        async with session.lock:
            def compute() -> DynamicStepResponse:
                dyn = session.universe
                if request.moves:
                    metrics = dyn.apply(list(request.moves))
                else:
                    metrics = dyn.metrics()
                parity = None
                if request.verify:
                    parity = metrics == dyn.recompute()
                return DynamicStepResponse(
                    session=request.session,
                    spec=dyn.spec,
                    step=dyn.steps,
                    metrics={
                        "n_points": metrics.n_points,
                        "n_cells": metrics.n_cells,
                        "edge_count": metrics.edge_count,
                        "stretch_sum": metrics.stretch_sum,
                        "davg": metrics.davg,
                        "dilation": metrics.dilation,
                        "loads": list(metrics.loads),
                    },
                    drift=dyn.drift(),
                    reselections=len(dyn.reselections),
                    parity=parity,
                )

            response = await self._loop.run_in_executor(
                self._executor, compute
            )
            if request.moves:
                self.counters["dynamic_steps"] += 1
                self.counters["dynamic_moves"] += len(request.moves)
            return response

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats_payload(self) -> dict:
        """The ``GET /stats`` body: engine counters + service counters."""
        with self._pool_lock:
            pools = list(self._pools.values())
        stats = CacheStats.aggregate([pool.stats for pool in pools])
        counters = dict(self.counters)
        counters["deduped_cells"] = self.flight.coalesced
        payload = {
            "cache": {
                "hits": stats.hits,
                "misses": stats.misses,
                "hit_rate": stats.hit_rate,
                "evictions": stats.evictions,
                "computes": dict(stats.computes),
                "derived": dict(stats.derived),
                "shared": dict(stats.shared),
                "mmap": dict(stats.mmap),
                "backends": dict(stats.backends),
            },
            "backend": self.config.backend,
            "counters": counters,
            "inflight": len(self.flight),
            "pools": len(pools),
            "warm_pairs": sorted(
                f"{spec}@{d}x{side}" for d, side, spec in self._warm_pairs
            ),
            "dynamic": {
                "sessions": {
                    name: {
                        "points": len(session.universe),
                        "spec": session.universe.spec,
                        "steps": session.universe.steps,
                        "reselections": len(
                            session.universe.reselections
                        ),
                    }
                    for name, session in sorted(self._sessions.items())
                },
                "max_sessions": self.config.max_sessions,
            },
        }
        if self.grid_store is not None:
            payload["store"] = {
                "dir": str(self.grid_store.root),
                "entries": len(self.grid_store.entries()),
                "nbytes": self.grid_store.nbytes,
                "quarantined": self.grid_store.quarantined_count(),
                "counters": self.grid_store.stats(),
            }
        if self.batcher is not None:
            payload["counters"]["batches"] = self.batcher.batches
            payload["counters"]["batched_cells"] = self.batcher.batched_cells
            payload["counters"]["max_batch"] = self.batcher.max_batch
        return payload
