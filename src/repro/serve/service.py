"""The sweep service core: persistent pools, warm start, admission.

One :class:`SweepService` owns the engine state that ``repro sweep``
rebuilds per invocation and keeps it for the process lifetime:

* a :class:`repro.engine.ContextPool` per execution mode
  ``(chunk_cells, threads)`` — every request computing a canonical
  (curve, universe) spec resolves the *same* context, so key grids and
  metric memos persist across requests;
* one owning :class:`repro.engine.shm.SharedGridStore` holding the
  warm-started hot set's grids as shared-memory segments (zero-copy
  re-attachable if the LRU ever evicts, and visible in ``/stats`` as
  the segments to watch for clean teardown);
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
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

from repro.engine.context import DEFAULT_CACHE_BYTES, CacheStats
from repro.engine.pool import ContextPool
from repro.engine.shm import SharedGridStore, shared_key, universe_key
from repro.engine.sweep import CurveSpec, SkippedCell, _run_cell
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
    #: which ``--hot-set`` alone (shared memory dies with the process)
    #: cannot provide.
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
    :meth:`aclose` tears everything down including the shared-memory
    segments — the teardown the lifecycle tests assert on.
    """

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        self.store = SharedGridStore.create()
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
        chunk_cells: Optional[int],
        threads: Optional[int],
        backend: str = "auto",
    ) -> ContextPool:
        """The persistent pool of one execution mode (created once)."""
        key = (chunk_cells, threads, backend)
        with self._pool_lock:
            pool = self._pools.get(key)
            if pool is None:
                pool = ContextPool(
                    max_bytes=self.config.max_bytes,
                    chunk_cells=chunk_cells,
                    shared_store=self.store,
                    threads=threads,
                    backend=backend,
                    store=self.grid_store,
                )
                self._pools[key] = pool
            return pool

    def _warm_start(self) -> None:
        """Compute the hot set's grids and publish them to shared memory.

        A hot entry that fails to parse or construct raises — a typo'd
        hot set should stop the server at startup, not surface as
        mysteriously cold requests later.

        With a persistent store configured the pools are already wired
        to it, so a restarted server *maps* previously computed grids
        from disk here (counted in ``cache.mmap``) instead of
        re-evaluating the curves, and first-boot computes are written
        through for the next restart.
        """
        for spec_text, d, side in self.config.hot_set:
            universe = Universe(d=d, side=side)
            spec = CurveSpec.parse(spec_text)
            curve = spec.make(universe)
            pool = self._pool_for(
                None, self._default_threads, self.config.backend
            )
            ctx = pool.get(curve)
            skey = shared_key(curve)
            if skey is not None and (skey, "key_grid") not in self.store:
                self.store.put(skey, "key_grid", ctx.key_grid())
                if getattr(curve, "inner", None) is None:
                    # Base specs get the full grid set; a transform's
                    # flat keys / inverse are one vector op from the
                    # grid (the process-sweep publish policy).
                    self.store.put(skey, "flat_keys", ctx.flat_keys())
                    self.store.put(
                        skey, "inverse_perm", ctx.inverse_permutation()
                    )
            ukey = universe_key(universe)
            if (ukey, "neighbor_counts") not in self.store:
                self.store.put(
                    ukey, "neighbor_counts", ctx.neighbor_counts()
                )
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
        same-order derived arrays (flat keys, inverse, per-cell grids).
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
        """Stop the batcher, drain compute, unlink shared memory."""
        if self.batcher is not None:
            await self.batcher.aclose()
        self.flight.fail_all(RuntimeError("server shutting down"))
        if self._executor is not None:
            # wait=True: a batch still computing must finish before the
            # store unlinks (its contexts may read shared views).
            self._executor.shutdown(wait=True)
        self.store.unlink()

    # ------------------------------------------------------------------
    # Request handling
    # ------------------------------------------------------------------
    async def handle_sweep(self, request: SweepRequest) -> Tuple[int, dict]:
        """``(status, payload)`` for one validated sweep request."""
        self.counters["requests"] += 1
        try:
            sweep = request.to_sweep(
                max_bytes=self.config.max_bytes,
                default_threads=self.config.threads,
                default_backend=self.config.backend,
                store_dir=self.config.store_dir,
            )
            tasks, planned_skips = sweep._plan()
        except (ValueError, KeyError) as exc:
            self.counters["errors"] += 1
            return 400, {"error": str(exc).strip("'\"")}
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
        timeout = (
            request.timeout_s
            if request.timeout_s is not None
            else self.config.timeout_s
        )
        if futures:
            # asyncio.wait (not wait_for+gather): futures are shared
            # with concurrent requests through the single-flight table,
            # and a timeout here must never cancel them under a request
            # that is still waiting.
            done, pending = await asyncio.wait(
                set(futures.values()), timeout=timeout
            )
            if pending:
                self.counters["timeouts"] += 1
                return 504, {
                    "error": (
                        f"sweep timed out after {timeout}s; the "
                        "computation continues server-side and a retry "
                        "will reuse it"
                    )
                }
        records = []
        skipped = [CellSkip.from_skip(skip) for skip in planned_skips]
        # Original task order, spec-keyed reuse positionally — exactly
        # Sweep.run's assembly.
        for task in tasks:
            future = futures[task]
            exc = future.exception()
            if exc is not None:
                self.counters["errors"] += 1
                if isinstance(exc, (ValueError, KeyError)):
                    return 400, {"error": str(exc).strip("'\"")}
                return 500, {
                    "error": f"{type(exc).__name__}: {exc}"
                }
            outcome = future.result()
            if isinstance(outcome, SkippedCell):
                skipped.append(CellSkip.from_skip(outcome))
            else:
                records.append(CellRecord.from_record(outcome))
        response = SweepResponse(
            records=tuple(records),
            skipped=tuple(skipped),
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
        timeout = (
            request.timeout_s
            if request.timeout_s is not None
            else self.config.timeout_s
        )
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
            future, opened = self.flight.admit(key, self._loop)
            if opened:
                created = True

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
            done, pending = await asyncio.wait({future}, timeout=timeout)
            if pending:
                self.counters["timeouts"] += 1
                return 504, {
                    "error": (
                        f"session bootstrap timed out after {timeout}s; "
                        "it continues server-side and a retry will "
                        "attach to it"
                    )
                }
            exc = future.exception()
            if exc is not None:
                self.counters["errors"] += 1
                if isinstance(exc, (ValueError, KeyError)):
                    return 400, {"error": str(exc).strip("'\"")}
                return 500, {"error": f"{type(exc).__name__}: {exc}"}
            session = future.result()
        # The step task owns the session lock for its full compute, so
        # a request timeout returns 504 without breaking serialization
        # (the in-flight batch finishes before the next one starts).
        task = self._loop.create_task(
            self._step_session(session, request)
        )
        done, pending = await asyncio.wait({task}, timeout=timeout)
        if pending:
            self.counters["timeouts"] += 1
            return 504, {
                "error": (
                    f"dynamic step timed out after {timeout}s; the "
                    "batch continues server-side"
                )
            }
        exc = task.exception()
        if exc is not None:
            self.counters["errors"] += 1
            if isinstance(exc, (ValueError, KeyError)):
                return 400, {"error": str(exc).strip("'\"")}
            return 500, {"error": f"{type(exc).__name__}: {exc}"}
        response: DynamicStepResponse = task.result()
        if created:
            response = DynamicStepResponse(
                session=response.session,
                spec=response.spec,
                step=response.step,
                metrics=response.metrics,
                drift=response.drift,
                reselections=response.reselections,
                created=True,
                parity=response.parity,
            )
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
        pool = self._pool_for(
            None, self._default_threads, self.config.backend
        )
        dyn = DynamicUniverse(
            create.curve,
            universe=universe,
            pool=pool,
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
            "shm": {
                "segments": list(self.store.segment_names),
                "nbytes": self.store.nbytes,
            },
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
