"""Async single-flight table: one in-flight computation per cell key.

PR 4 gave ``Sweep.run`` spec-keyed dedup *within one sweep* — identical
``CellTask`` values compute once and share their outcome positionally.
The service generalizes that across *concurrent requests*: the
canonical cell key (the frozen, hashable
:class:`~repro.engine.sweep.CellTask`, which pins the universe, curve
spec, metric set and execution knobs) maps to one
``asyncio.Future``; the first request to name a key starts the
computation, every later request awaits the same future, and nobody
computes a canonical cell twice while it is in flight.  Completed keys
leave the table — *result* reuse across requests is the engine pool's
job (its caches make the recomputation near-free), keeping this table
small and free of invalidation policy.

Single-threaded by design: every method must be called on the event
loop thread (the batcher hands outcomes back via
``loop.call_soon_threadsafe``), so the table needs no lock.
"""

from __future__ import annotations

import asyncio
from typing import Dict, Hashable, Iterable, Tuple

__all__ = ["SingleFlight"]


class SingleFlight:
    """In-flight futures keyed by canonical cell key."""

    def __init__(self) -> None:
        self._inflight: Dict[Hashable, asyncio.Future] = {}
        #: Admissions that attached to an existing in-flight future.
        self.coalesced = 0
        #: Admissions that created a new future (computations started).
        self.started = 0

    def __len__(self) -> int:
        return len(self._inflight)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._inflight

    def new_keys(self, keys: Iterable[Hashable]) -> int:
        """How many of ``keys`` would start a computation right now.

        The admission-control probe: capacity checks must count only
        genuinely new cells, or a request duplicating in-flight work
        would be bounced by the very dedup that makes it cheap.
        """
        return sum(1 for key in keys if key not in self._inflight)

    def admit(
        self, key: Hashable, loop: asyncio.AbstractEventLoop
    ) -> Tuple[asyncio.Future, bool]:
        """``(future, created)`` for ``key``.

        ``created`` is True when this call opened the flight — the
        caller is then responsible for eventually :meth:`resolve`-ing
        the key (the batcher does this for every key it executes).
        """
        future = self._inflight.get(key)
        if future is not None:
            self.coalesced += 1
            return future, False
        future = loop.create_future()
        self._inflight[key] = future
        self.started += 1
        return future, True

    def resolve(self, key: Hashable, outcome: object) -> None:
        """Complete and remove ``key``'s flight.

        ``outcome`` may be an exception instance, which is set as the
        future's exception (every awaiting request sees it).  Unknown
        or already-resolved keys are ignored, so shutdown's blanket
        :meth:`fail_all` and a late batch completion cannot collide.
        """
        future = self._inflight.pop(key, None)
        if future is None or future.done():
            return
        if isinstance(outcome, BaseException):
            future.set_exception(outcome)
            # Every awaiting request retrieves the exception, but a
            # flight may have outlived its waiters (request timeout,
            # shutdown); retrieve it once so asyncio never logs
            # "exception was never retrieved" for an orphaned flight.
            future.add_done_callback(lambda f: f.exception())
        else:
            future.set_result(outcome)

    def fail_all(self, error: BaseException) -> None:
        """Fail every open flight (server shutdown)."""
        for key in list(self._inflight):
            self.resolve(key, error)
