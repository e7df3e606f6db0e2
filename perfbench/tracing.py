"""In-memory spans around calls into the library's public functions.

The benchmark never edits library code.  :func:`patch_function` and
:func:`patch_method` replace a function or method with a wrapper that records one span —
``(name, start_ns, end_ns, parent, thread)`` — per call, plus optional
counts, and rebinds the wrapper everywhere the original object is bound
in a loaded ``repro`` module (``from x import f`` copies included).

Parents come from a :class:`contextvars.ContextVar`, so nesting is
right both on plain threads and across interleaved asyncio tasks.
Spans opened on a worker thread whose context does not carry the
caller's span (block-scheduler threads, ``run_in_executor`` calls) are
roots of their own thread.  A layer's *self time* is its spans'
duration minus the part of each interval that its child spans cover.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import statistics
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

_current: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=None
)


class Tracer:
    """Collects spans and counters in memory for one process."""

    def __init__(self) -> None:
        #: One ``[name, start_ns, end_ns, parent_index, thread_id]``
        #: list per span; ``end_ns`` is filled when the span closes.
        self.spans: List[list] = []
        #: ``(name, ns, amount)`` count events and ``(name, ns, value)``
        #: samples, timestamped so a summary can keep one time window.
        self.counts: List[Tuple[str, int, float]] = []
        self.samples: List[Tuple[str, int, float]] = []
        self._lock = threading.Lock()

    def open(self, name: str) -> Tuple[int, contextvars.Token]:
        record = [
            name,
            time.perf_counter_ns(),
            0,
            _current.get(),
            threading.get_ident(),
        ]
        with self._lock:
            self.spans.append(record)
            index = len(self.spans) - 1
        return index, _current.set(index)

    def close(self, handle: Tuple[int, contextvars.Token]) -> None:
        index, token = handle
        self.spans[index][2] = time.perf_counter_ns()
        _current.reset(token)

    def current_name(self) -> Optional[str]:
        """Name of the innermost open span in this context, if any."""
        index = _current.get()
        return None if index is None else self.spans[index][0]

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts.append((name, time.perf_counter_ns(), amount))

    def sample(self, name: str, value: float) -> None:
        with self._lock:
            self.samples.append((name, time.perf_counter_ns(), value))

    def summary(
        self,
        lo: int = 0,
        hi: Optional[int] = None,
        thread: Optional[int] = None,
    ) -> dict:
        """Self/total seconds, counts and samples of ``[lo, hi)``.

        Spans count when they start inside the window (``perf_counter``
        is system-wide monotonic on Linux, so a window measured in
        another process applies); ``thread`` keeps one thread's spans.
        The result is JSON-ready.
        """
        hi = time.perf_counter_ns() if hi is None else hi
        with self._lock:
            spans = [list(span) for span in self.spans]
            counts = list(self.counts)
            samples = list(self.samples)
        # Self times are computed over every span, then filtered, so a
        # parent's children are subtracted even near the window edges.
        own = self_times(spans)
        self_s: Dict[str, float] = defaultdict(float)
        total_s: Dict[str, float] = defaultdict(float)
        kept = 0
        for span, own_ns in zip(spans, own):
            name, start, end = span[0], span[1], span[2]
            if not (lo <= start < hi) or not end:
                continue
            if thread is not None and span[4] != thread:
                continue
            kept += 1
            self_s[name] += own_ns / 1e9
            total_s[name] += (end - start) / 1e9
        totals: Dict[str, float] = defaultdict(float)
        for name, ns, amount in counts:
            if lo <= ns < hi:
                totals[name] += amount
        values: Dict[str, List[float]] = defaultdict(list)
        for name, ns, value in samples:
            if lo <= ns < hi:
                values[name].append(value)
        return {
            "self_s": dict(self_s),
            "total_s": dict(total_s),
            "counts": dict(totals),
            "samples": dict(values),
            "span_count": kept,
        }

    # -- wrapping ------------------------------------------------------
    def wrap(
        self,
        fn: Callable,
        name: str,
        on_call: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` recording a span ``name`` per call.

        ``on_call(tracer, args, kwargs, result)`` runs after each call
        (also when it raised, with ``result=None``) to add counts.
        """
        tracer = self
        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                handle = tracer.open(name)
                result = None
                try:
                    result = await fn(*args, **kwargs)
                    return result
                finally:
                    tracer.close(handle)
                    if on_call is not None:
                        on_call(tracer, args, kwargs, result)

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            handle = tracer.open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer.close(handle)
                if on_call is not None:
                    on_call(tracer, args, kwargs, result)

        return wrapper


def rebind(original: object, replacement: object) -> None:
    """Replace every module-level binding of ``original`` in repro."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (
            mod_name == "repro" or mod_name.startswith("repro.")
        ):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def patch_function(
    tracer: Tracer, module, attr: str, name: str, on_call=None
) -> None:
    original = getattr(module, attr)
    rebind(original, tracer.wrap(original, name, on_call))


def patch_method(
    tracer: Tracer, cls, attr: str, name: str, on_call=None
) -> None:
    """Wrap ``cls.attr`` (plain, class- or static method) in place."""
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(tracer.wrap(raw.__func__, name, on_call)))
    elif isinstance(raw, staticmethod):
        setattr(cls, attr, staticmethod(tracer.wrap(raw.__func__, name, on_call)))
    else:
        setattr(cls, attr, tracer.wrap(raw, name, on_call))


# ----------------------------------------------------------------------
# Self times
# ----------------------------------------------------------------------
def _covered(intervals: List[Tuple[int, int]], lo: int, hi: int) -> int:
    """Length of ``[lo, hi)`` covered by the union of ``intervals``."""
    total = 0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: List[list]) -> List[int]:
    """Self time (ns) of every span: duration minus child coverage."""
    children: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
    for name, start, end, parent, thread in spans:
        if parent is not None and end:
            children[parent].append((start, end))
    out = []
    for index, (name, start, end, parent, thread) in enumerate(spans):
        if not end:
            out.append(0)
            continue
        out.append((end - start) - _covered(children[index], start, end))
    return out


def percentile(values: List[float], q: float) -> Optional[float]:
    """The ``q``-quantile, only when ≥10 samples lie beyond it."""
    if not values:
        return None
    if q == 0.5:
        return statistics.median(values)
    ordered = sorted(values)
    beyond = len(ordered) * (1.0 - q)
    if beyond < 10:
        return None
    return ordered[min(len(ordered) - 1, int(len(ordered) * q))]
