"""Shared-memory grid store: one key grid per spec, many processes.

A process-pool sweep (``Sweep(processes=N)``) historically rebuilt every
curve's key grid privately in each worker — the exact redundancy the
paper's shared-structure argument says to exploit: all stretch metrics
of a cell reduce over *one* permutation's key grid.  The
:class:`SharedGridStore` removes it:

* the **parent** computes one key grid per canonical curve spec and
  copies it into a
  :class:`multiprocessing.shared_memory.SharedMemory` segment;
* the **workers** receive the segment manifest through the executor
  initializer and attach **zero-copy read-only NumPy views** instead of
  recomputing; resolutions are counted under
  :attr:`repro.engine.CacheStats.shared`.  Flat keys and the curve
  order are ``O(n)`` rearrangements of the grid, so a worker derives
  them from the view;
* after the sweep the parent **unlinks** every segment (in a
  ``finally``, so segments are reclaimed even when a worker raises or
  dies mid-run).

Entries are keyed by :func:`shared_key` — a process-stable rendering of
:meth:`repro.curves.base.SpaceFillingCurve.cache_key` — so two
separately constructed but equivalent curves (parent's and worker's)
resolve to the same segments.

Only grids a worker cannot build faster than it can read them are
shared.  :func:`reuse_key` is the one rule every publisher and reader
consults (this store, the persistent
:class:`repro.engine.store.GridStore` and process sweeps): it returns ``None`` — compute locally — for instance-keyed
curves (explicit permutation tables, whose identity cannot be
re-derived in another process), for table curves (``random``,
``peano``: the constructor has built the table before any tier is
consulted) and for curves a native codec encodes on the backend the
cells run with (a 2D 1024 grid builds in a few ms, less than a
verified store read plus a copy into a segment).  What is left to
share are the transforms (``reversed``/``reflected``/``axisperm``,
which no codec encodes) and, on the NumPy backend, every other
spec-keyed curve.

Attached views index shared pages: a worker never pays the curve
evaluation again, and the grid's memory is mapped once machine-wide
instead of once per worker.

>>> import numpy as np
>>> store = SharedGridStore.create()
>>> store.put(("demo",), "key_grid", np.arange(4, dtype=np.int64))
>>> twin = SharedGridStore.attach(store.manifest())
>>> view = twin.get(("demo",), "key_grid")
>>> bool((view == np.arange(4)).all()) and not view.flags.writeable
True
>>> twin.get(("other",), "key_grid") is None   # unpublished -> compute
True
>>> twin.close(); store.unlink()
"""

from __future__ import annotations

import threading
from multiprocessing import shared_memory
from typing import Dict, Optional, Tuple

import numpy as np

from repro.curves.base import PermutationCurve, SpaceFillingCurve
from repro.grid.universe import Universe

__all__ = [
    "SharedGridStore",
    "reuse_key",
    "shared_key",
]


class _Unshareable(Exception):
    """Raised while stabilizing a cache key that embeds instance state."""


def _stable(part: object) -> object:
    """``part`` of a cache key rendered process-stable, or raise."""
    if isinstance(part, type):
        # Types hash by identity, which differs across interpreter
        # processes under the spawn start method; the qualified name is
        # stable and just as unique.
        return f"{part.__module__}.{part.__qualname__}"
    if isinstance(part, Universe):
        return ("universe", part.d, part.side)
    if isinstance(part, tuple):
        if part and part[0] == "instance":
            # PermutationCurve tables are keyed by id(); another
            # process cannot reproduce the key, so the spec cannot be
            # matched to a published segment.
            raise _Unshareable
        return tuple(_stable(p) for p in part)
    if part is None or isinstance(part, (str, int, float, bool)):
        return part
    raise _Unshareable


def shared_key(curve: SpaceFillingCurve) -> Optional[tuple]:
    """Process-stable store key of ``curve``'s canonical spec.

    ``None`` when the curve is instance-keyed (its
    :meth:`~repro.curves.base.SpaceFillingCurve.cache_key` embeds
    ``id()``-based state a worker process cannot reproduce) — such
    curves are computed locally, never shared.

    >>> from repro import Universe, ZCurve
    >>> u = Universe.power_of_two(d=2, k=2)
    >>> shared_key(ZCurve(u)) == shared_key(ZCurve(u))
    True
    >>> from repro.curves.base import PermutationCurve
    >>> import numpy as np
    >>> table = PermutationCurve(u, order=u.all_coords())
    >>> shared_key(table) is None
    True
    """
    try:
        return _stable(curve.cache_key())  # type: ignore[return-value]
    except _Unshareable:
        return None


def reuse_key(curve: SpaceFillingCurve, backend: str) -> Optional[tuple]:
    """The key ``curve``'s grids are stored and shared under, or ``None``.

    ``None`` means "every context computes its own": the curve is
    instance-keyed (:func:`shared_key` is ``None``), it is a table
    curve (its constructor already holds the grid, so a store or a
    segment would only copy it), or a native codec serves it on
    ``backend`` (the backend the cells run with, resolved as
    :class:`repro.engine.MetricContext` resolves it), so building the
    grid is cheaper than reading it back.  Codecs match exact types and
    a transform holds no table, so a transform such as
    ``reversed:inner=random`` keeps its key and is stored and shared.

    >>> from repro import Universe, ZCurve
    >>> from repro.curves.random_curve import RandomCurve
    >>> from repro.curves.transforms import ReversedCurve
    >>> u = Universe.power_of_two(d=2, k=2)
    >>> reuse_key(ZCurve(u), "numpy") == shared_key(ZCurve(u))
    True
    >>> reuse_key(RandomCurve(u, seed=1), "numpy") is None
    True
    >>> reuse_key(ReversedCurve(RandomCurve(u, seed=1)), "auto") is not None
    True
    """
    if isinstance(curve, PermutationCurve):
        return None
    if curve._native_codec(backend) is not None:
        return None
    return shared_key(curve)


class SharedGridStore:
    """Keyed shared-memory segments holding read-only NumPy arrays.

    One store has two lives: the **owner** (sweep parent) fills it with
    :meth:`put` and eventually calls :meth:`unlink`; **attached** copies
    (workers) are built from :meth:`manifest` via :meth:`attach` and
    resolve arrays with :meth:`get`.  Entries are keyed by
    ``(spec_key, kind)`` where ``spec_key`` comes from
    :func:`shared_key` and ``kind`` names the array (the engine
    publishes only ``key_grid``).

    Lifecycle rules:

    * ``put`` copies the array into a fresh segment exactly once per
      key (re-publishing an existing key raises — aliasing two arrays
      under one key would silently corrupt every attached reader);
    * ``get`` returns a zero-copy read-only view, or ``None`` when the
      key was never published (callers fall back to local compute);
    * ``unlink`` (owner) removes every segment from the system; it is
      idempotent and tolerates segments that already vanished, so a
      ``finally:`` call is always safe;
    * ``close`` (workers) drops this process's handles without touching
      the underlying segments.
    """

    def __init__(
        self,
        manifest: Optional[Dict[tuple, Tuple[str, tuple, str]]] = None,
        owner: bool = False,
    ) -> None:
        #: ``(spec_key, kind) -> (segment_name, shape, dtype_str)``.
        self._entries: Dict[tuple, Tuple[str, tuple, str]] = dict(
            manifest or {}
        )
        self._segments: Dict[str, shared_memory.SharedMemory] = {}
        self._views: Dict[tuple, np.ndarray] = {}
        self.owner = owner
        # Serializes attach/publish/cleanup.  Concurrent `get` calls on
        # the same entry (block-scheduler worker threads of one cell's
        # context) would otherwise attach the segment twice and drop
        # one SharedMemory wrapper — whose __del__ unmaps pages a live
        # view still points at.
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def create(cls) -> "SharedGridStore":
        """A fresh owning store (the sweep parent's side)."""
        return cls(owner=True)

    @classmethod
    def attach(
        cls, manifest: Dict[tuple, Tuple[str, tuple, str]]
    ) -> "SharedGridStore":
        """A non-owning store resolving a published :meth:`manifest`.

        Segments are attached lazily on first :meth:`get`, so a worker
        only maps the specs its cells actually touch.
        """
        return cls(manifest=manifest, owner=False)

    def manifest(self) -> Dict[tuple, Tuple[str, tuple, str]]:
        """Picklable description of every entry (pass to workers)."""
        with self._lock:
            return dict(self._entries)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: tuple) -> bool:
        with self._lock:
            return key in self._entries

    @property
    def segment_names(self) -> Tuple[str, ...]:
        """Names of every published segment (test / cleanup hook)."""
        with self._lock:
            return tuple(name for name, _, _ in self._entries.values())

    @property
    def nbytes(self) -> int:
        """Total bytes across all published arrays."""
        with self._lock:
            return sum(
                int(np.prod(shape, dtype=np.int64))
                * np.dtype(dtype).itemsize
                for _, shape, dtype in self._entries.values()
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        role = "owner" if self.owner else "attached"
        return (
            f"SharedGridStore({role}, {len(self)} entries, "
            f"{self.nbytes / 2**20:.1f} MiB)"
        )

    # ------------------------------------------------------------------
    # Owner side
    # ------------------------------------------------------------------
    def put(self, spec_key: tuple, kind: str, array: np.ndarray) -> None:
        """Copy ``array`` into a new segment under ``(spec_key, kind)``."""
        if not self.owner:
            raise ValueError("only the owning store can publish segments")
        entry_key = (spec_key, kind)
        with self._lock:
            if entry_key in self._entries:
                raise ValueError(
                    f"entry {entry_key!r} is already published"
                )
            arr = np.ascontiguousarray(array)
            segment = shared_memory.SharedMemory(
                create=True, size=max(1, arr.nbytes)
            )
            view = np.ndarray(
                arr.shape, dtype=arr.dtype, buffer=segment.buf
            )
            view[...] = arr
            view.flags.writeable = False
            self._segments[segment.name] = segment
            self._entries[entry_key] = (
                segment.name,
                arr.shape,
                arr.dtype.str,
            )
            self._views[entry_key] = view

    # ------------------------------------------------------------------
    # Reader side
    # ------------------------------------------------------------------
    def get(self, spec_key: tuple, kind: str) -> Optional[np.ndarray]:
        """Zero-copy read-only view of an entry, or ``None`` if absent.

        Also returns ``None`` when the manifest names a segment that no
        longer exists (e.g. the parent already unlinked it) — callers
        treat that as a cache miss and compute locally.

        Thread-safe: one store is consulted by every worker thread of
        a cell's block scheduler, and each segment must be attached
        exactly once — a racing second attach would drop one
        ``SharedMemory`` wrapper and unmap pages the surviving view
        still indexes (a segfault, not an exception).
        """
        entry_key = (spec_key, kind)
        with self._lock:
            view = self._views.get(entry_key)
            if view is not None:
                return view
            entry = self._entries.get(entry_key)
            if entry is None:
                return None
            name, shape, dtype = entry
            try:
                segment = shared_memory.SharedMemory(name=name)
            except FileNotFoundError:
                return None
            view = np.ndarray(
                shape, dtype=np.dtype(dtype), buffer=segment.buf
            )
            view.flags.writeable = False
            self._segments[name] = segment
            self._views[entry_key] = view
            return view

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Drop this process's handles; the segments themselves survive.

        A handle whose view is still referenced elsewhere cannot be
        unmapped (the exported buffer pins it); such handles are left
        for process teardown, which is exactly what happens to worker
        processes exiting after a sweep.
        """
        with self._lock:
            self._views.clear()
            for segment in self._segments.values():
                try:
                    segment.close()
                except BufferError:  # a live view pins the mapping
                    pass
            self._segments.clear()

    def unlink(self) -> None:
        """Remove every segment from the system (owner cleanup).

        Safe to call unconditionally in ``finally``: missing segments
        (already unlinked, or never created because publishing failed
        midway) are skipped, and attached readers keep working until
        they drop their mappings — unlink only removes the name.
        """
        with self._lock:
            self._views.clear()
            for name, _, _ in self._entries.values():
                segment = self._segments.pop(name, None)
                if segment is None:
                    try:
                        segment = shared_memory.SharedMemory(name=name)
                    except FileNotFoundError:
                        continue
                try:
                    segment.close()
                except BufferError:  # pragma: no cover - view still alive
                    pass
                try:
                    segment.unlink()
                except FileNotFoundError:  # pragma: no cover - already gone
                    pass
            self._entries.clear()
            self._segments.clear()
