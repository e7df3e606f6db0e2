"""Space-filling-curve base classes.

An SFC (Section III) is a bijection ``π : U → {0, 1, ..., n−1}``.  The
:class:`SpaceFillingCurve` interface exposes it in both directions,
vectorized:

* ``index(coords)`` — the paper's ``π(α)`` ("key" of a cell);
* ``coords(index)`` — the inverse ``π^{-1}``;
* ``key_grid()``    — a dense ``(side,)*d`` array of keys, the workhorse
  representation for the exact stretch metrics;
* ``order()``       — the cells listed in curve order (a (n, d) array).

Subclasses implement ``_index_impl`` (and optionally ``_coords_impl``);
the base class handles validation and a generic inverse via argsort
when no analytic inverse exists.  A curve is a stateless mapping: it
caches none of these arrays (the metric engine's budgeted store owns
them), except that a :class:`PermutationCurve`'s table *is* the curve.
"""

from __future__ import annotations

import abc
import itertools
import threading
from typing import Optional

import numpy as np

from repro.grid.coords import coords_to_rank, rank_to_coords
from repro.grid.universe import Universe

__all__ = ["SpaceFillingCurve", "PermutationCurve", "check_bijection"]


class SpaceFillingCurve(abc.ABC):
    """Abstract base class for SFCs over a :class:`Universe`.

    Parameters
    ----------
    universe:
        The grid the curve fills.  Subclasses may restrict admissible
        universes (e.g. power-of-two side for bitwise curves).
    """

    #: Short machine name, overridden per subclass (used by the registry).
    name: str = "abstract"

    #: The key table of a :class:`PermutationCurve` (the curve itself);
    #: ``None`` for every curve that computes its keys.
    _key_grid_cache: Optional[np.ndarray] = None

    def __init__(self, universe: Universe) -> None:
        if universe.n > 2**63:
            # Keys run 0..n-1 and every path computes them in int64.
            raise ValueError(
                f"universe d={universe.d}, side={universe.side} has "
                f"n={universe.n} cells: keys 0..n-1 exceed the int64 range"
            )
        self.universe = universe

    # ------------------------------------------------------------------
    # Core mapping
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _index_impl(self, coords: np.ndarray) -> np.ndarray:
        """Vectorized key computation for validated int64 coords ``(..., d)``."""

    def index(self, coords: np.ndarray) -> np.ndarray:
        """``π(α)``: keys for coordinates of shape ``(..., d)``."""
        arr = self.universe.validate_coords(coords)
        return np.asarray(self._index_impl(arr), dtype=np.int64)

    def _coords_impl(self, index: np.ndarray) -> np.ndarray:
        """Inverse mapping; the default builds an ``O(n)`` inverse table
        from the key grid on every call."""
        inverse = inverse_ranks(self.key_grid())
        return rank_to_coords(inverse[index], self.universe)

    def coords(self, index: np.ndarray) -> np.ndarray:
        """``π^{-1}(key)``: coordinates for keys of shape ``(...,)``."""
        arr = self.universe.validate_ranks(index)
        return np.asarray(self._coords_impl(arr), dtype=np.int64)

    # ------------------------------------------------------------------
    # Batch encode/decode (the app/engine hot path)
    # ------------------------------------------------------------------
    def keys_of(
        self, points: np.ndarray, backend: str = "auto"
    ) -> np.ndarray:
        """Batch ``π``: keys for millions of points in one call.

        Identical values to :meth:`index` (which stays the pure-NumPy
        reference); ``backend="auto"``/``"native"`` additionally route
        the analytically-coded curve families through the compiled
        kernels of :mod:`repro.engine.native` when available.  Curves
        without a native codec fall back to the NumPy implementation
        transparently.
        """
        arr = self.universe.validate_coords(points)
        codec = self._native_codec(backend)
        if codec is not None:
            return codec.encode(arr)
        return np.asarray(self._index_impl(arr), dtype=np.int64)

    def coords_of(
        self, keys: np.ndarray, backend: str = "auto"
    ) -> np.ndarray:
        """Batch ``π^{-1}``: the inverse of :meth:`keys_of`."""
        arr = self.universe.validate_ranks(keys)
        codec = self._native_codec(backend)
        if codec is not None:
            return codec.decode(arr)
        return np.asarray(self._coords_impl(arr), dtype=np.int64)

    def _native_codec(self, backend: str):
        """The native codec serving ``backend``, or ``None``."""
        if backend == "numpy":
            return None
        from repro.engine import native

        if native.resolve_backend(backend) != "native":
            return None
        return native.encoder_for(self)

    # ------------------------------------------------------------------
    # Dense representations
    # ------------------------------------------------------------------
    def key_slab(self, lo: int, hi: int, backend: str = "auto") -> np.ndarray:
        """``key_grid()[lo:hi]``: the keys of axis-0 planes ``[lo, hi)``.

        The metric engine's key source.  Cheapest first: a slice of a
        table curve's table, the native codec's one-call ``key_slab``,
        then :meth:`keys_of` on a meshgrid of the slab's coordinates.
        """
        if self._key_grid_cache is not None:
            return self._key_grid_cache[lo:hi]
        codec = self._native_codec(backend)
        if codec is not None:
            return codec.key_slab(lo, hi)
        side, d = self.universe.side, self.universe.d
        axes = [np.arange(lo, hi, dtype=np.int64)]
        axes += [np.arange(side, dtype=np.int64)] * (d - 1)
        mesh = np.meshgrid(*axes, indexing="ij")
        coords = np.stack([m.reshape(-1) for m in mesh], axis=-1)
        keys = self.keys_of(coords, backend=backend)
        return keys.reshape((hi - lo,) + (side,) * (d - 1))

    def key_grid(self) -> np.ndarray:
        """Dense ``(side,)*d`` int64 array: ``key_grid[tuple(α)] = π(α)``.

        The input to every exact stretch computation, built on every
        call by the pure-NumPy reference :meth:`index`.  The metric
        engine (:class:`repro.engine.MetricContext`) builds, caches and
        accounts the grid it folds.
        """
        keys = self.index(self.universe.all_coords())
        # keys are in rank (Fortran) order; reshape accordingly.  The
        # F-ordered reshape may be a view of `keys`, so materialize a
        # C-contiguous copy for cache friendliness downstream.
        return np.ascontiguousarray(
            keys.reshape(self.universe.shape, order="F")
        )

    def order(self) -> np.ndarray:
        """Cells in curve order: ``order()[j]`` is ``π^{-1}(j)``, shape (n, d).

        Built on every call (it runs the full inverse, ``O(n)``).
        """
        return self.coords(np.arange(self.universe.n, dtype=np.int64))

    # ------------------------------------------------------------------
    # Distances & checks
    # ------------------------------------------------------------------
    def curve_distance(self, alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
        """``∆π(α, β) = |π(α) − π(β)|`` (Section III), vectorized."""
        return np.abs(self.index(alpha) - self.index(beta))

    def is_bijection(self) -> bool:
        """Exhaustively verify the SFC is a bijection onto ``{0,…,n−1}``."""
        return check_bijection(self.key_grid(), self.universe.n)

    def is_continuous(self) -> bool:
        """True iff consecutive keys are always grid nearest neighbors.

        The paper's definition allows discontinuous ("self-intersecting")
        curves; classical curves like Hilbert satisfy this, Z does not.
        """
        path = self.order()
        steps = np.abs(np.diff(path, axis=0)).sum(axis=1)
        return bool(np.all(steps == 1))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(d={self.universe.d}, "
            f"side={self.universe.side})"
        )

    # ------------------------------------------------------------------
    # Canonical identity (context sharing)
    # ------------------------------------------------------------------
    def cache_key(self) -> tuple:
        """Hashable identity of the mapping ``π`` this curve realizes.

        Two curves with equal cache keys are guaranteed to map every
        cell to the same key, so shared infrastructure (notably
        :class:`repro.engine.ContextPool`) can serve them from one
        :class:`repro.engine.MetricContext`.  The key is
        ``(type, universe, token)``; parameterized subclasses fold their
        constructor state in via :meth:`_cache_token`.
        """
        return (type(self), self.universe, self._cache_token())

    def _cache_token(self) -> object:
        """Constructor state distinguishing otherwise-equal instances.

        ``None`` for deterministic parameter-free curves (the type and
        universe pin the mapping down).  Subclasses with parameters
        (seeds, reflected axes, axis permutations, explicit tables)
        must override this; returning a token that collides across
        genuinely different mappings would silently alias their caches.
        """
        return None


def bisect_largest(fits, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Per lane, the largest ``v`` in ``[lo, hi]`` with ``fits(v)``.

    ``fits`` maps an int64 array of candidates to a boolean array; it
    must hold at ``lo`` and, along each lane, hold up to some value and
    fail beyond it.  The closed-form inverses use it to invert
    monotone integer counts without floating point.
    """
    while np.any(lo < hi):
        mid = (lo + hi + 1) // 2
        ok = fits(mid)
        lo = np.where(ok, mid, lo)
        hi = np.where(ok, hi, mid - 1)
    return lo


def inverse_ranks(key_grid: np.ndarray) -> np.ndarray:
    """The rank of every key: ``inverse[π(α)] = rank(α)``.

    ``key_grid`` is a dense key grid or its rank-order flattening.
    """
    keys = key_grid.reshape(-1, order="F")
    inverse = np.empty(keys.size, dtype=np.int64)
    inverse[keys] = np.arange(keys.size, dtype=np.int64)
    return inverse


def check_bijection(key_grid: np.ndarray, n: int) -> bool:
    """True iff the flattened key grid is a permutation of ``0..n−1``."""
    flat = np.asarray(key_grid).reshape(-1)
    if flat.size != n:
        return False
    seen = np.zeros(n, dtype=bool)
    if flat.min(initial=0) < 0 or flat.max(initial=0) >= n:
        return False
    seen[flat] = True
    return bool(seen.all())


#: Process-wide source of never-reused instance tokens for
#: instance-keyed curves.  ``id()`` was used historically, but ids are
#: recycled: a table curve garbage-collected while a ContextPool still
#: held its context could alias a *new* table allocated at the same
#: address, silently serving it the dead curve's cached metrics.  A
#: monotonic counter can never collide.
_INSTANCE_TOKENS = itertools.count()
_INSTANCE_TOKEN_LOCK = threading.Lock()


def _next_instance_token() -> int:
    with _INSTANCE_TOKEN_LOCK:
        return next(_INSTANCE_TOKENS)


class PermutationCurve(SpaceFillingCurve):
    """An SFC given by an explicit key grid or cell order.

    This realizes the paper's fully general definition: *any* bijection is
    an SFC.  Used for the Figure 1 curves, random bijections, and curves
    built by recursive construction (Peano) where the natural output is
    the visit order rather than a formula.
    """

    name = "permutation"

    def __init__(
        self,
        universe: Universe,
        key_grid: Optional[np.ndarray] = None,
        order: Optional[np.ndarray] = None,
        name: Optional[str] = None,
    ) -> None:
        super().__init__(universe)
        self._instance_token = _next_instance_token()
        if (key_grid is None) == (order is None):
            raise ValueError("provide exactly one of key_grid or order")
        if key_grid is not None:
            # C order, like every other key grid: the native kernels
            # read key slabs (axis-0 slices of this table) by address.
            grid = np.ascontiguousarray(key_grid, dtype=np.int64)
            if grid.shape != universe.shape:
                raise ValueError(
                    f"key grid shape {grid.shape} != universe {universe.shape}"
                )
        else:
            cells = universe.validate_coords(order)
            if cells.shape != (universe.n, universe.d):
                raise ValueError(
                    f"order shape {cells.shape} != ({universe.n}, {universe.d})"
                )
            ranks = coords_to_rank(cells, universe)
            # -1, not np.empty: a repeated cell leaves some slot unwritten,
            # and leftover memory there could pass the bijection check.
            flat = np.full(universe.n, -1, dtype=np.int64)
            flat[ranks] = np.arange(universe.n, dtype=np.int64)
            grid = np.ascontiguousarray(
                flat.reshape(universe.shape, order="F")
            )
        if not check_bijection(grid, universe.n):
            raise ValueError("supplied mapping is not a bijection onto 0..n-1")
        self._key_grid_cache = grid
        #: The rank of every key, built on the first decode.
        self._decode_table: Optional[np.ndarray] = None
        if name is not None:
            self.name = name

    #: Deterministic subclasses (mapping fully determined by type +
    #: universe) set this True to re-enable context sharing across
    #: instances; raw permutation tables stay instance-keyed because
    #: proving two tables equal would cost an O(n) comparison.
    _deterministic = False

    def _cache_token(self) -> object:
        # The token is a never-reused counter, not id(): an id can be
        # recycled after gc, aliasing two different tables in any
        # cache that outlives the first curve (the ContextPool holds
        # contexts keyed by this token for its whole lifetime).
        if self._deterministic:
            return None
        return ("instance", self._instance_token)

    def key_grid(self) -> np.ndarray:
        """The curve's own table (no copy): the table *is* the curve."""
        return self._key_grid_cache

    def _index_impl(self, coords: np.ndarray) -> np.ndarray:
        # Index the C-order table by coordinate: an F-order flattening
        # of it would copy the whole table on every call.
        return self._key_grid_cache[tuple(np.moveaxis(coords, -1, 0))]

    def _coords_impl(self, index: np.ndarray) -> np.ndarray:
        if self._decode_table is None:
            self._decode_table = inverse_ranks(self._key_grid_cache)
        return rank_to_coords(self._decode_table[index], self.universe)
