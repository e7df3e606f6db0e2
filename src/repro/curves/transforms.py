"""Curve transforms: axis permutations, reflections, index reversal.

Section IV-B remarks that "different Z curves are possible by taking the
dimensions in a different order during interleaving, but these are all
equivalent … for the metrics that we consider."  These wrappers make that
remark testable: each produces a new SFC from an existing one, and the
invariance of every stretch metric under them is asserted in the tests
and the E12 bench.

Each transform is a grid automorphism, so its key slabs are an ``O(n)``
array map (complement, flip, transpose) of the inner curve's slabs,
never a per-point evaluation.
"""

from __future__ import annotations

import abc
import functools
from typing import Callable, Optional, Sequence

import numpy as np

from repro.curves.base import SpaceFillingCurve

__all__ = [
    "AxisPermutedCurve",
    "CurveTransform",
    "ReflectedCurve",
    "ReversedCurve",
]

#: ``(lo, hi) -> slab``: the inner curve's key slab for planes ``[lo, hi)``.
SlabSource = Callable[[int, int], np.ndarray]


class CurveTransform(SpaceFillingCurve):
    """A curve defined by a grid automorphism of an ``inner`` curve."""

    def __init__(self, inner: SpaceFillingCurve) -> None:
        super().__init__(inner.universe)
        self.inner = inner

    def derives_slab(self, lo: int, hi: int) -> bool:
        """Whether :meth:`key_slab` maps ``[lo, hi)`` from inner slabs."""
        return True

    def key_slab(
        self,
        lo: int,
        hi: int,
        backend: str = "auto",
        inner_slab: Optional[SlabSource] = None,
    ) -> np.ndarray:
        """``key_grid()[lo:hi]``, mapped from the inner curve's slabs.

        ``inner_slab`` reads those slabs: a pooled base context passes
        its cached ``_key_slab``; the default is the inner curve's own
        :meth:`key_slab`.  A range :meth:`derives_slab` declines is
        built like any curve's.
        """
        if not self.derives_slab(lo, hi):
            return super().key_slab(lo, hi, backend)
        if inner_slab is None:
            inner_slab = functools.partial(
                self.inner.key_slab, backend=backend
            )
        return self._map_slab(lo, hi, inner_slab)

    @abc.abstractmethod
    def _map_slab(
        self, lo: int, hi: int, inner_slab: SlabSource
    ) -> np.ndarray:
        """Slab ``[lo, hi)`` of this curve from the inner curve's slabs."""


class AxisPermutedCurve(CurveTransform):
    """Relabel grid dimensions before applying the inner curve.

    ``π'(x) = π(x ∘ perm)``: coordinate axis ``i`` of the new curve feeds
    axis ``perm[i]`` of the inner curve.  Because the grid is a cube and
    the neighbor structure is axis-symmetric, all stretch metrics are
    invariant.
    """

    def __init__(
        self, inner: SpaceFillingCurve, perm: Sequence[int]
    ) -> None:
        super().__init__(inner)
        # Checked before the int64 cast, which overflows on huge ints.
        if sorted(int(v) for v in perm) != list(range(inner.universe.d)):
            raise ValueError(
                f"perm must be a permutation of 0..{inner.universe.d - 1}"
            )
        perm_arr = np.asarray(perm, dtype=np.int64)
        self.perm = perm_arr
        self.name = f"{inner.name}-perm{''.join(map(str, perm_arr.tolist()))}"

    def _cache_token(self) -> object:
        return ("perm", tuple(int(v) for v in self.perm), self.inner.cache_key())

    def _index_impl(self, coords: np.ndarray) -> np.ndarray:
        return self.inner.index(coords[..., self.perm])

    def _coords_impl(self, index: np.ndarray) -> np.ndarray:
        inner_coords = self.inner.coords(index)
        out = np.empty_like(inner_coords)
        out[..., self.perm] = inner_coords
        return out

    def keys_of(self, points, backend: str = "auto") -> np.ndarray:
        arr = self.universe.validate_coords(points)
        return self.inner.keys_of(arr[..., self.perm], backend=backend)

    def coords_of(self, keys, backend: str = "auto") -> np.ndarray:
        inner_coords = self.inner.coords_of(keys, backend=backend)
        out = np.empty_like(inner_coords)
        out[..., self.perm] = inner_coords
        return out

    def derives_slab(self, lo: int, hi: int) -> bool:
        # Relabeling axes transposes the whole grid; one slab of the
        # result gathers from every plane of the inner grid.
        return (lo, hi) == (0, self.universe.side)

    def _map_slab(
        self, lo: int, hi: int, inner_slab: SlabSource
    ) -> np.ndarray:
        # grid'[x] = grid[y] with y[k] = x[perm[k]]  ⇔  transpose(inv).
        inv = tuple(int(v) for v in np.argsort(self.perm))
        return np.ascontiguousarray(inner_slab(lo, hi).transpose(inv))


class ReflectedCurve(CurveTransform):
    """Reflect selected axes (``x_i → side − 1 − x_i``) before indexing.

    Reflections are grid automorphisms, so stretch metrics are invariant.
    """

    def __init__(
        self, inner: SpaceFillingCurve, axes: Sequence[int]
    ) -> None:
        super().__init__(inner)
        axes_list = sorted(set(int(a) for a in axes))
        if axes_list and not (
            0 <= axes_list[0] and axes_list[-1] < inner.universe.d
        ):
            raise ValueError(f"axes must lie in [0, {inner.universe.d})")
        self.axes = axes_list
        self.name = f"{inner.name}-reflect{''.join(map(str, axes_list))}"

    def _cache_token(self) -> object:
        return ("reflect", tuple(self.axes), self.inner.cache_key())

    def _reflect(self, coords: np.ndarray) -> np.ndarray:
        out = coords.copy()
        for axis in self.axes:
            out[..., axis] = self.universe.side - 1 - out[..., axis]
        return out

    def _index_impl(self, coords: np.ndarray) -> np.ndarray:
        return self.inner.index(self._reflect(coords))

    def _coords_impl(self, index: np.ndarray) -> np.ndarray:
        return self._reflect(self.inner.coords(index))

    def keys_of(self, points, backend: str = "auto") -> np.ndarray:
        arr = self.universe.validate_coords(points)
        return self.inner.keys_of(self._reflect(arr), backend=backend)

    def coords_of(self, keys, backend: str = "auto") -> np.ndarray:
        return self._reflect(self.inner.coords_of(keys, backend=backend))

    def _map_slab(
        self, lo: int, hi: int, inner_slab: SlabSource
    ) -> np.ndarray:
        # Reflecting axis 0 reads the mirrored plane range.
        if 0 in self.axes:
            lo, hi = self.universe.side - hi, self.universe.side - lo
        return np.flip(inner_slab(lo, hi), axis=tuple(self.axes)).copy()


class ReversedCurve(CurveTransform):
    """Traverse the inner curve backwards: ``π'(x) = n − 1 − π(x)``.

    ``|π'(α) − π'(β)| = |π(α) − π(β)|`` identically, so every metric is
    exactly preserved — the strongest invariance case.
    """

    def __init__(self, inner: SpaceFillingCurve) -> None:
        super().__init__(inner)
        self.name = f"{inner.name}-reversed"

    def _cache_token(self) -> object:
        return ("reversed", self.inner.cache_key())

    def _index_impl(self, coords: np.ndarray) -> np.ndarray:
        return self.universe.n - 1 - self.inner.index(coords)

    def _coords_impl(self, index: np.ndarray) -> np.ndarray:
        return self.inner.coords(self.universe.n - 1 - index)

    def keys_of(self, points, backend: str = "auto") -> np.ndarray:
        return self.universe.n - 1 - self.inner.keys_of(
            points, backend=backend
        )

    def coords_of(self, keys, backend: str = "auto") -> np.ndarray:
        arr = self.universe.validate_ranks(keys)
        return self.inner.coords_of(
            self.universe.n - 1 - arr, backend=backend
        )

    def _map_slab(
        self, lo: int, hi: int, inner_slab: SlabSource
    ) -> np.ndarray:
        return self.universe.n - 1 - inner_slab(lo, hi)
