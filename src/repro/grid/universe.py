"""The d-dimensional grid universe of Section III.

The paper's model: the universe is the grid of dimensions
``s × s × ... × s`` (d times) with ``s = 2^k`` for a non-negative integer
``k``, and ``n = s^d`` cells.  Each cell is a d-tuple
``(x_1, ..., x_d)`` with ``0 <= x_i < s``.

This module keeps the model slightly more general: any integer side
``s >= 1`` is allowed (the simple curve, snake curve, random bijections and
all metrics are well defined for any side), while curves that require a
power-of-two side (Z, Gray, Hilbert) check :attr:`Universe.k` themselves.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterator

import numpy as np

__all__ = ["Universe"]


def _is_power_of(value: int, base: int) -> bool:
    """Return True iff ``value == base**m`` for some integer ``m >= 0``."""
    if value < 1:
        return False
    while value % base == 0:
        value //= base
    return value == 1


def strict_index(value, what: str) -> int:
    """``value`` as an ``int``; bools, floats and other non-integers
    raise ``ValueError`` rather than being truncated or read as 0/1.
    Integer types such as ``np.int64`` pass."""
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return operator.index(value)


def _as_int64(arr: np.ndarray, what: str) -> np.ndarray:
    """``arr`` cast to int64, refusing values the cast would change.

    Integer and boolean arrays cast as they are; a float array must
    hold only finite whole numbers.  Any other dtype is refused.
    """
    kind = arr.dtype.kind
    if kind == "f":
        if not (np.isfinite(arr).all() and (arr == np.trunc(arr)).all()):
            raise ValueError(f"{what} must be whole numbers")
    elif kind not in "iub":
        raise ValueError(f"{what} must be integers, got dtype {arr.dtype}")
    return arr.astype(np.int64, copy=False)


@dataclass(frozen=True)
class Universe:
    """The universe ``U``: a d-dimensional grid with ``side`` cells per axis.

    Parameters
    ----------
    d:
        Number of dimensions.  The paper assumes ``d`` is a constant; any
        ``d >= 1`` is supported here (memory permitting: ``n = side**d``).
    side:
        Number of cells along each axis (the paper's ``n^{1/d} = 2^k``).

    Notes
    -----
    Axis ``i`` of a coordinate array corresponds to the paper's dimension
    ``i + 1``.  In particular the paper's "dimension 1" is
    ``coords[..., 0]``.
    """

    d: int
    side: int

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError(f"dimension must be >= 1, got {self.d}")
        if self.side < 1:
            raise ValueError(f"side must be >= 1, got {self.side}")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def power_of_two(cls, d: int, k: int) -> "Universe":
        """The paper's universe with side ``2^k`` (``n = 2^{kd}``)."""
        if k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        return cls(d=d, side=1 << k)

    @classmethod
    def from_cell_count(cls, d: int, n: int) -> "Universe":
        """Universe with ``n`` cells; ``n`` must be a perfect d-th power."""
        side = round(n ** (1.0 / d))
        # Fix rounding drift for large n.
        for candidate in (side - 1, side, side + 1):
            if candidate >= 1 and candidate**d == n:
                return cls(d=d, side=candidate)
        raise ValueError(f"n={n} is not a perfect {d}-th power")

    # ------------------------------------------------------------------
    # Scalar structure
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Total number of cells, ``side**d``."""
        return self.side**self.d

    @property
    def k(self) -> int:
        """``log2(side)`` when the side is a power of two.

        Raises
        ------
        ValueError
            If ``side`` is not a power of two.  Curves relying on the
            paper's ``side = 2^k`` assumption call this and surface a
            clear error for unsupported grids.
        """
        if not _is_power_of(self.side, 2):
            raise ValueError(f"side={self.side} is not a power of two")
        return self.side.bit_length() - 1

    @property
    def shape(self) -> tuple[int, ...]:
        """Shape of a dense per-cell array: ``(side,) * d``."""
        return (self.side,) * self.d

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"Universe(d={self.d}, side={self.side}, n={self.n})"

    # ------------------------------------------------------------------
    # Cell enumeration
    # ------------------------------------------------------------------
    def all_coords(self) -> np.ndarray:
        """All cell coordinates, shape ``(n, d)``.

        Cells are listed in the order of the *simple curve* (Eq. 8): the
        paper's dimension 1 (axis 0) varies fastest.
        """
        ranks = np.arange(self.n, dtype=np.int64)
        from repro.grid.coords import rank_to_coords

        return rank_to_coords(ranks, self)

    def iter_cells(self) -> Iterator[tuple[int, ...]]:
        """Iterate over cells as Python tuples (simple-curve order)."""
        for row in self.all_coords():
            yield tuple(int(v) for v in row)

    def coordinate_grids(self) -> list[np.ndarray]:
        """Per-axis coordinate arrays of shape ``(side,)*d``.

        ``coordinate_grids()[i][cell] == coords(cell)[i]``, with array axis
        ``i`` indexing the paper's dimension ``i+1``.
        """
        axes = [np.arange(self.side, dtype=np.int64) for _ in range(self.d)]
        return list(np.meshgrid(*axes, indexing="ij"))

    # ------------------------------------------------------------------
    # Validation helpers
    # ------------------------------------------------------------------
    def contains(self, coords: np.ndarray) -> np.ndarray:
        """Boolean mask of which coordinate rows lie inside the grid."""
        arr = np.asarray(coords)
        if arr.shape[-1] != self.d:
            raise ValueError(
                f"coords last axis must be d={self.d}, got {arr.shape[-1]}"
            )
        return np.all((arr >= 0) & (arr < self.side), axis=-1)

    def validate_coords(self, coords: np.ndarray) -> np.ndarray:
        """Return ``coords`` as an int64 array, raising if out of range.

        Non-integral values and inputs without a coordinate axis raise
        ``ValueError``; nothing is truncated.
        """
        arr = np.asarray(coords)
        if arr.ndim == 0 or arr.shape[-1] != self.d:
            raise ValueError(
                f"coords last axis must be d={self.d}, got shape {arr.shape}"
            )
        arr = _as_int64(arr, "coordinates")
        # Same test as ``np.all(self.contains(arr))`` without the
        # (..., d) boolean temporaries: this runs on every batch encode.
        if arr.size and (arr.min() < 0 or arr.max() >= self.side):
            raise ValueError("coordinates outside the universe")
        return arr

    def validate_ranks(self, ranks: np.ndarray) -> np.ndarray:
        """Return ``ranks`` as an int64 array, raising if out of range.

        Non-integral values raise ``ValueError``; nothing is truncated.
        """
        arr = _as_int64(np.asarray(ranks), "ranks")
        if arr.size and (arr.min() < 0 or arr.max() >= self.n):
            raise ValueError(f"ranks must lie in [0, {self.n})")
        return arr

    # ------------------------------------------------------------------
    # Boundary structure (used by Theorems 2-3 boundary corrections)
    # ------------------------------------------------------------------
    def boundary_axis_count(self) -> np.ndarray:
        """Per-cell count of axes on which the cell touches the boundary.

        A cell ``α`` has ``|N(α)| = 2d - b(α)`` where ``b(α)`` is this
        count (each boundary axis removes exactly one neighbor, and with
        ``side == 1`` an axis contributes no neighbors at all — that case
        is handled by :func:`repro.grid.neighbors.neighbor_count_grid`).
        """
        out = np.zeros(self.shape, dtype=np.int64)
        for grid in self.coordinate_grids():
            on_boundary = (grid == 0) | (grid == self.side - 1)
            out += on_boundary.astype(np.int64)
        return out

    def interior_mask(self) -> np.ndarray:
        """Mask of cells with the full ``2d`` neighbors (paper's ``U_1``)."""
        return self.boundary_axis_count() == 0

    def boundary_mask(self) -> np.ndarray:
        """Mask of cells on at least one (d-1)-face (paper's ``U_2``)."""
        return self.boundary_axis_count() > 0

    def interior_cell_count(self) -> int:
        """``(side - 2)^d`` for side >= 2 (0 when side < 3)."""
        return max(self.side - 2, 0) ** self.d
