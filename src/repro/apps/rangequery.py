"""Secondary-memory range-query substrate (Faloutsos motivation).

Multi-dimensional records laid out on disk in SFC order; a rectangular
query reads the curve-index runs covering the box.  The I/O cost model is
the standard one for sequential devices:

    ``cost = seek_cost · (#runs) + scan_cost · (cells read)``

The number of runs is exactly the Moon et al. clustering number; the
scan volume is the box volume (runs are exact covers, no over-read).
Bench A5 compares curves under this model.

The index is backed by a :class:`repro.engine.MetricContext` (a bare
curve is coerced): box keys come from the cached key slabs and run
contents from the cached order blocks, so repeated queries do no curve
evaluation at all.  ``"rangequery:box=4"`` is also a registered
sweep metric (:data:`repro.engine.METRICS`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.analysis.clustering import box_keys, key_runs, map_boxes
from repro.engine.context import get_context

__all__ = ["SFCIndex", "QueryCost"]


@dataclass(frozen=True)
class QueryCost:
    """I/O cost of one rectangular query."""

    runs: int
    cells_read: int
    seek_cost: float
    scan_cost: float

    @property
    def total(self) -> float:
        return self.seek_cost * self.runs + self.scan_cost * self.cells_read


class SFCIndex:
    """An SFC-ordered index over all grid cells.

    Records are identified with cells; the index answers rectangular
    queries with the exact list of curve-key runs covering the box.
    Accepts a curve or an existing :class:`repro.engine.MetricContext`.
    """

    def __init__(
        self,
        curve,
        seek_cost: float = 10.0,
        scan_cost: float = 1.0,
    ) -> None:
        if seek_cost < 0 or scan_cost < 0:
            raise ValueError("costs must be non-negative")
        self._ctx = get_context(curve)
        self.curve = self._ctx.curve
        self.seek_cost = seek_cost
        self.scan_cost = scan_cost

    def query_runs(
        self, lo: Sequence[int], hi: Sequence[int]
    ) -> list[tuple[int, int]]:
        """Inclusive key runs ``[(start, end), …]`` covering box ``[lo, hi)``."""
        keys = box_keys(self._ctx, lo, hi)
        # Vectorized run extraction: a run ends wherever the sorted key
        # stream jumps by more than one.
        breaks = np.flatnonzero(np.diff(keys) > 1)
        starts = keys[np.concatenate(([0], breaks + 1))]
        ends = keys[np.concatenate((breaks, [keys.size - 1]))]
        return [
            (int(a), int(b)) for a, b in zip(starts.tolist(), ends.tolist())
        ]

    def query_cells(
        self, lo: Sequence[int], hi: Sequence[int]
    ) -> np.ndarray:
        """Coordinates retrieved by the runs (sorted by key) — must equal
        the box contents; verified against the brute-force oracle in
        tests.  Read from the canonical order blocks holding the runs'
        keys: a dense context's one block is the cached order."""
        runs = self.query_runs(lo, hi)
        keys = np.concatenate(
            [np.arange(a, b + 1, dtype=np.int64) for a, b in runs]
        )
        parts, i = [], 0
        while i < keys.size:
            t0, t1 = self._ctx._order_span(int(keys[i]))
            j = int(np.searchsorted(keys, t1))
            parts.append(self._ctx._order_block(t0, t1)[keys[i:j] - t0])
            i = j
        return np.concatenate(parts)

    def query_cost(
        self, lo: Sequence[int], hi: Sequence[int]
    ) -> QueryCost:
        """I/O cost of the box query under the seek+scan model."""
        return self._cost(box_keys(self._ctx, lo, hi))

    def _cost(self, keys: np.ndarray) -> QueryCost:
        """The cost of reading the runs of the sorted box ``keys``."""
        return QueryCost(
            runs=key_runs(keys),
            cells_read=keys.size,
            seek_cost=self.seek_cost,
            scan_cost=self.scan_cost,
        )

    def average_query_cost(
        self,
        box_shape: Sequence[int],
        n_samples: int = 100,
        seed: int = 0,
    ) -> float:
        """Mean total cost over uniformly placed boxes of a fixed shape.

        The per-box costs (:func:`repro.analysis.clustering.map_boxes`)
        are merged in submission order, so the float accumulation
        performs the identical addition sequence and the average is
        bit-for-bit the same at any thread count.
        """
        total = 0.0
        for value in map_boxes(
            self._ctx,
            box_shape,
            n_samples,
            seed,
            lambda keys: self._cost(keys).total,
        ):
            total += value
        return total / n_samples
