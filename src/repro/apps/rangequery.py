"""Secondary-memory range-query substrate (Faloutsos motivation).

Multi-dimensional records laid out on disk in SFC order; a rectangular
query reads the curve-index runs covering the box.  The I/O cost model is
the standard one for sequential devices:

    ``cost = seek_cost · (#runs) + scan_cost · (cells read)``

The number of runs is exactly the Moon et al. clustering number; the
scan volume is the box volume (runs are exact covers, no over-read).
Bench A5 compares curves under this model.

The index is backed by a :class:`repro.engine.MetricContext` (a bare
curve is coerced): box keys come from the cached key grid and run
contents from the cached inverse permutation, so repeated queries do no
curve evaluation at all.  ``"rangequery:box=4"`` is also a registered
sweep metric (:data:`repro.engine.METRICS`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.analysis.clustering import box_keys
from repro.engine.context import get_context
from repro.engine.threads import prepare_key_reads
from repro.grid.coords import rank_to_coords

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
        tests."""
        runs = self.query_runs(lo, hi)
        keys = np.concatenate(
            [np.arange(a, b + 1, dtype=np.int64) for a, b in runs]
        )
        if self._ctx.chunked:
            # No dense inverse in chunked mode; invert the run's keys
            # directly (O(cells read) for analytically invertible curves).
            return self._ctx.curve.coords_of(keys, backend=self._ctx.backend)
        ranks = self._ctx.inverse_permutation()[keys]
        return rank_to_coords(ranks, self._ctx.universe)

    def query_cost(
        self, lo: Sequence[int], hi: Sequence[int]
    ) -> QueryCost:
        """I/O cost of the box query under the seek+scan model."""
        runs = self.query_runs(lo, hi)
        cells = sum(b - a + 1 for a, b in runs)
        return QueryCost(
            runs=len(runs),
            cells_read=cells,
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

        The per-box costs are evaluated on the context's scheduler
        (inline when the context is serial) and merged in submission
        order, so the float accumulation performs the identical
        addition sequence and the average is bit-for-bit the same at
        any thread count.
        """
        from repro.analysis.sampling import sample_rectangles

        universe = self._ctx.universe
        boxes = sample_rectangles(
            universe.side, universe.d, box_shape, n_samples, seed
        )
        tasks = [
            (lambda lo=lo, hi=hi: self.query_cost(lo, hi).total)
            for lo, hi in boxes
        ]
        prepare_key_reads(self._ctx)
        total = 0.0
        for value in self._ctx.scheduler.imap(tasks):
            total += value
        return total / n_samples
