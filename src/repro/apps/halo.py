"""Halo (ghost-cell) exchange on SFC partitions.

The communication phase of a stencil code: every worker owns a curve
segment of cells and each step must fetch the grid neighbors it does
not own ("ghost cells") from their owners.  The exchange cost has two
parts the curve quality controls:

* **volume** — total ghost cells transferred (= directed cut pairs,
  deduplicated per (owner, requester, cell));
* **messages** — number of (sender, receiver) pairs with any traffic:
  compact parts talk to few neighbors, fragmented parts to many.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.apps.partition import partition_by_curve
from repro.engine.context import get_context
from repro.grid.neighbors import axis_pair_index_arrays

__all__ = ["HaloExchange", "halo_exchange"]


@dataclass(frozen=True)
class HaloExchange:
    """Cost summary of one halo exchange round."""

    curve_name: str
    n_parts: int
    ghost_cells: int
    messages: int
    max_partners: int

    @property
    def mean_partners(self) -> float:
        """Average communication partners per worker."""
        return self.messages / self.n_parts


def halo_exchange(
    curve,
    n_parts: int,
    weights: np.ndarray | None = None,
) -> HaloExchange:
    """Partition by ``curve`` and tally the halo-exchange cost.

    ``curve`` may be a curve or a :class:`repro.engine.MetricContext`;
    the key grid comes from the context's cache.

    A ghost transfer is a (sender, receiver, cell) triple: receiver
    owns a cell whose neighbor `cell` is owned by sender.  A cell sent
    to the same receiver for several of its neighbors counts once.
    """
    ctx = get_context(curve)
    universe = ctx.universe
    labels = partition_by_curve(ctx, n_parts, weights)
    keys = ctx.key_grid()

    # Collect directed (sender_part, receiver_part, sender_cell_key)
    # triples for every cut NN pair, in both directions.
    senders = []
    receivers = []
    cells = []
    for axis in range(universe.d):
        lo, hi = axis_pair_index_arrays(universe, axis)
        a_lab = labels[lo].reshape(-1)
        b_lab = labels[hi].reshape(-1)
        a_key = keys[lo].reshape(-1)
        b_key = keys[hi].reshape(-1)
        cut = a_lab != b_lab
        # a's cell is ghost for b's owner, and vice versa.
        senders.append(a_lab[cut])
        receivers.append(b_lab[cut])
        cells.append(a_key[cut])
        senders.append(b_lab[cut])
        receivers.append(a_lab[cut])
        cells.append(b_key[cut])
    if senders:
        sender = np.concatenate(senders)
        receiver = np.concatenate(receivers)
        cell = np.concatenate(cells)
    else:  # pragma: no cover - d >= 1 always has pairs for side >= 2
        sender = receiver = cell = np.empty(0, dtype=np.int64)

    # Deduplicate (sender, receiver, cell) triples.
    triples = (sender.astype(np.int64) * n_parts + receiver) * np.int64(
        universe.n
    ) + cell
    unique_triples = np.unique(triples)
    ghost_cells = int(unique_triples.size)

    # Message matrix: unique (sender, receiver) pairs.
    pair_ids = np.unique(sender * np.int64(n_parts) + receiver)
    messages = int(pair_ids.size)
    partner_counts = np.bincount(
        (pair_ids // n_parts).astype(np.int64), minlength=n_parts
    )
    return HaloExchange(
        curve_name=ctx.curve.name,
        n_parts=n_parts,
        ghost_cells=ghost_cells,
        messages=messages,
        max_partners=int(partner_counts.max()) if messages else 0,
    )
