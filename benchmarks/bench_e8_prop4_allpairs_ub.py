"""E8 — Proposition 4: all-pairs upper bounds for the simple curve.

str_{avg,M}(S) ≤ n^{1-1/d} and str_{avg,E}(S) ≤ √2·n^{1-1/d}; Lemma 7
guarantees the bound per pair, so we also verify the per-pair maxima.
"""

import numpy as np

from repro import Universe
from repro.core.allpairs import average_allpairs_stretch_exact
from repro.core.asymptotics import (
    allpairs_simple_euclidean_ub,
    allpairs_simple_manhattan_ub,
)
from repro.curves.simple import SimpleCurve
from repro.viz.tables import format_table

from _bench_utils import run_once

UNIVERSES = [
    Universe.power_of_two(d=2, k=2),
    Universe.power_of_two(d=2, k=3),
    Universe.power_of_two(d=2, k=4),
    Universe.power_of_two(d=3, k=2),
]


def _per_pair_max_ratios(curve):
    """Worst ∆_S/∆ and ∆_S/∆_E over all pairs (Lemma 7 check)."""
    universe = curve.universe
    cells = universe.all_coords()
    keys = curve.index(cells).astype(np.float64)
    key_dist = np.abs(keys[:, None] - keys[None, :])
    delta = cells[:, None, :] - cells[None, :, :]
    m = np.abs(delta).sum(axis=-1).astype(np.float64)
    e = np.sqrt((delta * delta).sum(axis=-1).astype(np.float64))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio_m = np.where(m > 0, key_dist / m, 0.0)
        ratio_e = np.where(e > 0, key_dist / e, 0.0)
    return float(ratio_m.max()), float(ratio_e.max())


def prop4_experiment():
    rows = []
    for universe in UNIVERSES:
        s = SimpleCurve(universe)
        worst_m, worst_e = _per_pair_max_ratios(s)
        rows.append(
            {
                "d": universe.d,
                "side": universe.side,
                "str_M(S)": average_allpairs_stretch_exact(s, "manhattan"),
                "UB_M": allpairs_simple_manhattan_ub(universe.n, universe.d),
                "str_E(S)": average_allpairs_stretch_exact(s, "euclidean"),
                "UB_E": allpairs_simple_euclidean_ub(universe.n, universe.d),
                "worst pair M": worst_m,
                "worst pair E": worst_e,
            }
        )
    return rows


def test_e8_prop4_simple_upper_bounds(benchmark, results_writer):
    rows = run_once(benchmark, prop4_experiment)
    table = format_table(rows)
    results_writer(
        "e8_prop4",
        "E8 / Prop 4 — simple-curve all-pairs upper bounds "
        "(averages AND per-pair Lemma 7)\n\n" + table,
    )
    print("\n" + table)

    for row in rows:
        assert row["str_M(S)"] <= row["UB_M"] + 1e-9, row
        assert row["str_E(S)"] <= row["UB_E"] + 1e-9, row
        # Lemma 7 is per-pair: even the WORST pair obeys the bound.
        assert row["worst pair M"] <= row["UB_M"] + 1e-9, row
        assert row["worst pair E"] <= row["UB_E"] + 1e-9, row
