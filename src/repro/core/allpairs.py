"""All-pairs stretch (Section V-B) and the Lemma 2 sum identity.

The average all-pairs stretch under grid metric ``m`` is

    ``str_{avg,m}(π) = (2 / n(n−1)) · Σ_{unordered pairs} ∆π(α,β)/m(α,β)``

Computed two ways:

* **exactly**, from the integer totals of ``∆π`` per grid distance
  (:func:`pair_totals`, an ``O(n²)`` fold for up to some ``10⁴``
  cells), each metric rounded once (:meth:`PairTotals.stretch`); and
* **estimated**, by uniform sampling of ordered pairs with a CLT-based
  confidence interval, for large universes.

Lemma 2 — ``Σ_{ordered pairs} ∆π(α,β) = (n−1)n(n+1)/3`` for **every**
bijection π — is provided both as a closed form and as an ``O(n log n)``
measurement from the actual keys, so the identity can be checked per
curve.  It also checks the fold: ``2·Σ_m T_m`` is that sum.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np

from repro.curves.base import SpaceFillingCurve

__all__ = [
    "lemma2_sum_exact",
    "lemma2_sum_measured",
    "PairTotals",
    "pair_totals",
    "average_allpairs_stretch_exact",
    "average_allpairs_stretch_sampled",
    "AllPairsEstimate",
]

_METRICS = ("manhattan", "euclidean")

#: Most cells of the block :func:`pair_totals` pairs all against all.
_BLOCK_CELLS = 64
#: Most int64 values one broadcast of :func:`pair_totals` holds.
_BROADCAST_VALUES = 2**18


def _check_metric(metric: str) -> None:
    if metric not in _METRICS:
        raise ValueError(f"metric must be one of {sorted(_METRICS)}")


def lemma2_sum_exact(n: int) -> int:
    """Lemma 2 closed form: ``S_{A'}(π) = (n−1)n(n+1)/3`` (any bijection)."""
    if n < 1:
        raise ValueError("need n >= 1")
    return (n - 1) * n * (n + 1) // 3


def lemma2_sum_measured(curve: SpaceFillingCurve) -> int:
    """Measure ``Σ_{ordered pairs} |π(α) − π(β)|`` from the actual keys.

    For sorted values ``v_0 ≤ … ≤ v_{n−1}``,
    ``Σ_{i<j} (v_j − v_i) = Σ_j (2j − n + 1)·v_j``; ordered pairs double
    it.  ``O(n log n)`` and independent of any permutation structure, so
    it genuinely *measures* the identity rather than assuming keys are
    ``0..n−1``.
    """
    keys = np.sort(curve.key_grid().reshape(-1)).astype(object)
    n = keys.size
    coeff = 2 * np.arange(n, dtype=object) - (n - 1)
    return int(2 * (coeff * keys).sum())


@dataclass(frozen=True)
class PairTotals:
    """Totals of ``∆π`` over the unordered pairs of cells, by distance.

    ``manhattan[m]`` totals the pairs at Manhattan distance ``m``, and
    ``counts[m]`` counts them; ``euclidean[s]`` totals the pairs at
    squared Euclidean distance ``s``.  Only non-empty classes appear,
    in ascending order.
    """

    n: int
    manhattan: dict
    counts: dict
    euclidean: dict

    def stretch(self, metric: str = "manhattan") -> float:
        """``str_{avg,metric}``, rounded once: Manhattan is the rational
        ``2·Σ_m T_m/m / (n(n−1))``; the irrational Euclidean sum
        ``Σ_s T_s/√s`` is taken in 40-digit decimal (a float sum of
        float quotients lands more than 1 ulp off)."""
        _check_metric(metric)
        pairs = self.n * (self.n - 1)
        if metric == "manhattan":
            total = sum(Fraction(t, m) for m, t in self.manhattan.items())
            return float(2 * total / pairs)
        with localcontext(prec=40):
            total = sum(
                Decimal(t) / Decimal(s).sqrt()
                for s, t in self.euclidean.items()
            )
            return float(2 * total / pairs)

    def profile(self) -> dict[int, float]:
        """``E[∆π/∆ | ∆ = m] = T_m / (m·count_m)`` per non-empty ``m``."""
        return {
            m: t / (m * self.counts[m]) for m, t in self.manhattan.items()
        }


def _class_sums(keys: np.ndarray, values: np.ndarray) -> dict:
    """``{key: Σ values}`` in int64 over the distinct non-zero keys."""
    distinct, where = np.unique(keys, return_inverse=True)
    sums = np.zeros(distinct.size, dtype=np.int64)
    np.add.at(sums, where.reshape(-1), values.reshape(-1))
    return {int(k): int(v) for k, v in zip(distinct, sums) if k}


def pair_totals(keys: np.ndarray) -> PairTotals:
    """Fold a key grid ``(side,)*d`` into its :class:`PairTotals`.

    The trailing axes, the most that hold at most 64 cells, form a
    block.  Every offset ``δ`` of the leading axes whose first non-zero
    entry is positive, and ``δ = 0``, pairs two slices of the grid; the
    broadcast ``|π(a) − π(b)|`` over every cell pair ``(i, k)`` of two
    facing blocks is summed per class ``(|·|₁, |·|²)`` of the inner
    offset, to which ``δ`` adds its own.  ``δ = 0`` meets each pair as
    ``(i, k)`` and ``(k, i)`` and is halved.  ``O(n²)`` integer work:
    the block keeps the offsets few in high dimension.  A class total
    is at most ``n³/6``, inside int64 for ``n < 2·10⁶``.
    """
    keys = np.asarray(keys, dtype=np.int64)
    d, side = keys.ndim, keys.shape[0]
    inner = 0
    while inner < d and side ** (inner + 1) <= _BLOCK_CELLS:
        inner += 1
    block = side**inner
    cells = np.indices((side,) * inner).reshape(inner, block).T
    step = (cells[None] - cells[:, None]).reshape(block * block, inner)
    classes, which = np.unique(
        [np.abs(step).sum(1), (step * step).sum(1)],
        axis=1,
        return_inverse=True,
    )
    which = which.reshape(-1)
    order = np.argsort(which, kind="stable")
    sizes = np.bincount(which)
    starts = np.cumsum(sizes) - sizes

    offsets = [
        delta
        for delta in itertools.product(range(1 - side, side), repeat=d - inner)
        if next((t for t in delta if t), 1) > 0
    ]
    rows = max(1, _BROADCAST_VALUES // block**2)
    totals = np.empty((len(offsets), len(sizes)), dtype=np.int64)
    for o, delta in enumerate(offsets):
        x = keys[tuple(slice(max(0, -t), side - max(0, t)) for t in delta)]
        y = keys[tuple(slice(max(0, t), side - max(0, -t)) for t in delta)]
        x, y = x.reshape(-1, block), y.reshape(-1, block)
        sums = np.zeros((block, block), dtype=np.int64)
        for r in range(0, len(x), rows):
            diff = x[r : r + rows, :, None] - y[r : r + rows, None]
            sums += np.abs(diff).sum(axis=0)
        totals[o] = np.add.reduceat(sums.reshape(-1)[order], starts)
    lead = np.array(offsets, dtype=np.int64).reshape(len(offsets), -1)
    counts = np.prod(side - np.abs(lead), axis=1)[:, None] * sizes
    zero = offsets.index((0,) * (d - inner))
    totals[zero] //= 2
    counts[zero] //= 2
    m = np.abs(lead).sum(1)[:, None] + classes[0]
    s = (lead * lead).sum(1)[:, None] + classes[1]
    return PairTotals(
        n=keys.size,
        manhattan=_class_sums(m, totals),
        counts=_class_sums(m, counts),
        euclidean=_class_sums(s, totals),
    )


def average_allpairs_stretch_exact(
    curve: SpaceFillingCurve, metric: str = "manhattan"
) -> float:
    """Exact ``str_{avg,m}(π)`` of the curve's context
    (:meth:`repro.engine.MetricContext.allpairs_exact`); ``metric`` is
    ``"manhattan"`` (the paper's ``∆``) or ``"euclidean"`` (``∆_E``)."""
    from repro.engine.context import get_context

    _check_metric(metric)
    if curve.universe.n < 2:
        raise ValueError("all-pairs stretch needs n >= 2")
    return get_context(curve).allpairs_exact(metric)


@dataclass(frozen=True)
class AllPairsEstimate:
    """Sampled all-pairs stretch with a CLT confidence interval."""

    mean: float
    stderr: float
    n_pairs: int
    metric: str

    @property
    def ci95(self) -> tuple[float, float]:
        """Approximate 95% confidence interval for the true average."""
        half = 1.96 * self.stderr
        return (self.mean - half, self.mean + half)

    def compatible_with(self, value: float, z: float = 4.0) -> bool:
        """True if ``value`` lies within ``z`` standard errors of the mean."""
        if self.stderr == 0.0:
            return abs(value - self.mean) < 1e-12
        return abs(value - self.mean) <= z * self.stderr


def _sampled_ratios(
    curve: SpaceFillingCurve,
    first: np.ndarray,
    second: np.ndarray,
    metric: str,
) -> np.ndarray:
    """Stretch ratios of the ordered pairs ``(first[i], second[i])``.

    Every operation is elementwise per pair, so evaluating a split of
    the index arrays block by block and concatenating yields exactly
    the full-array result — the property the threaded sampled path
    relies on.
    """
    from repro.grid.coords import rank_to_coords

    universe = curve.universe
    a = rank_to_coords(first, universe)
    b = rank_to_coords(second, universe)
    if metric == "manhattan":
        grid_dist = np.abs(a - b).sum(axis=1).astype(np.float64)
    else:
        diff = (a - b).astype(np.float64)
        grid_dist = np.sqrt((diff * diff).sum(axis=1))
    key_dist = np.abs(curve.index(a) - curve.index(b)).astype(np.float64)
    return key_dist / grid_dist


def average_allpairs_stretch_sampled(
    curve: SpaceFillingCurve,
    n_pairs: int = 100_000,
    metric: str = "manhattan",
    seed: int = 0,
    scheduler=None,
) -> AllPairsEstimate:
    """Unbiased estimate of ``str_{avg,m}(π)`` from uniform random pairs.

    Pairs are drawn uniformly from ordered pairs with ``α ≠ β``; the
    ordered-pair average equals the unordered-pair average, so the
    estimator is unbiased for the paper's definition.

    With a ``scheduler`` the (already drawn) pair arrays are split into
    blocks evaluated on worker threads; the per-pair ratios are
    elementwise, so the reassembled array — and hence the mean and
    standard error — is bit-for-bit the serial result.
    """
    _check_metric(metric)
    if n_pairs < 2:
        raise ValueError("need n_pairs >= 2 for a standard error")
    universe = curve.universe
    n = universe.n
    if n < 2:
        raise ValueError("all-pairs stretch needs n >= 2")
    rng = np.random.default_rng(seed)
    first = rng.integers(0, n, size=n_pairs, dtype=np.int64)
    # Uniform over β ≠ α via a shifted draw modulo n.
    second = (first + rng.integers(1, n, size=n_pairs, dtype=np.int64)) % n
    if scheduler is not None and scheduler.threads > 1:
        # One single-element probe warms the curve's lazy evaluation
        # caches before the fan-out, so workers cannot race N builds.
        curve.index(np.zeros((1, universe.d), dtype=np.int64))
        step = -(-n_pairs // (scheduler.threads * 4))
        spans = [
            (lo, min(lo + step, n_pairs))
            for lo in range(0, n_pairs, step)
        ]
        blocks = scheduler.map(
            [
                (
                    lambda lo=lo, hi=hi: _sampled_ratios(
                        curve, first[lo:hi], second[lo:hi], metric
                    )
                )
                for lo, hi in spans
            ]
        )
        ratios = np.concatenate(blocks)
    else:
        ratios = _sampled_ratios(curve, first, second, metric)
    mean = float(ratios.mean())
    stderr = float(ratios.std(ddof=1) / np.sqrt(n_pairs))
    return AllPairsEstimate(
        mean=mean, stderr=stderr, n_pairs=n_pairs, metric=metric
    )
