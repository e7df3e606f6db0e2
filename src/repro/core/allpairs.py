"""All-pairs stretch (Section V-B) and the Lemma 2 sum identity.

The average all-pairs stretch under grid metric ``m`` is

    ``str_{avg,m}(π) = (2 / n(n−1)) · Σ_{unordered pairs} ∆π(α,β)/m(α,β)``

Computed two ways:

* **exactly**, by chunked ``O(n²)`` evaluation (feasible to n ≈ 10⁴ cells
  comfortably), and
* **estimated**, by uniform sampling of ordered pairs with a CLT-based
  confidence interval, for large universes.

Lemma 2 — ``Σ_{ordered pairs} ∆π(α,β) = (n−1)n(n+1)/3`` for **every**
bijection π — is provided both as a closed form and as an ``O(n log n)``
measurement from the actual keys, so the identity can be checked per
curve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.curves.base import SpaceFillingCurve
from repro.grid.metrics import pairwise_euclidean, pairwise_manhattan

__all__ = [
    "lemma2_sum_exact",
    "lemma2_sum_measured",
    "average_allpairs_stretch_exact",
    "average_allpairs_stretch_sampled",
    "AllPairsEstimate",
]

_METRICS = {"manhattan": pairwise_manhattan, "euclidean": pairwise_euclidean}


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


def _ratio_chunk_sum(
    pairwise, cells: np.ndarray, keys: np.ndarray, start: int, stop: int
) -> float:
    """``Σ ∆π/m`` over the ordered pairs with first index in [start, stop).

    The shared per-chunk core of the serial and threaded exact paths;
    keeping it single-sourced is what makes their results bit-for-bit
    identical (the merge order is the only other degree of freedom, and
    both merge in chunk order).
    """
    grid_dist = pairwise(cells[start:stop], cells).astype(np.float64)
    key_dist = np.abs(keys[start:stop, None] - keys[None, :])
    ratio = np.divide(
        key_dist,
        grid_dist,
        out=np.zeros_like(key_dist),
        where=grid_dist > 0,
    )
    return float(ratio.sum())


def average_allpairs_stretch_exact(
    curve: SpaceFillingCurve,
    metric: str = "manhattan",
    chunk: int = 1024,
    scheduler=None,
) -> float:
    """Exact ``str_{avg,m}(π)`` by chunked pairwise evaluation.

    Parameters
    ----------
    curve:
        Any SFC.
    metric:
        ``"manhattan"`` (the paper's ``∆``) or ``"euclidean"`` (``∆_E``).
    chunk:
        Row-chunk size bounding transient memory at ``O(chunk · n · d)``.
    scheduler:
        Optional :class:`repro.engine.threads.BlockScheduler`; when
        given, row chunks are evaluated on its worker threads.  Partial
        sums are merged in submission order — the serial loop's order —
        so the result is bit-for-bit the serial one.
    """
    if metric not in _METRICS:
        raise ValueError(f"metric must be one of {sorted(_METRICS)}")
    pairwise = _METRICS[metric]
    universe = curve.universe
    n = universe.n
    if n < 2:
        raise ValueError("all-pairs stretch needs n >= 2")
    cells = universe.all_coords()
    keys = curve.index(cells).astype(np.float64)
    spans = [
        (start, min(start + chunk, n)) for start in range(0, n, chunk)
    ]
    total = 0.0
    if scheduler is not None:
        tasks = [
            (lambda lo=lo, hi=hi: _ratio_chunk_sum(pairwise, cells, keys, lo, hi))
            for lo, hi in spans
        ]
        for part in scheduler.imap(tasks):
            total += part
    else:
        for lo, hi in spans:
            total += _ratio_chunk_sum(pairwise, cells, keys, lo, hi)
    # `total` sums over ordered pairs (diagonal contributes 0); the
    # unordered-average definition equals total / (n(n-1)).
    return total / (n * (n - 1))


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
    if metric not in _METRICS:
        raise ValueError(f"metric must be one of {sorted(_METRICS)}")
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
