"""Random selection experiments: nullity histograms and tuple counts.

The selection model picks d distinct points uniformly from a source set
and asks for the nullity (d minus rank) of the selection. Exact
combinatorics live alongside: g(k, d) is the chance that a bin receives
exactly k of d balls thrown uniformly into d bins, which controls the
collision bookkeeping, and h(m, k) bounds the ways a 2m-tuple can
degenerate on a k-cell split.

Reproducibility is the point here. Every trial draws from its own
counter-derived stream, so trial t of a run is the same no matter how
many trials run or in what order, and the JSON report of an experiment
is byte-identical across processes. Draws are canonical indices, never
TritVectors: a block of trials is stacked into one (trials, d) array and
ranked by a single stacked ``rank`` call, so the cost per trial is the
stream set-up and the draw itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import bulk
from .capset import PointSet
from .linalg import rank
from .rng import make_rng

__all__ = [
    "NullityExperiment",
    "g_exact",
    "h_exact",
    "nullity_distribution",
    "sample_without_replacement",
    "simulate_g_frequencies",
]


def g_exact(k: int, d: int) -> Fraction:
    """P(a fixed bin gets exactly k of d uniform balls), exact.

    C(d, k) (d-1)^(d-k) / d^d. Sums to 1 over k, and halves at every
    step past k = 2: g(k+1) < g(k) / 2 whenever 2 < k < d.
    """
    if d < 1:
        raise ValueError("d must be positive")
    if not 0 <= k <= d:
        raise ValueError("k must lie in 0..d")
    return Fraction(math.comb(d, k) * (d - 1) ** (d - k), d**d)


def h_exact(m: int, k: int) -> int:
    """2^m (2m)! C(2mk, 2m); the m = 2, k = 1 case is 96 * C(4, 4) = 96."""
    if m < 1 or k < 0:
        raise ValueError("need m >= 1 and k >= 0")
    return 2**m * math.factorial(2 * m) * math.comb(2 * m * k, 2 * m)


def sample_without_replacement(
    ps: PointSet, d: int, seed: int, *stream: int
) -> np.ndarray:
    """Indices of d distinct members, int64 in draw order, from a counter-derived stream."""
    if not 0 <= d <= ps.size:
        raise ValueError(f"cannot draw {d} from {ps.size} points")
    rng = make_rng(seed, *stream)
    return rng.choice(ps.indices, size=d, replace=False)


@dataclass(frozen=True)
class NullityExperiment:
    """Histogram of selection nullities over independent trials."""

    n: int
    source_size: int
    d: int
    trials: int
    seed: int
    histogram: dict[int, int]

    def tail(self, k: int) -> Fraction:
        """Empirical P(nullity >= k)."""
        hits = sum(v for key, v in self.histogram.items() if key >= k)
        return Fraction(hits, self.trials)

    def tail_rows(self) -> list[tuple[int, Fraction, float]]:
        """(k, empirical tail, 2^-k overlay) for every observed k."""
        ks = range(0, max(self.histogram) + 1) if self.histogram else range(0)
        return [(k, self.tail(k), 2.0**-k) for k in ks]


def nullity_distribution(
    ps: PointSet, d: int, trials: int, seed: int
) -> NullityExperiment:
    """Run the selection experiment; trial t uses substream (seed, t).

    Trials go in blocks of at most ``bulk._PAIR_CELLS`` picks, each block
    one stacked rank call, so memory stays bounded for any trial count.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    hist = np.zeros(d + 1, dtype=np.int64)
    block = max(1, bulk._PAIR_CELLS // max(d, 1))
    for start in range(0, trials, block):
        stop = min(trials, start + block)
        picks = np.empty((stop - start, d), dtype=np.int64)
        for t in range(start, stop):
            picks[t - start] = sample_without_replacement(ps, d, seed, t)
        hist += np.bincount(d - rank(picks, ps.n), minlength=d + 1)
    return NullityExperiment(
        n=ps.n,
        source_size=ps.size,
        d=d,
        trials=trials,
        seed=seed,
        histogram={k: v for k, v in enumerate(hist.tolist()) if v},
    )


def simulate_g_frequencies(d: int, trials: int, seed: int) -> dict[int, int]:
    """Monte Carlo occupancy counts for the g(k, d) bin model.

    Each trial throws d balls into d bins and records how many land in
    bin 0; the histogram over trials estimates g(-, d).
    """
    if d < 1:
        raise ValueError("d must be positive")
    if trials < 1:
        raise ValueError("need at least one trial")
    rng = make_rng(seed, 8, d)
    counts = (rng.integers(0, d, size=(trials, d)) == 0).sum(axis=1)
    hist = np.bincount(counts, minlength=d + 1)
    return {int(k): int(v) for k, v in enumerate(hist) if v}
