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
is byte-identical across processes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .capset import PointSet
from .gf3core import TritVector
from .linalg import nullity
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
) -> list[TritVector]:
    """d distinct points of the set, from a counter-derived stream."""
    if not 0 <= d <= ps.size:
        raise ValueError(f"cannot draw {d} from {ps.size} points")
    rng = make_rng(seed, *stream)
    picks = rng.choice(ps.indices, size=d, replace=False)
    return [TritVector.from_index(ps.n, int(i)) for i in picks]


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
    """Run the selection experiment; trial t uses substream (seed, t)."""
    if trials < 1:
        raise ValueError("need at least one trial")
    hist: dict[int, int] = {}
    for t in range(trials):
        sel = sample_without_replacement(ps, d, seed, t)
        nl = nullity(sel, d)
        hist[nl] = hist.get(nl, 0) + 1
    return NullityExperiment(
        n=ps.n,
        source_size=ps.size,
        d=d,
        trials=trials,
        seed=seed,
        histogram=dict(sorted(hist.items())),
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
