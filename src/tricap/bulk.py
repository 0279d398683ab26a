"""Vectorized plane arithmetic on arrays of packed F_3^n vectors.

Internal module. A bulk vector is a pair of int64 arrays (lo, hi) holding
the same bit-plane encoding as TritVector, so the branch-free mod-3
formulas vectorize directly. Conversions between plane pairs and
canonical base-3 indices go through small per-n lookup tables.

Magnitude note: indices and plane masks stay below 2^40 for n <= 20, so
int64 is exact everywhere here.
"""

from __future__ import annotations

import numpy as np

from .gf3core import TritVector

__all__ = [
    "add",
    "dots_with",
    "indices_to_planes",
    "planes_to_indices",
]


def add(alo, ahi, blo, bhi):
    """Componentwise mod-3 sum; operands broadcast like numpy."""
    t = (alo | bhi) ^ (ahi | blo)
    return t ^ (ahi | bhi), t ^ (alo | blo)


_WEIGHT_TABLES: dict[int, np.ndarray] = {}


def _weights(n: int) -> np.ndarray:
    """weights[mask] = sum of 3^(n-1-i) over set bits i of mask."""
    tab = _WEIGHT_TABLES.get(n)
    if tab is None:
        pos = np.array([3 ** (n - 1 - i) for i in range(n)], dtype=np.int64)
        masks = np.arange(1 << n, dtype=np.int64)
        bits = (masks[:, None] >> np.arange(n)) & 1
        tab = (bits * pos).sum(axis=1).astype(np.int64)
        _WEIGHT_TABLES[n] = tab
    return tab


def planes_to_indices(n: int, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    w = _weights(n)
    return w[lo] + 2 * w[hi]


def indices_to_planes(n: int, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    idx = np.asarray(idx, dtype=np.int64)
    lo = np.zeros_like(idx)
    hi = np.zeros_like(idx)
    rest = idx.copy()
    for i in range(n - 1, -1, -1):
        rest, t = np.divmod(rest, 3)
        lo |= (t == 1).astype(np.int64) << i
        hi |= (t == 2).astype(np.int64) << i
    return lo, hi


def dots_with(lo: np.ndarray, hi: np.ndarray, v: TritVector) -> np.ndarray:
    """Dot product of each packed row with a single vector, values in 0..2."""
    plo = (lo & v.lo) | (hi & v.hi)
    phi = (lo & v.hi) | (hi & v.lo)
    d = np.bitwise_count(plo).astype(np.int64) - np.bitwise_count(phi).astype(
        np.int64
    )
    return d % 3
