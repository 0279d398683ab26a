"""Vectorized plane arithmetic on arrays of packed F_3^n vectors.

Internal module. A bulk vector is a pair of int64 arrays (lo, hi) holding
the same bit-plane encoding as TritVector, so the branch-free mod-3
formula ``gf3core.plane_add`` applies to them unchanged. Conversions
between plane pairs and canonical base-3 indices go through small per-n
lookup tables.

Every pairwise a + b or a - b count in the package (difference
multiplicities, sumsets, reach counts, doubling, line solutions) walks
``pair_sums``. It yields the canonical index of a[i] + b[j] in row
blocks sized so a block holds about ``_PAIR_CELLS`` pairs, 8 MB per int64
temporary whatever the set sizes. Selftest's recount of E4 is the one
exception: it stays independent of the code it checks. Swapping the two
planes of a vector negates it, so a caller asks for a - b by passing b
as (hi, lo), and for -(a + b) by swapping both operands.

Magnitude note: indices and plane masks stay below 2^40 for n <= 20, so
int64 is exact everywhere here.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .gf3core import TritVector, plane_add

__all__ = [
    "dots_with",
    "indices_to_planes",
    "pair_sums",
    "planes_to_indices",
]

_PAIR_CELLS = 1 << 20  # pairs per block: 8 MB per int64 temporary


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


def pair_sums(
    n: int,
    a: tuple[np.ndarray, np.ndarray],
    b: tuple[np.ndarray, np.ndarray],
    upper: bool = False,
) -> Iterator[tuple[int, int, np.ndarray]]:
    """Row blocks (start, stop, idx) of the sums a[i] + b[j].

    idx[i - start, j] is the canonical index of a[i] + b[j] for the rows
    start <= i < stop and every column j. With upper=True the columns
    begin at start instead, idx[i - start, j - start]. For a == b the
    first stop - start columns then form the diagonal block, which holds
    both orders of its pairs, and the rest lie strictly above it, so every
    other unordered pair is visited once.
    """
    alo, ahi = a
    blo, bhi = b
    start = 0
    while start < alo.size:
        first = start if upper else 0
        stop = min(alo.size, start + max(1, _PAIR_CELLS // max(1, blo.size - first)))
        slo, shi = plane_add(
            alo[start:stop, None], ahi[start:stop, None], blo[None, first:], bhi[None, first:]
        )
        yield start, stop, planes_to_indices(n, slo, shi)
        start = stop


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
