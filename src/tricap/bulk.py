"""Vectorized plane arithmetic on arrays of packed F_3^n vectors.

Internal module. A bulk vector is a pair of int64 arrays (lo, hi) holding
the same bit-plane encoding as TritVector, so the branch-free mod-3
formula ``gf3core.plane_add`` applies to them unchanged. Conversions
between plane pairs and canonical base-3 indices go through small per-n
lookup tables.

Every pairwise a + b or a - b count in the package (difference
multiplicities, sumsets, reach counts, doubling, line solutions) walks
``pair_sums``. It yields the canonical index of a[i] + b[j] in row
blocks sized so a block holds about ``_PAIR_CELLS`` pairs, 1 MB per int64
temporary whatever the set sizes. Selftest's recount of E4 is the one
exception: it stays independent of the code it checks. Swapping the two
planes of a vector negates it, so a caller asks for a - b by passing b
as (hi, lo), and for -(a + b) by swapping both operands.

Magnitude note: indices and plane masks stay below 2^40 for n <= 20, so
int64 is exact everywhere here.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from .gf3core import TritVector, plane_add

__all__ = [
    "dot_histogram",
    "dot_labels",
    "dots_with",
    "exact_sum",
    "indices_to_planes",
    "INT64_SAFE",
    "pair_sums",
    "peak",
    "planes_to_indices",
]

_PAIR_CELLS = 1 << 17  # pairs per block: 1 MB per int64 temporary
INT64_SAFE = 1 << 62  # every int64 fast path keeps its partial sums below this


_WEIGHT_TABLES: dict[int, np.ndarray] = {}


def _weights(n: int) -> np.ndarray:
    """weights[mask] = sum of 3^(n-1-i) over set bits i of mask.

    Built by doubling: the masks with top bit i are those below 2^i plus
    bit i, so no temporary is larger than the table itself.
    """
    tab = _WEIGHT_TABLES.get(n)
    if tab is None:
        tab = np.zeros(1 << n, dtype=np.int64)
        for i in range(n):
            np.add(tab[: 1 << i], 3 ** (n - 1 - i), out=tab[1 << i : 2 << i])
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


def peak(*arrays: np.ndarray) -> int:
    """Largest absolute value over the given arrays, as a Python int."""
    return max(
        (max(int(a.max(initial=0)), -int(a.min(initial=0))) for a in arrays),
        default=0,
    )


def exact_sum(values: np.ndarray, bound: int | None = None) -> int:
    """Exact sum of an int64 or object array with entries within bound.

    An int64 array is summed in int64 chunks of at most (2^62 - 1) / bound
    entries, so every chunk sum stays below INT64_SAFE; object arrays add
    as Python ints. Without a bound the array's own peak is used.
    """
    if values.dtype == object:
        return sum(values.tolist(), 0)
    if bound is None:
        bound = peak(values)
    step = max(1, (INT64_SAFE - 1) // max(bound, 1))
    if values.size <= step:
        return int(values.sum())
    starts = np.arange(0, values.size, step)
    return sum(np.add.reduceat(values, starts).tolist(), 0)


_DIGIT_TABLES: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _digit_planes(m: int) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi) planes of every index of F_3^m, indexed by the index itself."""
    tab = _DIGIT_TABLES.get(m)
    if tab is None:
        lo = np.zeros(3**m, dtype=np.int64)
        hi = np.zeros(3**m, dtype=np.int64)
        rest = np.arange(3**m, dtype=np.int64)
        for i in range(m - 1, -1, -1):
            rest, t = np.divmod(rest, 3)
            lo |= (t == 1).astype(np.int64) << i
            hi |= (t == 2).astype(np.int64) << i
        tab = _DIGIT_TABLES[m] = (lo, hi)
    return tab


def indices_to_planes(n: int, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Planes of canonical indices, from two half-width digit tables.

    The leading n - k digits (coordinates 0..n-k-1) and the trailing k
    digits, shifted up to coordinates n-k..n-1, are each one gather, so
    no table is larger than 3^ceil(n/2) entries.
    """
    k = n // 2
    head, tail = np.divmod(np.asarray(idx, dtype=np.int64), 3**k)
    hlo, hhi = _digit_planes(n - k)
    tlo, thi = _digit_planes(k)
    return hlo[head] | (tlo[tail] << (n - k)), hhi[head] | (thi[tail] << (n - k))


def dots_with(lo: np.ndarray, hi: np.ndarray, v: TritVector) -> np.ndarray:
    """Dot product of each packed row with a single vector, values in 0..2."""
    plo = (lo & v.lo) | (hi & v.hi)
    phi = (lo & v.hi) | (hi & v.lo)
    d = np.bitwise_count(plo).astype(np.int64) - np.bitwise_count(phi).astype(
        np.int64
    )
    return d % 3


def dot_labels(lo: np.ndarray, hi: np.ndarray, basis: Sequence[TritVector]) -> np.ndarray:
    """Dot products of each packed row with the basis, read as a base-3 numeral.

    The first basis vector supplies the leading digit, so a row's label is
    the canonical index of its dot profile in F_3^len(basis): the order in
    which Subspace.enumerate_indices lists the points of the span.
    """
    label = np.zeros(lo.shape, dtype=np.int64)
    for b in basis:
        label = 3 * label + dots_with(lo, hi, b)
    return label


def dot_histogram(lo: np.ndarray, hi: np.ndarray, basis: Sequence[TritVector]) -> np.ndarray:
    """How many packed rows have each dot profile: 3^len(basis) bins by label.

    Bin t counts the rows whose dot_labels label is t, so for the basis of
    a subspace W it holds the sizes of the cosets of W's annihilator.
    """
    return np.bincount(dot_labels(lo, hi, basis), minlength=3 ** len(basis))
