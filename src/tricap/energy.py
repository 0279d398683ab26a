"""Additive energies, exactly.

Difference multiplicities m(x) = #{(a, b) : a - b = x} drive everything
here. diff_multiplicity returns them as they are: one int64 table of 3^n
cells, m(x) at the canonical index of x. The fourth energy is
sum m(x)^2; higher even energies E_2m come from the coefficient table
as sum |c(y)|^(2m) / 3^n, which is an exact integer because the
numerator is divisible by 3^n (that divisibility is asserted, not
assumed). For E4 past DENSE_MAX_N or of a sparse set, and for E_2m
past n = 14 (e2m says where the table still serves), a convolution
backend builds the m-fold sumset counts as sorted index and count
arrays. Those counts are at most |A|^(m-1), so they are int64 while |A|^(m-1) < 2^62, their squares
while |A|^(2m-2) < 2^62, and Python ints past either bound.

Memory: each path holds one dense table plus fixed, block-sized
scratch. Every transform-side energy, E4 included, counts the distinct
norms of one coefficient table a block at a time, and nothing inverts
it. Only diff_multiplicity, whose callers need the full map, inverts
the norm table: one int64 count table of 3^n cells, plus the imaginary
plane of the inverse while it runs.

All energies and inequality checks are computed in unbounded integers,
and nothing here computes a float: the smoothing exponent that
`energy smoothing` prints beside E8 is computed by its CLI handler.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import bulk, fourier
from .capset import PointSet
from .errors import IdentityViolationError, guard
from .fourier import TRANSFORM_HARD_MAX_N, SpectrumTable, inverse_table, transform_point_set
from .gf3core import DENSE_MAX_N

__all__ = [
    "CONVOLUTION_OP_GUARD",
    "E2M_MAX_M",
    "HolderReport",
    "cross_quadruples",
    "diff_multiplicity",
    "e2m",
    "e4",
    "holder_check",
]

CONVOLUTION_OP_GUARD = 50_000_000
# The last of a 2m-tuple is fixed by the other 2m - 1, so E_2m <= |A|^(2m-1).
# E_2 = |A|, and past m = 1 every set that reaches an energy has |A| <= 3^16:
# a table has 3^16 cells at most, and the first convolution step allows
# |A|^2 <= 5e7. So E_2m has at most (2m - 1) * 16 * log10(3) + 1 digits,
# within CPython's 4,300-digit int-to-str limit up to m = 282; every report
# prints E_2m as a string.
E2M_MAX_M = 256
_TABLE_MAX_N = 14  # backend crossover: past it only e2m's worst-step rule takes a table


def _square_total(table: np.ndarray) -> int:
    """Exact sum of squares of an int64 pair-count table.

    Every count is at most the size of a set in F_3^n with n <= 16, so
    below 3^16 < 2^26, and every square is below 2^52. The squares are
    taken and added one fourier._BLOCK of cells at a time through
    bulk.exact_sum, so no full-size square is ever held.
    """
    step = fourier._BLOCK
    bound = bulk.peak(table) ** 2
    return sum(
        (bulk.exact_sum(table[at : at + step] ** 2, bound) for at in range(0, table.size, step)),
        0,
    )


def _pairwise_counts(a: PointSet, b: PointSet, negate_second: bool = False) -> np.ndarray:
    """Dense int64 table counting the pairs (x, y) in A x B by x+y (or x-y)."""
    blo, bhi = b.planes()
    if negate_second:
        blo, bhi = bhi, blo
    out = np.zeros(3**a.n, dtype=np.int64)
    for _, _, idx in bulk.pair_sums(a.n, a.planes(), (blo, bhi)):
        np.add.at(out, idx.ravel(), 1)
    return out


def diff_multiplicity(ps: PointSet, backend: str = "auto") -> np.ndarray:
    """m(x) for every difference of the set, as one dense count table.

    The result is one int64 table of 3^n cells holding m(x) at the
    canonical index of x, zero off the difference set. The hash backend
    counts pairwise differences directly. The transform backend inverts
    the norm table, which is the transform of m; the two agree exactly
    and tests pin that down.
    """
    if backend == "auto":
        backend = "transform" if _table_pays(ps) else "hash"
    if backend == "hash":
        guard("dense difference table dimension", ps.n, DENSE_MAX_N)
        return _pairwise_counts(ps, ps, negate_second=True)
    if backend == "transform":
        return _inverse_of_real(ps.n, transform_point_set(ps).norms())
    raise ValueError(f"unknown backend {backend!r}")


def _table_pays(ps: PointSet) -> bool:  # auto rule of e4 and diff_multiplicity
    return ps.n <= _TABLE_MAX_N and 3**ps.n < 4 * max(ps.size, 1) ** 2


def _inverse_of_real(n: int, norms: np.ndarray) -> np.ndarray:
    """Exact inverse of a norm table: the difference multiplicities, int64.

    The norms have l1 = 3^n |A| <= 3^32 (Plancherel), so the kernel is
    int32 or int64 even where the peak bound 2 |A|^2 3^n passes 2^63. It
    runs in norms itself when they already have its dtype: norms is spent.
    """
    table = SpectrumTable(n, norms, np.zeros_like(norms))
    rp, rq = inverse_table(table, overwrite=True)
    if rq.any():
        raise IdentityViolationError("real inverse", "nonzero imaginary part", 0)
    return rp.astype(np.int64, copy=False)


def e4(ps: PointSet, backend: str = "auto") -> int:
    """Quadruples a + b = c + d: E_2m at m = 2 by transform, sum m(x)^2 by hash.

    auto takes the transform where its table pays. Otherwise a sparse
    set (40 |A|^2 < 3^n), or any set past DENSE_MAX_N, gets E_2m at
    m = 2 by convolution, which holds no table of 3^n cells; the rest
    get the hash table. The factor 40 sits where the convolution
    stops beating the hash table on random sets at n = 14 to 16.
    """
    if backend == "auto":
        if _table_pays(ps):
            backend = "transform"
        elif ps.n > DENSE_MAX_N or 40 * ps.size**2 < 3**ps.n:
            return e2m(ps, 2, backend="convolution")
        else:
            backend = "hash"
    if backend == "transform":
        return e2m(ps, 2, backend="transform")
    return _square_total(diff_multiplicity(ps, backend=backend))


def e2m(ps: PointSet, m: int, backend: str = "auto") -> int:
    """E_2m: tuples (a_1..a_m, b_1..b_m) with equal sums. Exact.

    auto takes the table up to n = _TABLE_MAX_N, and up to
    TRANSFORM_HARD_MAX_N where the convolution's worst step,
    min(|A|^(m-1), 3^n) |A| operations, would pass CONVOLUTION_OP_GUARD.
    """
    if m < 1:
        raise ValueError("m must be positive")
    guard("energy order m", m, E2M_MAX_M)
    if backend == "auto":
        worst = min(ps.size ** (m - 1), 3**ps.n) * ps.size
        pays = ps.n <= _TABLE_MAX_N or (
            ps.n <= TRANSFORM_HARD_MAX_N and worst > CONVOLUTION_OP_GUARD)
        backend = "transform" if pays else "convolution"
    if backend == "transform":
        return _e2m_transform(transform_point_set(ps), (m,))[0]
    if backend == "convolution":
        return _e2m_convolution(ps, m)
    raise ValueError(f"unknown backend {backend!r}")


def _e2m_transform(table: SpectrumTable, ms: tuple[int, ...]) -> list[int]:
    """sum |c(y)|^(2m) / 3^n for each m of ms, in order, from one table.

    A table has far fewer distinct norms than cells (about 10^4 among
    4.8 * 10^6 on a greedy cap at n = 14), so the norms are counted one
    norm_blocks() block at a time and the small (value, count) arrays
    merged; the exact Python-int powers then run once per distinct value.
    """
    values, counts = np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    for _, _, norms in table.norm_blocks():
        values, counts = _merge_sums(values, counts, *np.unique(norms, return_counts=True))
    pairs = list(zip(values.tolist(), counts.tolist()))
    totals = [divmod(sum(c * v**m for v, c in pairs), 3**table.n) for m in ms]
    if any(rest for _, rest in totals):
        raise IdentityViolationError("energy divisibility", [rest for _, rest in totals], 0)
    return [energy for energy, _ in totals]


def _e2m_convolution(ps: PointSet, m: int) -> int:
    """E_2m as the sum of squared m-fold sumset counts, on sorted arrays.

    The k-fold sumset is held as sorted unique indices with parallel
    counts. Each step adds A: every bulk.pair_sums block of (current
    points) x A is reduced to sorted unique keys with summed counts and
    merged into the next sumset's arrays.

    Overflow bound: every count of the m-fold sumset is at most
    |A|^(m-1), because the first m - 1 summands fix the last. Counts
    are int64 while |A|^(m-1) < INT64_SAFE and their squares while
    |A|^(2m-2) < INT64_SAFE; past either bound that stage runs on Python
    ints (object dtype).
    """
    size = ps.size
    idx = ps.indices
    cnt = np.ones(size, dtype=np.int64 if size ** (m - 1) < bulk.INT64_SAFE else object)
    for _ in range(m - 1):
        guard("convolution operations", idx.size * size, CONVOLUTION_OP_GUARD)
        nidx, ncnt = np.empty(0, dtype=np.int64), np.empty(0, dtype=cnt.dtype)
        planes = bulk.indices_to_planes(ps.n, idx)
        for start, stop, block in bulk.pair_sums(ps.n, planes, ps.planes()):
            keys, sums = _sorted_sums(block.ravel(), np.repeat(cnt[start:stop], size))
            nidx, ncnt = _merge_sums(nidx, ncnt, keys, sums)
        idx, cnt = nidx, ncnt
    if size ** (2 * m - 2) >= bulk.INT64_SAFE:
        cnt = cnt.astype(object)
    return bulk.exact_sum(cnt * cnt)


def _sorted_sums(keys: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct keys, each with the sum of its counts."""
    order = np.argsort(keys)
    keys = keys[order]
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    return keys[starts], np.add.reduceat(counts[order], starts)


def _merge_sums(
    idx: np.ndarray, cnt: np.ndarray, keys: np.ndarray, sums: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Add sorted distinct (keys, sums) into sorted distinct (idx, cnt).

    Counts of keys already present are added in place; the new keys go
    in by one np.insert, so a merge is linear in the running arrays.
    """
    pos = np.searchsorted(idx, keys)
    hit = pos < idx.size
    hit[hit] = idx[pos[hit]] == keys[hit]
    cnt[pos[hit]] += sums[hit]
    new = ~hit
    return np.insert(idx, pos[new], keys[new]), np.insert(cnt, pos[new], sums[new])


@dataclass(frozen=True)
class HolderReport:
    """Both interpolation inequalities, cross-multiplied in integers.

    The first one, E4^(m-1) <= E_2m * |S|^(m-2), holds for every m >= 3.
    The second, E8^(m-1) <= E_2m^3 * |S|^(m-4), needs m >= 4: at m = 3 the
    exponent on |S| goes negative and power-mean interpolation runs the
    other way, so it is not checked there.
    """

    m: int
    size: int
    e4: int
    e8: int | None
    e2m: int
    part1_holds: bool
    part2_holds: bool | None

    @property
    def all_hold(self) -> bool:
        return self.part1_holds and self.part2_holds is not False


def holder_check(ps: PointSet, m: int) -> HolderReport:
    if m < 3:
        raise ValueError("interpolation checks start at m = 3")
    guard("energy order m", m, E2M_MAX_M)
    wants = (2, m) if m <= 4 else (2, 4, m)
    if ps.n <= _TABLE_MAX_N:  # e2m's auto rule; one table gives every moment
        got = dict(zip(wants, _e2m_transform(transform_point_set(ps), wants)))
    else:
        got = {k: e4(ps) if k == 2 else e2m(ps, k) for k in wants}
    v4, vm, v8 = got[2], got[m], got.get(4)
    part1 = v4 ** (m - 1) <= vm * ps.size ** (m - 2)
    part2 = None if v8 is None else v8 ** (m - 1) <= vm**3 * ps.size ** (m - 4)
    return HolderReport(
        m=m, size=ps.size, e4=v4, e8=v8, e2m=vm, part1_holds=part1, part2_holds=part2
    )


def cross_quadruples(b: PointSet, c: PointSet) -> tuple[int, Fraction]:
    """Collisions b + c = b' + c' across two sets, with the exact rate.

    The rate divides by (|B| |C|)^2, the number of ordered pairs of
    pairs; a subspace against itself of size s gives rate 1/s.
    """
    if b.n != c.n:
        raise ValueError("the two sets live in different dimensions")
    guard("dense sumset table dimension", b.n, DENSE_MAX_N)
    if b.size == 0 or c.size == 0:
        return 0, Fraction(0)
    count = _square_total(_pairwise_counts(b, c))
    return count, Fraction(count, (b.size * c.size) ** 2)
