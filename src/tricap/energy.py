"""Additive energies, exactly.

Difference multiplicities m(x) = #{(a, b) : a - b = x} drive everything
here. The fourth energy is sum m(x)^2; higher even energies E_2m come
from the coefficient table as sum |c(y)|^(2m) / 3^n, which is an exact
integer because the numerator is divisible by 3^n (that divisibility is
asserted, not assumed). A dictionary convolution backend covers sets
living in an ambient space too large for a full table.

All energies and inequality checks are computed in unbounded integers;
no float enters any comparison. Floats appear only in report fields
that carry asymptotic context (the smoothing exponent).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import bulk
from .capset import PointSet
from .errors import GuardExceededError, IdentityViolationError
from .fourier import TRANSFORM_GUARD_N, SpectrumTable, inverse_table, transform_point_set
from .gf3core import TritVector, plane_add

__all__ = [
    "CONVOLUTION_OP_GUARD",
    "HolderReport",
    "MultiplicityMap",
    "SmoothingReport",
    "cross_quadruples",
    "diff_multiplicity",
    "e2m",
    "e4",
    "holder_check",
    "quadruple_participation",
    "smoothing_report",
]

CONVOLUTION_OP_GUARD = 50_000_000


class MultiplicityMap:
    """Difference multiplicities of a point set, zero entries omitted."""

    __slots__ = ("n", "source_size", "counts")

    def __init__(self, n: int, source_size: int, counts: dict[int, int]):
        self.n = n
        self.source_size = source_size
        self.counts = counts

    def of_index(self, i: int) -> int:
        return self.counts.get(i, 0)

    def of(self, v: TritVector) -> int:
        return self.counts.get(v.index, 0)

    @property
    def support_size(self) -> int:
        return len(self.counts)

    def total(self) -> int:
        return sum(self.counts.values())

    def support(self) -> PointSet:
        return PointSet(self.n, np.fromiter(self.counts, dtype=np.int64, count=len(self.counts)))

    def energy(self) -> int:
        """sum of m(x)^2, the fourth additive energy."""
        return sum(v * v for v in self.counts.values())


def _pairwise_counts(a: PointSet, b: PointSet, negate_second: bool = False) -> np.ndarray:
    """Dense int64 table counting the pairs (x, y) in A x B by x+y (or x-y)."""
    blo, bhi = b.planes()
    if negate_second:
        blo, bhi = bhi, blo
    out = np.zeros(3**a.n, dtype=np.int64)
    for _, _, idx in bulk.pair_sums(a.n, a.planes(), (blo, bhi)):
        np.add.at(out, idx.ravel(), 1)
    return out


def diff_multiplicity(ps: PointSet, backend: str = "auto") -> MultiplicityMap:
    """m(x) for every difference of the set.

    The hash backend counts pairwise differences directly. The transform
    backend inverts the norm table, which is the transform of m; the two
    agree exactly and tests pin that down.
    """
    if backend == "auto":
        backend = "transform" if (
            ps.n <= TRANSFORM_GUARD_N and 3**ps.n < 4 * max(ps.size, 1) ** 2
        ) else "hash"
    if backend == "hash":
        if ps.n > 16:
            raise GuardExceededError("dense difference table", ps.n, 16)
        table = _pairwise_counts(ps, ps, negate_second=True)
    elif backend == "transform":
        table = _inverse_of_real(ps.n, transform_point_set(ps).norms())
    else:
        raise ValueError(f"unknown backend {backend!r}")
    idx = np.nonzero(table)[0]
    counts = {int(i): int(table[i]) for i in idx}
    return MultiplicityMap(ps.n, ps.size, counts)


def _inverse_of_real(n: int, norms: np.ndarray) -> np.ndarray:
    """Exact inverse of a norm table: the difference multiplicities, int64.

    The result is m(x) <= |A|, so the int64 cast is exact whatever dtype
    the kernel had to use on the way.
    """
    rp, rq = inverse_table(SpectrumTable(n, norms, np.zeros_like(norms)), force=True)
    if rq.any():
        raise IdentityViolationError("real inverse", "nonzero imaginary part", 0)
    return rp.astype(np.int64)


def e4(ps: PointSet, backend: str = "auto") -> int:
    """Number of quadruples a + b = c + d (equivalently a - c = d - b)."""
    return diff_multiplicity(ps, backend=backend).energy()


def e2m(ps: PointSet, m: int, backend: str = "auto", force: bool = False) -> int:
    """E_2m: tuples (a_1..a_m, b_1..b_m) with equal sums. Exact."""
    if m < 1:
        raise ValueError("m must be positive")
    if ps.size == 0:
        return 0
    if backend == "auto":
        backend = "transform" if ps.n <= TRANSFORM_GUARD_N or force else "convolution"
    if backend == "transform":
        return _e2m_transform(ps, m, force)
    if backend == "convolution":
        return _e2m_convolution(ps, m)
    raise ValueError(f"unknown backend {backend!r}")


def _e2m_transform(ps: PointSet, m: int, force: bool) -> int:
    spec = transform_point_set(ps, force=force)
    norms = spec.norms()
    total = sum(int(v) ** m for v in norms.tolist())
    div = 3**ps.n
    if total % div:
        raise IdentityViolationError("energy divisibility", total % div, 0)
    return total // div


def _e2m_convolution(ps: PointSet, m: int) -> int:
    """m-fold sumset multiplicities by dictionary convolution."""
    base = [int(i) for i in ps.indices]
    base_planes = ps.planes()
    cur: dict[int, int] = {i: 1 for i in base}
    for _ in range(m - 1):
        if len(cur) * ps.size > CONVOLUTION_OP_GUARD:
            raise GuardExceededError(
                "convolution operations", len(cur) * ps.size, CONVOLUTION_OP_GUARD
            )
        keys = np.fromiter(cur, dtype=np.int64, count=len(cur))
        vals = [cur[int(k)] for k in keys]
        klo, khi = bulk.indices_to_planes(ps.n, keys)
        nxt: dict[int, int] = {}
        for j in range(ps.size):
            slo, shi = plane_add(klo, khi, base_planes[0][j], base_planes[1][j])
            sidx = bulk.planes_to_indices(ps.n, slo, shi)
            for k, v in zip(sidx.tolist(), vals):
                if k in nxt:
                    nxt[k] += v
                else:
                    nxt[k] = v
        cur = nxt
    return sum(v * v for v in cur.values())


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


def holder_check(ps: PointSet, m: int, backend: str = "auto") -> HolderReport:
    if m < 3:
        raise ValueError("interpolation checks start at m = 3")
    v4 = e4(ps, backend=backend)
    vm = e2m(ps, m, backend=backend)
    part1 = v4 ** (m - 1) <= vm * ps.size ** (m - 2)
    v8: int | None = None
    part2: bool | None = None
    if m >= 4:
        v8 = e2m(ps, 4, backend=backend)
        part2 = v8 ** (m - 1) <= vm**3 * ps.size ** (m - 4)
    return HolderReport(
        m=m, size=ps.size, e4=v4, e8=v8, e2m=vm, part1_holds=part1, part2_holds=part2
    )


@dataclass(frozen=True)
class SmoothingReport:
    """Eighth-energy smoothing exponent against its breaking point.

    sigma_eff solves E8 = n^(15 + sigma); the boundary for the argument
    to go through is 30 * epsilon. Report-only: nothing here asserts, a
    single desk-scale set cannot witness an asymptotic statement.
    """

    size: int
    scale_n: int
    epsilon: float
    e8: int
    sigma_eff: float
    boundary: float

    @property
    def within_boundary(self) -> bool:
        return self.sigma_eff <= self.boundary


def smoothing_report(
    ps: PointSet, scale_n: int, epsilon: float = 0.05, backend: str = "auto"
) -> SmoothingReport:
    if scale_n < 2:
        raise ValueError("scale parameter must be at least 2")
    if ps.size == 0:
        raise ValueError("smoothing exponent of the empty set is undefined")
    v8 = e2m(ps, 4, backend=backend)
    sigma = math.log(v8) / math.log(scale_n) - 15.0
    return SmoothingReport(
        size=ps.size,
        scale_n=scale_n,
        epsilon=epsilon,
        e8=v8,
        sigma_eff=sigma,
        boundary=30.0 * epsilon,
    )


def quadruple_participation(a: TritVector, ps: PointSet) -> int:
    """Signed quadruples through a fixed point.

    Counts solutions of s_a a + s_b b = s_c c + s_d d with b, c, d in the
    set and all sixteen sign patterns included. Symmetric under a -> -a
    pattern by pattern, which the property tests exploit.
    """
    if a.n != ps.n:
        raise ValueError("point dimension differs from the set")
    if ps.n > 16:
        raise GuardExceededError("dense participation tables", ps.n, 16)
    sums = _pairwise_counts(ps, ps)
    diffs = _pairwise_counts(ps, ps, negate_second=True)
    lo, hi = ps.planes()
    total = 0
    for sign_a in (False, True):
        alo, ahi = (a.hi, a.lo) if sign_a else (a.lo, a.hi)
        for sign_b in (False, True):
            blo, bhi = (hi, lo) if sign_b else (lo, hi)
            zlo, zhi = plane_add(np.int64(alo), np.int64(ahi), blo, bhi)
            zidx = bulk.planes_to_indices(ps.n, zlo, zhi)
            znidx = bulk.planes_to_indices(ps.n, zhi, zlo)
            total += int(sums[zidx].sum()) + int(diffs[zidx].sum())
            total += int(diffs[znidx].sum()) + int(sums[znidx].sum())
    return total


def cross_quadruples(b: PointSet, c: PointSet) -> tuple[int, Fraction]:
    """Collisions b + c = b' + c' across two sets, with the exact rate.

    The rate divides by (|B| |C|)^2, the number of ordered pairs of
    pairs; a subspace against itself of size s gives rate 1/s.
    """
    if b.n != c.n:
        raise ValueError("the two sets live in different dimensions")
    if b.n > 16:
        raise GuardExceededError("dense sumset table", b.n, 16)
    if b.size == 0 or c.size == 0:
        return 0, Fraction(0)
    count = sum(v * v for v in _pairwise_counts(b, c).tolist())
    return count, Fraction(count, (b.size * c.size) ** 2)
