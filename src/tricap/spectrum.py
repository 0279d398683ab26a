"""Large-coefficient spectra and density-increment checks.

A frequency x (nonzero) belongs to the spectrum of A at threshold c when
|c(x)| >= c * |A|^2 / 3^n, i.e. the normalized coefficient is at least c
times the squared density. Cleared of denominators that is the exact
integer comparison

    eis_norm(c(x)) * 3^(2n) * c_den^2  >=  c_num^2 * |A|^4

so membership never touches floating point. The spectrum is closed under
negation and shrinks as c grows; both are enforced by tests.

Increment checks are affine throughout: a direction subspace plus a
shift. A set has a strong increment on an affine subspace V of
codimension d when its density there reaches rho * (1 + 20 d / n); the
comparison is exact rational and equality counts as an increment (the
worked hyperplane case at n = 10 lands exactly on the boundary). The
empty set has no increment. Hyperplane scans read the coset counts of
every functional off the coefficient table; explicit and sampled cosets
are counted from one histogram of dot profiles against the direction's
annihilator, one pass over A and 3^d bins per sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import bulk
from .capset import PointSet
from .errors import IdentityViolationError
from .fourier import eval_at, restricted_transform, transform_point_set
from .gf3core import TritVector
from .linalg import Subspace
from .rng import make_rng

__all__ = [
    "AffineSubspace",
    "IncrementReport",
    "SpectrumSet",
    "SubspaceSpectrumStats",
    "coset_counts",
    "extract_spectrum",
    "sampled_increment_checks",
    "scan_codim1_increments",
    "strong_increment_check",
    "subspace_spectrum_stats",
]


@dataclass(frozen=True)
class AffineSubspace:
    """direction + shift; the empty shift gives a linear subspace."""

    direction: Subspace
    shift: TritVector

    def __post_init__(self) -> None:
        if self.direction.n != self.shift.n:
            raise ValueError("shift dimension differs from direction")

    @property
    def n(self) -> int:
        return self.direction.n

    @property
    def codim(self) -> int:
        return self.direction.codim


@dataclass(frozen=True)
class IncrementReport:
    """Exact density comparison on one affine subspace."""

    codim: int
    density: Fraction
    threshold: Fraction
    basis: tuple[str, ...]
    shift: str

    @property
    def excess(self) -> Fraction:
        return self.density - self.threshold

    @property
    def is_increment(self) -> bool:
        # the threshold is 0 only for the empty set, which has no increment
        return self.density >= self.threshold > 0


class SpectrumSet:
    """The spectrum members of a base set at one threshold."""

    __slots__ = ("base", "threshold_c", "members")

    def __init__(self, base: PointSet, threshold_c: Fraction, members: PointSet):
        self.base = base
        self.threshold_c = threshold_c
        self.members = members

    @property
    def n(self) -> int:
        return self.base.n

    @property
    def size(self) -> int:
        return self.members.size

    def rho(self) -> Fraction:
        return Fraction(self.base.size, 3**self.base.n)

    def norm_of(self, x: TritVector) -> int:
        """Exact norm at a member frequency, from eval_at; KeyError for a non-member."""
        if not self.contains(x):
            raise KeyError(x.index)
        return eval_at(self.base, x).norm()

    def contains(self, x: TritVector) -> bool:
        return self.members.contains(x)


def extract_spectrum(
    ps: PointSet, threshold_c: Fraction | int = 1, force: bool = False
) -> SpectrumSet:
    """All nonzero frequencies whose coefficient passes the threshold.

    The membership mask is built from the table's norms one block at a
    time, and the table is dropped before the members are listed, so the
    peak is the table plus a byte a cell, then the mask plus the members.
    """
    c = Fraction(threshold_c)
    if c < 0:
        raise ValueError("threshold must be nonnegative")
    # norm >= ceil(c_num^2 |A|^4 / (3^(2n) c_den^2)), exact integer form
    num = c.numerator**2 * ps.size**4
    den = 3 ** (2 * ps.n) * c.denominator**2
    need = -(-num // den)
    table = transform_point_set(ps, force=force)
    mask = np.empty(table.p.size, dtype=bool)
    for start, stop, norms in table.norm_blocks():
        mask[start:stop] = norms >= need  # exact for any Python int need
    del table
    mask[0] = False
    return SpectrumSet(ps, c, PointSet._from_sorted(ps.n, np.flatnonzero(mask)))


def _level_counts(p, q, size: int):
    """(k0, k1, k2) with k0 - k2 = p, k1 - k2 = q and k0 + k1 + k2 = size.

    The level-set sizes of a functional whose coefficient is p + q*w;
    works on Python ints and elementwise on integer arrays alike. An int32
    slice of an indicator table stays exact: size - p - q = 3 * k2, so
    every value here is within 3|A| <= 3^17 < 2^31 for |A| <= 3^16.
    """
    rem = size - p - q
    if np.any(rem % 3):
        raise IdentityViolationError("coset count divisibility", "nonzero remainder", 0)
    k2 = rem // 3
    return p + k2, q + k2, k2


def coset_counts(ps: PointSet, x: TritVector) -> tuple[int, int, int]:
    """|A| split across the three level sets of a nonzero functional x, from c(x)."""
    if x.n != ps.n:
        raise ValueError("frequency dimension differs from the set")
    if x.is_zero():
        raise ValueError("coset counts need a nonzero functional")
    cx = eval_at(ps, x)
    return _level_counts(cx.p, cx.q, ps.size)


def _coset_sizes(ps: PointSet, functionals: Subspace, shifts: np.ndarray) -> np.ndarray:
    """|A on s + V| for each canonical index s in shifts, V = functionals^perp.

    A point's coset is fixed by its dot profile against the functionals'
    basis, so one histogram of those profiles (a single pass over A)
    holds every coset count, and a shift reads its coset at its own label.
    """
    basis = functionals.basis
    hist = bulk.dot_histogram(*ps.planes(), basis)
    return hist[bulk.dot_labels(*bulk.indices_to_planes(ps.n, shifts), basis)]


class _ReportBuilder:
    """IncrementReports on the cosets of codimension d in one set.

    The one place that sets density, the threshold rho * (1 + 20 d / n)
    and the basis and shift strings. ``need`` is the fewest points of A
    on such a coset that reach the threshold.
    """

    def __init__(self, ps: PointSet, codim: int):
        self.n = ps.n
        self.codim = codim
        self.cells = 3 ** (ps.n - codim)
        self.threshold = Fraction(ps.size, 3**ps.n) * (1 + Fraction(20 * codim, ps.n))
        self.need = math.ceil(self.threshold * self.cells)

    def report(self, direction: Subspace, count: int, shift: int) -> IncrementReport:
        """The coset shift + direction, shift a canonical index, holding count points."""
        return IncrementReport(
            codim=self.codim,
            density=Fraction(count, self.cells),
            threshold=self.threshold,
            basis=tuple(str(b) for b in direction.basis),
            shift=str(TritVector.from_index(self.n, shift)),
        )

    def increments(self, direction: Subspace, counts, shifts) -> list[IncrementReport]:
        """Reports on the cosets holding at least ``need`` points, in order.

        Each is also checked against the exact rational comparison.
        """
        out = [self.report(direction, k, s) for k, s in zip(counts, shifts) if k >= self.need]
        for rep in out:
            if not rep.is_increment:
                raise IdentityViolationError(
                    "increment mask agreement", str(rep.density), str(rep.threshold)
                )
        return out


def strong_increment_check(ps: PointSet, aff: AffineSubspace) -> IncrementReport:
    """Exact rational density-vs-threshold comparison on one affine piece."""
    if aff.n != ps.n:
        raise ValueError("subspace dimension differs from the set")
    d = aff.codim
    if d < 1 or 2 * d > ps.n:
        raise ValueError(f"codimension {d} outside 1..n/2")
    count = _coset_sizes(ps, aff.direction.annihilator(), np.array([aff.shift.index]))
    return _ReportBuilder(ps, d).report(aff.direction, int(count[0]), aff.shift.index)


def _canonical_ranges(n: int) -> list[range]:
    """Nonzero functionals whose leading nonzero digit is 1, as index ranges.

    Range k is 3^k <= i < 2 * 3^k, leading digit at coordinate n - 1 - k.
    Negation swaps the digits 1 and 2, so each pair {x, 2x} has its
    smaller index here.
    """
    return [range(3**k, 2 * 3**k) for k in range(n)]


def scan_codim1_increments(ps: PointSet, force: bool = False) -> list[IncrementReport]:
    """Every affine hyperplane carrying a strong increment.

    One pass over the full coefficient table recovers all coset counts.
    The pair {x, 2x} describes the same hyperplane family, so only the
    functionals of _canonical_ranges are scanned. For x in range k the
    unit vector of index 3^k has dot product 1 with x, so coset j of x has
    shift index j * 3^k. Reports come back ordered by (frequency index,
    coset label).
    """
    if ps.n < 2:
        raise ValueError("codimension-1 scan needs n >= 2")
    if ps.size == 0:
        return []
    table = transform_point_set(ps, force=force)
    build = _ReportBuilder(ps, 1)
    reports: list[IncrementReport] = []
    for r in _canonical_ranges(ps.n):
        levels = _level_counts(table.p[r.start : r.stop], table.q[r.start : r.stop], ps.size)
        top = np.maximum(np.maximum(levels[0], levels[1]), levels[2])
        for i in np.flatnonzero(top >= build.need).tolist():
            x = TritVector.from_index(ps.n, r.start + i)
            direction = Subspace.span([x], ps.n).annihilator()
            counts = [int(k[i]) for k in levels]
            reports += build.increments(direction, counts, (0, r.start, 2 * r.start))
    return reports


def sampled_increment_checks(
    spec: SpectrumSet, codim: int, samples: int, seed: int
) -> list[IncrementReport]:
    """Increment spot-checks on subspaces spanned by random spectrum members.

    For each sample, span up to ``codim`` random members of the spectrum,
    take the annihilator as the direction, and check every coset: one
    histogram over A counts them all. Only cosets that are strong
    increments are reported, in the order of the direction's transversal.
    """
    if spec.size == 0 or spec.base.size == 0:
        return []
    out: list[IncrementReport] = []
    for s in range(samples):
        rng = make_rng(seed, 31, s)
        take = min(codim, spec.size)
        picks = rng.choice(spec.members.indices, size=take, replace=False)
        w = Subspace.span([TritVector.from_index(spec.n, int(i)) for i in picks], spec.n)
        if w.dim < 1 or 2 * w.dim > spec.n:
            continue
        direction = w.annihilator()
        shifts = direction.transversal().enumerate_indices()
        counts = _coset_sizes(spec.base, w, shifts).tolist()
        out += _ReportBuilder(spec.base, w.dim).increments(direction, counts, shifts.tolist())
    return out


@dataclass(frozen=True)
class SubspaceSpectrumStats:
    """How much of the spectrum (count and weight) a subspace captures."""

    dim: int
    member_count: int
    weight: int  # sum of eis_norm(c(w)) over nonzero w in W, exact
    weight_normalized: float  # weight / 3^(2n), report-only
    count_reference: float  # d * n^(1 + 2 eps), report-only
    weight_reference: float  # rho^2 * d / n, report-only


def subspace_spectrum_stats(
    spec: SpectrumSet, w: Subspace, epsilon: float = 0.0
) -> SubspaceSpectrumStats:
    if w.n != spec.n:
        raise ValueError("subspace dimension differs from the spectrum")
    # frequency 0 is never a spectrum member, so W's zero counts for nothing
    count = int(spec.members.contains_indices(w.enumerate_indices()).sum())
    # extracting the spectrum already held a 3^n >= 3^dim(W) table, so
    # the transform guard has been passed at a larger size
    table = restricted_transform(spec.base, w, force=True)
    weight = table.norm_total() - table.norm_at(0)
    n = spec.n
    rho = spec.base.size / 3**n
    return SubspaceSpectrumStats(
        dim=w.dim,
        member_count=count,
        weight=weight,
        weight_normalized=weight / 3 ** (2 * n),
        count_reference=w.dim * n ** (1.0 + 2.0 * epsilon),
        weight_reference=rho * rho * w.dim / n,
    )
