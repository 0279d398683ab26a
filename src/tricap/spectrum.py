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
worked hyperplane case at n = 10 lands exactly on the boundary).
"""

from __future__ import annotations

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

    def size(self) -> int:
        return self.direction.size()

    def contains(self, v: TritVector) -> bool:
        return self.direction.contains(v - self.shift)


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
        return self.density >= self.threshold


class SpectrumSet:
    """Spectrum members with their exact coefficient norms.

    ``norms`` is parallel to ``members.indices``: norms[k] is the norm of
    the coefficient at frequency members.indices[k].
    """

    __slots__ = ("base", "threshold_c", "members", "norms")

    def __init__(self, base: PointSet, threshold_c: Fraction, members: PointSet, norms: np.ndarray):
        self.base = base
        self.threshold_c = threshold_c
        self.members = members
        self.norms = norms

    @property
    def n(self) -> int:
        return self.base.n

    @property
    def size(self) -> int:
        return self.members.size

    def rho(self) -> Fraction:
        return Fraction(self.base.size, 3**self.base.n)

    def norm_of(self, x: TritVector) -> int:
        """Exact norm at a member frequency; KeyError for a non-member."""
        if not self.contains(x):
            raise KeyError(x.index)
        return int(self.norms[np.searchsorted(self.members.indices, x.index)])

    def contains(self, x: TritVector) -> bool:
        return self.members.contains(x)


def extract_spectrum(
    ps: PointSet, threshold_c: Fraction | int = 1, force: bool = False
) -> SpectrumSet:
    """All nonzero frequencies whose coefficient passes the threshold."""
    c = Fraction(threshold_c)
    if c < 0:
        raise ValueError("threshold must be nonnegative")
    table = transform_point_set(ps, force=force)
    norms = table.norms()
    # norm >= ceil(c_num^2 |A|^4 / (3^(2n) c_den^2)), exact integer form
    num = c.numerator**2 * ps.size**4
    den = 3 ** (2 * ps.n) * c.denominator**2
    need = -(-num // den)
    mask = norms >= need  # exact for any Python int need, int64 or object norms
    mask[0] = False
    members = PointSet(ps.n, np.flatnonzero(mask))
    return SpectrumSet(ps, c, members, norms[members.indices])


def coset_counts(ps: PointSet, x: TritVector) -> tuple[int, int, int]:
    """|A| split across the three level sets of a nonzero functional x.

    Recovered from the single coefficient c(x): with c = p + q*w,
    k0 - k2 = p, k1 - k2 = q, k0 + k1 + k2 = |A|.
    """
    if x.n != ps.n:
        raise ValueError("frequency dimension differs from the set")
    if x.is_zero():
        raise ValueError("coset counts need a nonzero functional")
    cx = eval_at(ps, x)
    rem = ps.size - cx.p - cx.q
    if rem % 3:
        raise IdentityViolationError("coset count divisibility", rem % 3, 0)
    k2 = rem // 3
    return cx.p + k2, cx.q + k2, k2


def strong_increment_check(ps: PointSet, aff: AffineSubspace) -> IncrementReport:
    """Exact rational density-vs-threshold comparison on one affine piece."""
    if aff.n != ps.n:
        raise ValueError("subspace dimension differs from the set")
    d = aff.codim
    if d < 1 or 2 * d > ps.n:
        raise ValueError(f"codimension {d} outside 1..n/2")
    ann = aff.direction.annihilator()
    lo, hi = ps.planes()
    inside = np.ones(ps.size, dtype=bool)
    for w in ann.basis:
        inside &= bulk.dots_with(lo, hi, w) == aff.shift.dot(w)
    count = int(inside.sum())
    density = Fraction(count, 3 ** (ps.n - d))
    rho = Fraction(ps.size, 3**ps.n)
    threshold = rho * (1 + Fraction(20 * d, ps.n))
    return IncrementReport(
        codim=d,
        density=density,
        threshold=threshold,
        basis=tuple(str(b) for b in aff.direction.basis),
        shift=str(aff.shift),
    )


def _unit_functional_rep(x: TritVector) -> TritVector:
    """A vector w with x.w = 1 (first nonzero coordinate, self-inverse)."""
    for i in range(x.n):
        t = x.trit(i)
        if t:
            return TritVector.unit(x.n, i, t)  # t*t = 1 mod 3 for t in {1,2}
    raise ValueError("zero functional has no unit representative")


def scan_codim1_increments(ps: PointSet, force: bool = False) -> list[IncrementReport]:
    """Every affine hyperplane carrying a strong increment.

    One pass over the full coefficient table recovers all coset counts;
    the pair {x, 2x} describes the same hyperplane family, so only the
    smaller index of each pair is scanned. Reports come back ordered by
    (frequency index, coset label).
    """
    if ps.n < 2:
        raise ValueError("codimension-1 scan needs n >= 2")
    if ps.size == 0:
        return []
    table = transform_point_set(ps, force=force)
    size3 = 3**ps.n
    all_idx = np.arange(size3, dtype=np.int64)
    lo, hi = bulk.indices_to_planes(ps.n, all_idx)
    neg_idx = bulk.planes_to_indices(ps.n, hi, lo)
    p, q = table.p, table.q
    rem = ps.size - p - q
    if (rem % 3).any():
        raise IdentityViolationError("coset count divisibility", "remainder", 0)
    k2 = rem // 3
    k0 = p + k2
    k1 = q + k2
    # density >= rho (1 + 20/n)  <=>  3 n k_j >= |A| (n + 20), all int64
    lhs_scale = 3 * ps.n
    rhs = ps.size * (ps.n + 20)
    reports: list[IncrementReport] = []
    canonical = (all_idx != 0) & (all_idx <= neg_idx)
    hit_any = (
        (lhs_scale * k0 >= rhs) | (lhs_scale * k1 >= rhs) | (lhs_scale * k2 >= rhs)
    ) & canonical
    for i in np.nonzero(hit_any)[0]:
        x = TritVector.from_index(ps.n, int(i))
        w = _unit_functional_rep(x)
        direction = Subspace.span([x], ps.n).annihilator()
        for j, kj in enumerate((int(k0[i]), int(k1[i]), int(k2[i]))):
            if lhs_scale * kj >= rhs:
                rep = IncrementReport(
                    codim=1,
                    density=Fraction(kj, 3 ** (ps.n - 1)),
                    threshold=Fraction(ps.size, 3**ps.n)
                    * (1 + Fraction(20, ps.n)),
                    basis=tuple(str(b) for b in direction.basis),
                    shift=str(w.scale(j)),
                )
                if not rep.is_increment:
                    raise IdentityViolationError(
                        "increment mask agreement", str(rep.density), str(rep.threshold)
                    )
                reports.append(rep)
    return reports


def sampled_increment_checks(
    spec: SpectrumSet, codim: int, samples: int, seed: int
) -> list[IncrementReport]:
    """Increment spot-checks on subspaces spanned by random spectrum members.

    For each sample, span up to ``codim`` random members of the spectrum,
    take the annihilator as the direction, and check every coset. Only
    cosets that are strong increments are reported.
    """
    if spec.size == 0:
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
        for shift in direction.transversal().enumerate_points():
            rep = strong_increment_check(spec.base, AffineSubspace(direction, shift))
            if rep.is_increment:
                out.append(rep)
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
