"""Large-coefficient spectra and density-increment checks.

A frequency x (nonzero) belongs to the spectrum of A at threshold c when
|c(x)| >= c * |A|^2 / 3^n, i.e. the normalized coefficient is at least c
times the squared density. Cleared of denominators that is the exact
integer comparison

    eis_norm(c(x)) * 3^(2n) * c_den^2  >=  c_num^2 * |A|^4

so membership never touches floating point; _spectrum_need is the one
right-hand side, on A's table and on W's. The spectrum is closed under
negation and shrinks as c grows; both are enforced by tests. Nothing
here computes a float; the CLI handler computes those `spectrum subspace` prints.

Increment checks are affine throughout: a direction subspace plus a
shift. A set has a strong increment on an affine subspace V of
codimension d when its density there reaches rho * (1 + 20 d / n);
equality counts as an increment (the worked hyperplane case at n = 10
lands exactly on the boundary). Results stay integers: an Increment is
the coset's point count with its basis and shift as canonical indices,
and it is reported when the count reaches increment_need, the exact
integer form of that threshold, which is at least 1, so the empty set
has no increment. Densities and strings are made once, when a report is
rendered. The spectrum and the hyperplane scan's coset counts are read
off A's table, which their caller builds; a table of another n or |A| is
refused. Explicit and sampled cosets, and the fibers that ``structure
fibers`` reports, are counted by _coset_sizes from one histogram of dot
profiles against the direction's annihilator, one pass over A and 3^d bins.

A hyperplane x^perp needs no elimination: with q the last nonzero
coordinate of x, its reduced echelon basis is {e_j - x_j x_q e_q : j != q}.
Each row has dot x_j - x_j x_q^2 = 0 with x, row j has its pivot at j
(x_j != 0 only for j < q), and every other entry lies in column q, which
is no pivot.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import bulk, fourier
from .capset import PointSet
from .errors import IdentityViolationError
from .fourier import SpectrumTable, eval_at, restricted_transform
from .gf3core import TritVector
from .linalg import Subspace
from .rng import make_rng

__all__ = [
    "Increment",
    "SpectrumSet",
    "check_increment_sampling",
    "coset_counts",
    "extract_spectrum",
    "fiber_sizes",
    "increment_need",
    "increment_threshold",
    "sampled_increment_checks",
    "scan_codim1_increments",
    "strong_increment_check",
    "subspace_spectrum_stats",
]


class Increment(NamedTuple):
    """The coset shift + span(basis), of codimension codim, holding count points of A.

    basis and shift are canonical indices.
    """

    codim: int
    count: int
    basis: tuple[int, ...]
    shift: int


class SpectrumSet(NamedTuple):
    """The spectrum members of a base set at one threshold."""

    base: PointSet
    threshold_c: Fraction
    members: PointSet


def _check_table(ps: PointSet, table: SpectrumTable) -> None:
    if (table.n, table.source_size) != (ps.n, ps.size):
        raise ValueError("the table is not the transform of a set of this n and size")


def _spectrum_need(ps: PointSet, c: Fraction) -> int:
    """ceil(c_num^2 |A|^4 / (3^(2n) c_den^2)), n ambient: the least norm of a member."""
    if c < 0:
        raise ValueError("threshold must be nonnegative")
    return -(-(c.numerator**2 * ps.size**4) // (3 ** (2 * ps.n) * c.denominator**2))


def extract_spectrum(
    ps: PointSet, table: SpectrumTable, threshold_c: Fraction | int = 1
) -> SpectrumSet:
    """All nonzero frequencies whose coefficient in ps's table passes the threshold.

    The mask is built from the table's norms one block at a time, and
    this call drops its reference to the table before the members are
    listed: a caller that passes the table inline holds the table plus
    a byte a cell, then the mask plus the members.
    """
    c = Fraction(threshold_c)
    need = _spectrum_need(ps, c)
    _check_table(ps, table)
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
    Two shifts with one label would name one coset twice, and raise.
    """
    basis = functionals.basis
    hist = bulk.dot_histogram(*ps.planes(), basis)
    labels = bulk.dot_labels(*bulk.indices_to_planes(ps.n, shifts), basis)
    distinct = np.unique(labels).size
    if distinct != labels.size:
        raise IdentityViolationError("fiber keys", distinct, labels.size)
    return hist[labels]


def fiber_sizes(ps: PointSet, h: Subspace) -> tuple[np.ndarray, np.ndarray]:
    """(reps, sizes): every fiber of H, as a canonical index and a point count.

    Point a lies in fiber v when a.h = v.h for every h in H, so the
    fibers are the cosets of H's annihilator. reps is the transversal of
    that annihilator in enumerate_indices order, one rep per dot profile,
    and sizes[i] = |A on reps[i] + H^perp|; empty fibers are kept, so
    there are always 3^dim H of each.
    """
    if h.n != ps.n:
        raise ValueError("subspace dimension differs from the set")
    reps = h.annihilator().transversal().enumerate_indices()
    return reps, _coset_sizes(ps, h, reps)


def increment_threshold(ps: PointSet, codim: int) -> Fraction:
    """rho * (1 + 20 d / n), the density of a strong increment of codimension d."""
    return ps.density() * (1 + Fraction(20 * codim, ps.n))


def increment_need(ps: PointSet, codim: int) -> int:
    """The fewest points of A on a coset of codimension d that make an increment.

    Checked once as the exact boundary: need - 1 points fall short of the
    threshold and need points reach it, so by monotonicity the cosets
    holding need or more are exactly the increments. It is at least 1,
    so no coset of the empty set is one.
    """
    bound = increment_threshold(ps, codim) * 3 ** (ps.n - codim)
    need = math.ceil(bound)
    if not need - 1 < bound <= need:
        raise IdentityViolationError("increment boundary", need, str(bound))
    return max(need, 1)


def strong_increment_check(ps: PointSet, direction: Subspace, shift: TritVector) -> Increment:
    """The points of A on shift + direction; an increment when count >= increment_need."""
    if direction.n != ps.n or shift.n != ps.n:
        raise ValueError("subspace dimension differs from the set")
    d = direction.codim
    if d < 1 or 2 * d > ps.n:
        raise ValueError(f"codimension {d} outside 1..n/2")
    count = int(_coset_sizes(ps, direction.annihilator(), np.array([shift.index]))[0])
    return Increment(d, count, tuple(b.index for b in direction.basis), shift.index)


def _canonical_ranges(n: int) -> list[range]:
    """Nonzero functionals whose leading nonzero digit is 1, as index ranges.

    Range k is 3^k <= i < 2 * 3^k, leading digit at coordinate n - 1 - k.
    Negation swaps the digits 1 and 2, so each pair {x, 2x} has its
    smaller index here.
    """
    return [range(3**k, 2 * 3**k) for k in range(n)]


def _hyperplane_bases(n: int, x: np.ndarray) -> np.ndarray:
    """Row i: indices of the reduced basis of x[i]^perp, in the module's closed form."""
    place = 3 ** np.arange(n - 1, -1, -1, dtype=np.int64)  # index of e_j
    digits = x[:, None] // place % 3
    q = n - 1 - np.argmax(digits[:, ::-1] != 0, axis=1)
    xq = digits[np.arange(x.size), q]
    rows = place + (-digits * xq[:, None]) % 3 * place[q][:, None]
    return rows[np.arange(n) != q[:, None]].reshape(x.size, n - 1)


def scan_codim1_increments(ps: PointSet, table: SpectrumTable) -> list[Increment]:
    """Every affine hyperplane carrying a strong increment, read off ps's table.

    One pass over the full coefficient table, fourier._BLOCK cells at a
    time, recovers all coset counts beside block-sized scratch. The pair
    {x, 2x} describes the same hyperplane family, so only the functionals
    of _canonical_ranges are scanned. For x in range k the unit vector of
    index 3^k has dot product 1 with x, so coset j of x has shift index
    j * 3^k. Increments come back ordered by (frequency index, coset label).
    """
    if ps.n < 2:
        raise ValueError("codimension-1 scan needs n >= 2")
    _check_table(ps, table)
    need = increment_need(ps, 1)
    found: list[Increment] = []
    for r in _canonical_ranges(ps.n):
        for start in range(r.start, r.stop, fourier._BLOCK):
            cells = slice(start, min(r.stop, start + fourier._BLOCK))
            counts = np.stack(_level_counts(table.p[cells], table.q[cells], ps.size), axis=1)
            rows, labels = np.nonzero(counts >= need)
            bases = _hyperplane_bases(ps.n, start + rows).tolist()
            hits = zip(counts[rows, labels].tolist(), bases, (labels * r.start).tolist())
            found += [Increment(1, k, tuple(basis), shift) for k, basis, shift in hits]
    return found


def check_increment_sampling(n: int, codim: int, samples: int) -> None:
    """Refuse a sampling plan outside samples >= 1 and 1 <= codim <= n/2."""
    if samples < 1:
        raise ValueError(f"samples {samples} is below 1")
    if codim < 1 or 2 * codim > n:
        raise ValueError(f"codimension {codim} outside 1..n/2")


def sampled_increment_checks(
    spec: SpectrumSet, codim: int, samples: int, seed: int
) -> list[Increment]:
    """Increment spot-checks on subspaces spanned by random spectrum members.

    For each sample, span up to ``codim`` random members of the spectrum,
    take the annihilator as the direction, and check every coset: they
    are the fibers of the span, so one fiber_sizes call counts them all.
    Only cosets that are strong increments are reported, in the order of
    the direction's transversal. check_increment_sampling refuses the
    arguments first.
    """
    base, _, members = spec
    n = base.n
    check_increment_sampling(n, codim, samples)
    found: list[Increment] = []
    for s in range(samples):
        rng = make_rng(seed, 31, s)
        picks = rng.choice(members.indices, size=min(codim, members.size), replace=False)
        w = Subspace.span([TritVector.from_index(n, int(i)) for i in picks], n)
        if w.dim < 1:  # an empty spectrum spans nothing
            continue
        shifts, counts = fiber_sizes(base, w)
        hits = np.flatnonzero(counts >= increment_need(base, w.dim))
        basis = tuple(b.index for b in w.annihilator().basis)
        for k, shift in zip(counts[hits].tolist(), shifts[hits].tolist()):
            found.append(Increment(w.dim, k, basis, shift))
    return found


def subspace_spectrum_stats(
    ps: PointSet, w: Subspace, threshold_c: Fraction | int = 1
) -> tuple[int, int]:
    """(member_count, weight): |Spec on W| and sum of eis_norm(c(x)) over nonzero x in W."""
    need = _spectrum_need(ps, Fraction(threshold_c))
    table = restricted_transform(ps, w)  # W's table alone; cell 0 is x = 0, never a member
    zero = table.norm_at(0)
    count = sum(int(np.count_nonzero(norms >= need)) for _, _, norms in table.norm_blocks())
    return count - (zero >= need), table.norm_total() - zero
