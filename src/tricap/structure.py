"""Level decompositions, pair-graph statistics, and fiber identities.

A difference set splits into dyadic bands by multiplicity: band t holds
the differences x with 2^t <= m(x) < 2^(t+1). Each band induces a graph
on the base set (a is joined to b when a - b lands in the band) and the
graph is determined by the band: its edge count, its neighborhoods, and
the two second-moment statistics below all come from the multiplicity
map alone.

Naming note: "komity" is the second moment sum_{x,y in D} |G[x] ^ G[y]|
over neighborhood intersections, and "comity" is its refinement into a
histogram by intersection size. The identity komity = sum_a r(a)^2 with
r(a) = #{b in base : a - b in D} turns a quadratic scan into a linear
one; both sides are implemented and tests hold them together.

Fiber decompositions split a set by its dot products against a subspace
basis. The martingale identity cleared of denominators at scale
3^(2n) * |H| reads

  |H| * sum_{k in K, k != 0} |c(k)|^2
    = sum_v (|H| |A_v| - |A|)^2
      + |H|^2 * sum_v sum_{t in T, t != 0} |c_v(t)|^2

with one v per fiber of H, T a transversal of H inside K, and c_v the
coefficient table of the recentered fiber. Both sides are integers and
the right side does not depend on which transversal is chosen.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
import math

import numpy as np

from . import bulk
from .capset import PointSet
from .energy import MultiplicityMap, diff_multiplicity
from .errors import GuardExceededError, IdentityViolationError
from .fourier import eval_at
from .gf3core import TritVector, plane_add
from .linalg import Subspace

__all__ = [
    "COMITY_GUARD_SIZE",
    "AdditiveStructure",
    "BsgProbe",
    "ComityBand",
    "FiberDecomposition",
    "LevelDecomposition",
    "MartingaleReport",
    "bsg_probe",
    "build_levels",
    "comity_scan",
    "decompose_fibers",
    "delta_g",
    "doubling_ratio",
    "fiber_plancherel_check",
    "komity",
    "komity_reference",
    "span_hull",
]

COMITY_GUARD_SIZE = 4096
_REFERENCE_GUARD = 256


@dataclass(frozen=True)
class AdditiveStructure:
    """One dyadic band: the differences D and the induced pair graph G."""

    base: PointSet
    diffs: PointSet
    m_lo: int  # band is m_lo <= m(x) < 2 * m_lo
    pair_count: int  # |G| = sum of m(x) over the band

    @property
    def n(self) -> int:
        return self.base.n

    @property
    def band_exponent(self) -> float:
        """alpha with m_lo = n^(1 + alpha), report-only."""
        if self.base.n < 2:
            return float("nan")
        return math.log(self.m_lo) / math.log(self.base.n) - 1.0


class LevelDecomposition:
    """All nonempty bands of a difference set, ascending by multiplicity."""

    __slots__ = ("base", "multiplicity", "bands")

    def __init__(self, base: PointSet, multiplicity: MultiplicityMap,
                 bands: list[AdditiveStructure]):
        self.base = base
        self.multiplicity = multiplicity
        self.bands = bands

    def heaviest(self) -> AdditiveStructure:
        """The band carrying the most pairs (ties to larger m_lo)."""
        if not self.bands:
            raise ValueError("empty set has no bands")
        return max(self.bands, key=lambda s: (s.pair_count, s.m_lo))

    def __iter__(self):
        return iter(self.bands)

    def __len__(self) -> int:
        return len(self.bands)


def build_levels(ps: PointSet, backend: str = "auto") -> LevelDecomposition:
    """Split the differences of a set into dyadic multiplicity bands.

    Bands partition all of D = S - S (the zero difference included, its
    multiplicity is |S|), so pair counts across bands sum to |S|^2.
    """
    mm = diff_multiplicity(ps, backend=backend)
    by_band: dict[int, list[int]] = {}
    weight: dict[int, int] = {}
    for idx, cnt in mm.counts.items():
        t = cnt.bit_length() - 1
        by_band.setdefault(t, []).append(idx)
        weight[t] = weight.get(t, 0) + cnt
    bands = [
        AdditiveStructure(
            base=ps,
            diffs=PointSet(ps.n, np.array(sorted(by_band[t]), dtype=np.int64)),
            m_lo=1 << t,
            pair_count=weight[t],
        )
        for t in sorted(by_band)
    ]
    return LevelDecomposition(ps, mm, bands)


def delta_g(struct: AdditiveStructure, x: TritVector) -> PointSet:
    """Neighborhood of x in the band graph: {a in base : a - x in base}.

    Requires x in D; its size equals m(x) by construction.
    """
    if not struct.diffs.contains(x):
        raise ValueError("x is not a difference in this band")
    shifted = struct.base.translate(x)
    common = np.intersect1d(struct.base.indices, shifted.indices)
    return PointSet(struct.n, common)


def _reach_counts(struct: AdditiveStructure) -> np.ndarray:
    """r(a) = #{b in base : a - b in D} for each a in base, int64."""
    lo, hi = struct.base.planes()
    r = np.zeros(struct.base.size, dtype=np.int64)
    for start, stop, idx in bulk.pair_sums(struct.n, (lo, hi), (hi, lo)):
        r[start:stop] = struct.diffs.contains_indices(idx).sum(axis=1)
    return r


def komity(struct: AdditiveStructure) -> int:
    """sum over x, y in D of |G[x] ^ G[y]|, by the linear identity."""
    return sum(int(v) ** 2 for v in _reach_counts(struct))


def komity_reference(struct: AdditiveStructure) -> int:
    """The same second moment by its definition, for cross-checking."""
    if struct.diffs.size > _REFERENCE_GUARD:
        raise GuardExceededError(
            "reference komity size", struct.diffs.size, _REFERENCE_GUARD
        )
    hoods = [
        set(delta_g(struct, v).indices.tolist()) for v in struct.diffs.vectors()
    ]
    total = 0
    for hx in hoods:
        for hy in hoods:
            total += len(hx & hy)
    return total


@dataclass(frozen=True)
class ComityBand:
    """Intersection sizes with the same dyadic floor, aggregated."""

    size_lo: int  # band is size_lo <= |G[x] ^ G[y]| < 2 * size_lo
    pair_count: int
    mass: int  # total intersection size over the band


def comity_scan(struct: AdditiveStructure, force: bool = False) -> list[ComityBand]:
    """Histogram of neighborhood-intersection sizes over all x, y in D.

    Empty intersections are dropped (they carry no mass); the masses of
    all bands add up to the komity. Quadratic in |D|, guarded.
    """
    d = struct.diffs.size
    if d > COMITY_GUARD_SIZE and not force:
        raise GuardExceededError("comity scan size", d, COMITY_GUARD_SIZE)
    base = struct.base
    pos = {int(i): k for k, i in enumerate(base.indices)}
    masks: list[int] = []
    for v in struct.diffs.vectors():
        bits = 0
        for i in delta_g(struct, v).indices.tolist():
            bits |= 1 << pos[i]
        masks.append(bits)
    acc: dict[int, list[int]] = {}
    for mx in masks:
        for my in masks:
            s = (mx & my).bit_count()
            if s:
                t = s.bit_length() - 1
                cell = acc.get(t)
                if cell is None:
                    acc[t] = [1, s]
                else:
                    cell[0] += 1
                    cell[1] += s
    return [
        ComityBand(size_lo=1 << t, pair_count=acc[t][0], mass=acc[t][1])
        for t in sorted(acc)
    ]


def doubling_ratio(ps: PointSet) -> Fraction:
    """|S - S| / |S|, exact."""
    if ps.size == 0:
        raise ValueError("doubling of the empty set is undefined")
    lo, hi = ps.planes()
    seen = np.zeros(3**ps.n, dtype=bool)
    for _, _, idx in bulk.pair_sums(ps.n, (lo, hi), (hi, lo)):
        seen[idx.ravel()] = True
    return Fraction(int(seen.sum()), ps.size)


def span_hull(ps: PointSet) -> tuple[Subspace, Fraction]:
    """Linear span of the set and the fill ratio |span| / |S|."""
    if ps.size == 0:
        return Subspace.zero(ps.n), Fraction(0)
    span = Subspace.span(list(ps.vectors()), ps.n)
    return span, Fraction(span.size(), ps.size)


class FiberDecomposition:
    """A set split by dot products against a subspace basis.

    Fibers are keyed by representatives v drawn from a transversal of
    the annihilator of H, one per point of the quotient by H-cosets in
    the functional sense: a lands in fiber v exactly when a.h = v.h for
    every h in H. Every point lands in exactly one fiber; empty fibers
    are kept so there are always 3^dim(H) of them.
    """

    __slots__ = ("base", "h", "reps", "fibers")

    def __init__(self, base: PointSet, h: Subspace, reps: list[TritVector],
                 fibers: list[PointSet]):
        self.base = base
        self.h = h
        self.reps = reps
        self.fibers = fibers

    @property
    def fiber_count(self) -> int:
        return len(self.fibers)

    def items(self):
        return zip(self.reps, self.fibers)

    def sizes(self) -> list[int]:
        return [f.size for f in self.fibers]


def decompose_fibers(ps: PointSet, h: Subspace) -> FiberDecomposition:
    if h.n != ps.n:
        raise ValueError("subspace dimension differs from the set")
    reps = list(h.annihilator().transversal().enumerate_points())
    key_of: dict[tuple[int, ...], int] = {}
    for k, v in enumerate(reps):
        key_of[tuple(v.dot(b) for b in h.basis)] = k
    if len(key_of) != len(reps):
        raise IdentityViolationError("fiber keys", len(key_of), len(reps))
    buckets: list[list[int]] = [[] for _ in reps]
    lo, hi = ps.planes()
    if ps.size:
        dots = np.stack(
            [bulk.dots_with(lo, hi, b) for b in h.basis], axis=1
        ) if h.dim else np.zeros((ps.size, 0), dtype=np.int64)
        for row, idx in zip(map(tuple, dots.tolist()), ps.indices.tolist()):
            buckets[key_of[tuple(row)]].append(idx)
    fibers = [PointSet(ps.n, np.array(sorted(b), dtype=np.int64)) for b in buckets]
    return FiberDecomposition(ps, h, reps, fibers)


@dataclass(frozen=True)
class MartingaleReport:
    """Both sides of the fiber identity, plus the zero-frequency form.

    lhs/rhs is the mean-zero identity described in the module docstring.
    raw_lhs/raw_rhs is the companion at frequency set H itself,
    sum_{h in H} |c(h)|^2 = |H| * sum_v |A_v|^2, which pins the fiber
    sizes down independently of the recentered tables.
    """

    dim_h: int
    dim_k: int
    lhs: int
    rhs: int
    h_term: int
    fiber_term: int
    raw_lhs: int
    raw_rhs: int

    @property
    def holds(self) -> bool:
        return self.lhs == self.rhs and self.raw_lhs == self.raw_rhs


def fiber_plancherel_check(ps: PointSet, h: Subspace, k: Subspace) -> MartingaleReport:
    """Evaluate both sides of the fiber identity exactly.

    Requires H <= K. With K = H the transversal sum is empty and the
    identity degenerates to the zero-frequency form, which is still a
    real check because the left side comes from the coefficient table
    and the right side from fiber sizes.
    """
    if h.n != ps.n or k.n != ps.n:
        raise ValueError("subspace dimension differs from the set")
    if not k.contains_subspace(h):
        raise ValueError("H must be contained in K")
    size_h = h.size()
    dec = decompose_fibers(ps, h)

    lhs = 0
    raw_lhs = 0
    for freq in k.enumerate_points():
        nrm = eval_at(ps, freq).norm()
        if not freq.is_zero():
            lhs += nrm
        if h.contains(freq):
            raw_lhs += nrm
    lhs *= size_h

    h_term = 0
    raw_rhs = 0
    for fiber in dec.fibers:
        h_term += (size_h * fiber.size - ps.size) ** 2
        raw_rhs += fiber.size**2
    raw_rhs *= size_h

    ext = Subspace.span(h.extension_to(k), ps.n)
    fiber_term = 0
    for rep, fiber in dec.items():
        if fiber.size == 0:
            continue
        recentered = fiber.translate(-rep)
        for t in ext.enumerate_points():
            if t.is_zero():
                continue
            fiber_term += eval_at(recentered, t).norm()
    fiber_term *= size_h**2

    return MartingaleReport(
        dim_h=h.dim,
        dim_k=k.dim,
        lhs=lhs,
        rhs=h_term + fiber_term,
        h_term=h_term,
        fiber_term=fiber_term,
        raw_lhs=raw_lhs,
        raw_rhs=raw_rhs,
    )


@dataclass(frozen=True)
class BsgProbe:
    """Greedy coverage probe; a heuristic witness, never a certificate."""

    kernel_size: int
    center_count: int
    covered: int
    coverage: Fraction


def bsg_probe(b: PointSet, c: PointSet, kernel_size: int | None = None,
              max_centers: int = 8) -> BsgProbe:
    """Cover B by a few translates of a kernel of popular C-differences.

    The kernel keeps the kernel_size most frequent differences of C
    (ties broken by index); centers are chosen greedily from B to
    maximize newly covered points. Purely a diagnostic: reported
    coverage is a lower bound for the best possible, nothing more.
    """
    if b.n != c.n:
        raise ValueError("the two sets live in different dimensions")
    if b.size == 0 or c.size == 0:
        return BsgProbe(0, 0, 0, Fraction(0))
    if kernel_size is None:
        kernel_size = c.size
    mm = diff_multiplicity(c)
    order = sorted(mm.counts.items(), key=lambda kv: (-kv[1], kv[0]))
    kernel = PointSet(
        b.n, np.array(sorted(i for i, _ in order[:kernel_size]), dtype=np.int64)
    )
    klo, khi = kernel.planes()
    covered = np.zeros(b.size, dtype=bool)
    centers = 0
    for _ in range(max_centers):
        best_gain = 0
        best_hits: np.ndarray | None = None
        for x in b.vectors():
            slo, shi = plane_add(klo, khi, np.int64(x.lo), np.int64(x.hi))
            idx = bulk.planes_to_indices(b.n, slo, shi)
            hits = b.contains_indices(idx)
            reach = np.zeros(b.size, dtype=bool)
            reach[np.searchsorted(b.indices, idx[hits])] = True
            gain = int((reach & ~covered).sum())
            if gain > best_gain:
                best_gain = gain
                best_hits = reach
        if best_hits is None:
            break
        covered |= best_hits
        centers += 1
        if covered.all():
            break
    return BsgProbe(
        kernel_size=kernel.size,
        center_count=centers,
        covered=int(covered.sum()),
        coverage=Fraction(int(covered.sum()), b.size),
    )
