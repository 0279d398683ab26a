"""Level decompositions, pair-graph statistics, and fiber identities.

A difference set splits into dyadic bands by multiplicity: band t holds
the differences x with 2^t <= m(x) < 2^(t+1). Each band induces a graph
on the base set (a is joined to b when a - b lands in the band) and the
graph is determined by the band: its edge count, its neighborhoods, and
the two second-moment statistics below all come from the multiplicity
table alone, the int64 array of m(x) that energy.diff_multiplicity
returns, whose own auto rule picks how it is built.

Naming note: "komity" is the second moment sum_{x,y in D} |G[x] ^ G[y]|
over neighborhood intersections, and "comity" is its refinement into a
histogram by intersection size. The identity komity = sum_a r(a)^2 with
r(a) = #{b in base : a - b in D} turns a quadratic scan into a linear
one; both sides are implemented and tests hold them together.

The fibers of a subspace H split a set by its dot products against H's
basis: they are the cosets of H's annihilator, so their sizes are one
histogram of dot profiles, which spectrum.fiber_sizes reads at a
transversal and the identity below reads whole. The martingale identity
cleared of denominators at scale 3^(2n) * |H| reads

  |H| * sum_{k in K, k != 0} |c(k)|^2
    = sum_v (|H| |A_v| - |A|)^2
      + |H|^2 * sum_v sum_{t in T, t != 0} |c_v(t)|^2

with one v per fiber of H, T a transversal of H inside K, and c_v the
coefficient table of the fiber. Recentering a fiber by -v would multiply
c_v(t) by w^(-v.t) and leave every norm unchanged, so fibers are used as
they are. Both sides are integers and the right side does not depend on
which transversal is chosen.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import bulk, fourier
from .capset import PointSet
from .energy import diff_multiplicity
from .errors import guard
from .fourier import SpectrumTable, restricted_transform
from .gf3core import DENSE_MAX_N, TritVector, plane_add
from .linalg import Subspace

__all__ = [
    "COMITY_GUARD_WORDS",
    "AdditiveStructure",
    "ComityBand",
    "MartingaleReport",
    "build_levels",
    "comity_scan",
    "delta_g",
    "doubling_ratio",
    "fiber_plancherel_check",
    "heaviest_band",
    "komity",
    "komity_reference",
    "span_hull",
]

# |D|^2 * ceil(|base| / 64) words ANDed and counted (1.6e9 words take 9.6 s on
# a 2-core x86_64 VM), and packed rows of at most 143 MB for any base at n <= 14
COMITY_GUARD_WORDS = 1 << 32
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


def heaviest_band(bands: list[AdditiveStructure]) -> AdditiveStructure:
    """The band carrying the most pairs (ties to larger m_lo)."""
    if not bands:
        raise ValueError("empty set has no bands")
    return max(bands, key=lambda s: (s.pair_count, s.m_lo))


def _floor_log2(values: np.ndarray) -> np.ndarray:
    """floor(log2 v) for every v >= 1, in integers: the dyadic band rule.

    The exponent of v is the index of the last power of two <= v.
    """
    return np.searchsorted(_powers_of_two(values), values, side="right") - 1


def _powers_of_two(values: np.ndarray) -> np.ndarray:
    """1, 2, 4, ... up to the largest value: the edges of the dyadic bands."""
    return 1 << np.arange(int(values.max(initial=1)).bit_length(), dtype=np.int64)


def build_levels(ps: PointSet) -> list[AdditiveStructure]:
    """The nonempty dyadic multiplicity bands of a set, ascending by m_lo.

    Bands partition all of D = S - S (the zero difference included, its
    multiplicity is |S|), so pair counts across bands sum to |S|^2.

    The dense multiplicity table is read fourier._BLOCK cells at a time
    into a byte-a-cell band label: floor(log2 m) + 1 by the _floor_log2
    rule, and 0 where m = 0 (m <= |S| < 2^26, so labels fit a uint8).
    Each band's differences are np.flatnonzero of its label, already
    sorted, and its pair count is summed off the table fourier._BLOCK
    differences at a time. Beside the table and the labels, only the
    bands themselves are full size.
    """
    table = diff_multiplicity(ps)
    block = fourier._BLOCK
    edges = _powers_of_two(table)
    labels = np.empty(table.size, dtype=np.uint8)
    for at in range(0, table.size, block):
        labels[at : at + block] = np.searchsorted(edges, table[at : at + block], side="right")
    bands = []
    for k in range(edges.size):
        diffs = np.flatnonzero(labels == k + 1)
        if diffs.size:
            bands.append(AdditiveStructure(
                base=ps,
                diffs=PointSet._from_sorted(ps.n, diffs),
                m_lo=1 << k,
                pair_count=sum(  # every m(x) <= |S|: one int64 sum per block
                    bulk.exact_sum(table[diffs[at : at + block]], ps.size)
                    for at in range(0, diffs.size, block)
                ),
            ))
    return bands


def delta_g(struct: AdditiveStructure, x: TritVector) -> PointSet:
    """Neighborhood of x in the band graph: {a in base : a - x in base}.

    Requires x in D; its size equals m(x) by construction. One gather:
    the base indices whose a - x is a member, so the result keeps the
    base's increasing order.
    """
    if not struct.diffs.contains(x):
        raise ValueError("x is not a difference in this band")
    base = struct.base
    lo, hi = base.planes()
    dlo, dhi = plane_add(lo, hi, x.hi, x.lo)  # a - x, negation by swap
    hit = base.contains_indices(bulk.planes_to_indices(struct.n, dlo, dhi))
    return PointSet._from_sorted(struct.n, base.indices[hit])


def _reach_counts(struct: AdditiveStructure) -> np.ndarray:
    """r(a) = #{b in base : a - b in D} for each a in base, int64."""
    lo, hi = struct.base.planes()
    r = np.zeros(struct.base.size, dtype=np.int64)
    for start, stop, idx in bulk.pair_sums(struct.n, (lo, hi), (hi, lo)):
        r[start:stop] = struct.diffs.contains_indices(idx).sum(axis=1)
    return r


def komity(struct: AdditiveStructure) -> int:
    """sum over x, y in D of |G[x] ^ G[y]|, by the linear identity."""
    return bulk.exact_sum(_reach_counts(struct) ** 2)  # r(a) <= |base| < 2^26: squares < 2^52


def komity_reference(struct: AdditiveStructure) -> int:
    """The same second moment by its definition, for cross-checking."""
    guard("reference komity size", struct.diffs.size, _REFERENCE_GUARD)
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


def comity_scan(struct: AdditiveStructure) -> list[ComityBand]:
    """Histogram of neighborhood-intersection sizes over all x, y in D.

    Empty intersections are dropped (they carry no mass); the masses of
    all bands add up to the komity. The scan ANDs |D|^2 pairs of rows of
    ceil(|base| / 64) words each, and that word count is guarded before
    the rows are allocated.
    """
    d = struct.diffs.size
    base = struct.base
    words = -(-base.size // 64)
    guard("comity scan words", d * d * words, COMITY_GUARD_WORDS)
    # row k is G[x_k] = {a in base : a - x_k in base}, packed into 64-bit words
    nbytes = -(-base.size // 8)
    rows = np.zeros((d, 8 * words), dtype=np.uint8)
    dlo, dhi = struct.diffs.planes()
    for start, stop, idx in bulk.pair_sums(struct.n, (dhi, dlo), base.planes()):
        rows[start:stop, :nbytes] = np.packbits(base.contains_indices(idx), axis=1)
    rows = rows.view(np.uint64)
    # hist[s] = number of ordered pairs (x, y) with |G[x] ^ G[y]| = s
    hist = np.zeros(base.size + 1, dtype=np.int64)
    step = max(1, bulk._PAIR_CELLS // max(1, d * words))
    for start in range(0, d, step):
        common = np.bitwise_count(rows[start:start + step, None, :] & rows[None, :, :])
        hist += np.bincount(common.sum(axis=2, dtype=np.int64).ravel(), minlength=hist.size)
    sizes = np.flatnonzero(hist[1:]) + 1
    pairs = hist[sizes]
    masses = sizes * pairs
    t = _floor_log2(sizes)
    return [
        ComityBand(
            size_lo=1 << k,
            pair_count=bulk.exact_sum(pairs[t == k]),
            mass=bulk.exact_sum(masses[t == k]),
        )
        for k in np.unique(t).tolist()
    ]


def doubling_ratio(ps: PointSet) -> Fraction:
    """|S - S| / |S|, exact, from a dense table of 3^n cells."""
    if ps.size == 0:
        raise ValueError("doubling of the empty set is undefined")
    guard("dense doubling table dimension", ps.n, DENSE_MAX_N)
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

    The left sides are restricted_transform on K and on H. The right
    side is one histogram of dot profiles against H's basis and then T =
    h.extension_to(k): row v (the leading dim H digits) is fiber v's
    profile against T, its sum is |A_v|, and one transform over the
    trailing dim T digits makes it c_v, zero cell first. No 3^n table is
    built and only dim K meets the transform guard, before anything of
    size 3^dim K is allocated. K's table is dropped before the histogram
    is built, so at most two arrays of 3^dim K cells live at once.
    """
    if h.n != ps.n or k.n != ps.n:
        raise ValueError("subspace dimension differs from the set")
    if not k.contains_subspace(h):
        raise ValueError("H must be contained in K")
    size_h = h.size()
    whole = restricted_transform(ps, k)
    lhs = size_h * (whole.norm_total() - whole.norm_at(0))
    del whole
    raw_lhs = restricted_transform(ps, h).norm_total()

    hist = bulk.dot_histogram(*ps.planes(), [*h.basis, *h.extension_to(k)])
    sizes = hist.reshape(size_h, -1).sum(axis=1).tolist()
    h_term = sum((size_h * size - ps.size) ** 2 for size in sizes)
    raw_rhs = size_h * sum(size**2 for size in sizes)

    dim_t = k.dim - h.dim
    fibers = fourier.transform_table(hist, k.dim, digits=dim_t)
    zeros = SpectrumTable(h.dim, fibers.p[:: 3**dim_t], fibers.q[:: 3**dim_t])
    fiber_term = size_h**2 * (fibers.norm_total() - zeros.norm_total())

    return MartingaleReport(
        dim_h=h.dim, dim_k=k.dim, lhs=lhs, rhs=h_term + fiber_term,
        h_term=h_term, fiber_term=fiber_term, raw_lhs=raw_lhs, raw_rhs=raw_rhs,
    )
