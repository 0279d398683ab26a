"""Point sets in F_3^n and cap-set construction.

A cap set contains no three distinct points summing to zero. The greedy
generator keeps the classic incremental invariant: a bitmap of every
point -(a+b) over pairs already accepted, so each candidate is one array
lookup and each acceptance is one vectorized pass over the members.

PointSet stores canonical sorted indices; packed bit-plane arrays and a
membership bitmap are derived lazily. All arithmetic is exact int64 (no
value here ever approaches 2^63).
"""

from __future__ import annotations

import os
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from . import bulk
from .errors import DimensionMismatchError, GuardExceededError, SetFileError
from .gf3core import MAX_DIM, Density, TritVector, plane_add
from .rng import make_rng

__all__ = [
    "EXHAUSTIVE_GUARD_N",
    "GREEDY_GUARD_N",
    "PointSet",
    "count_line_solutions",
    "exhaustive_max_capset",
    "greedy_random_capset",
    "is_capset",
    "load_point_set",
    "product_capset",
    "random_point_set",
    "save_point_set",
]

GREEDY_GUARD_N = 16
EXHAUSTIVE_GUARD_N = 4  # the combinatorial wall; n=5 is out of desk range
_BITMAP_GUARD_N = 16


class PointSet:
    """Deduplicated, canonically ordered set of points in F_3^n."""

    __slots__ = ("n", "indices", "_planes", "_bitmap")

    def __init__(self, n: int, indices: np.ndarray | Sequence[int]):
        if not 1 <= n <= MAX_DIM:
            raise ValueError(f"dimension {n} outside 1..{MAX_DIM}")
        # sort plus an adjacent-duplicate mask gives np.unique's result; numpy's
        # np.unique is hash-based and far slower on millions of members
        idx = np.sort(np.asarray(indices, dtype=np.int64), axis=None)
        if idx.size > 1:
            fresh = np.empty(idx.size, dtype=bool)
            fresh[0] = True
            np.not_equal(idx[1:], idx[:-1], out=fresh[1:])
            if not fresh.all():
                idx = idx[fresh]
        if idx.size and (idx[0] < 0 or idx[-1] >= 3**n):
            raise ValueError("point index outside F_3^n")
        self.n = n
        self.indices = idx
        self.indices.setflags(write=False)
        self._planes: tuple[np.ndarray, np.ndarray] | None = None
        self._bitmap: np.ndarray | None = None

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_vectors(cls, vectors: Iterable[TritVector]) -> "PointSet":
        vs = list(vectors)
        if not vs:
            raise ValueError("cannot infer dimension from an empty iterable")
        n = vs[0].n
        for v in vs:
            if v.n != n:
                raise DimensionMismatchError(f"{v.n} != {n}")
        return cls(n, [v.index for v in vs])

    @classmethod
    def from_strings(cls, strings: Iterable[str]) -> "PointSet":
        return cls.from_vectors(TritVector.from_string(s) for s in strings)

    @classmethod
    def empty(cls, n: int) -> "PointSet":
        return cls(n, [])

    @classmethod
    def full_space(cls, n: int) -> "PointSet":
        if n > _BITMAP_GUARD_N:
            raise GuardExceededError(f"3^{n} points is beyond desk scale")
        return cls(n, np.arange(3**n, dtype=np.int64))

    # -- views -----------------------------------------------------------

    @property
    def size(self) -> int:
        return int(self.indices.size)

    def density(self) -> Density:
        return Density(self.size, self.n)

    def planes(self) -> tuple[np.ndarray, np.ndarray]:
        if self._planes is None:
            lo, hi = bulk.indices_to_planes(self.n, self.indices)
            lo.setflags(write=False)
            hi.setflags(write=False)
            self._planes = (lo, hi)
        return self._planes

    def bitmap(self) -> np.ndarray:
        """Dense membership array over all 3^n indices (n <= 16 only)."""
        if self.n > _BITMAP_GUARD_N:
            raise GuardExceededError(f"dense bitmap over 3^{self.n} refused")
        if self._bitmap is None:
            bm = np.zeros(3**self.n, dtype=bool)
            bm[self.indices] = True
            bm.setflags(write=False)
            self._bitmap = bm
        return self._bitmap

    def contains_indices(self, idx: np.ndarray) -> np.ndarray:
        """Vectorized membership test for an int64 index array."""
        if self.n <= _BITMAP_GUARD_N:
            return self.bitmap()[idx]
        pos = np.searchsorted(self.indices, idx)
        pos_clipped = np.minimum(pos, self.indices.size - 1)
        if self.indices.size == 0:
            return np.zeros(idx.shape, dtype=bool)
        return self.indices[pos_clipped] == idx

    def contains(self, v: TritVector) -> bool:
        if v.n != self.n:
            raise DimensionMismatchError(f"{v.n} != {self.n}")
        i = np.searchsorted(self.indices, v.index)
        return bool(i < self.indices.size and self.indices[i] == v.index)

    def vectors(self) -> list[TritVector]:
        return [TritVector.from_index(self.n, int(i)) for i in self.indices]

    def translate(self, v: TritVector) -> "PointSet":
        if v.n != self.n:
            raise DimensionMismatchError(f"{v.n} != {self.n}")
        lo, hi = self.planes()
        slo, shi = plane_add(lo, hi, v.lo, v.hi)
        return PointSet(self.n, bulk.planes_to_indices(self.n, slo, shi))

    def negate(self) -> "PointSet":
        lo, hi = self.planes()
        return PointSet(self.n, bulk.planes_to_indices(self.n, hi, lo))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PointSet):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.indices, other.indices)

    def __len__(self) -> int:
        return self.size

    def __iter__(self):
        return iter(self.vectors())

    def __repr__(self) -> str:
        return f"PointSet(n={self.n}, size={self.size})"


# -- set files -------------------------------------------------------------


def save_point_set(ps: PointSet, path: str | os.PathLike) -> None:
    """Write the canonical text form: header line, one point per line."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"n={ps.n}\n")
        for v in ps.vectors():
            fh.write(str(v) + "\n")


def load_point_set(path: str | os.PathLike) -> PointSet:
    """Read a set file; malformed lines and duplicates are hard errors."""
    with open(path, "r", encoding="ascii") as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    while lines and lines[-1] == "":
        lines.pop()
    if not lines or not lines[0].startswith("n="):
        raise SetFileError("first line must be n=<dim>")
    try:
        n = int(lines[0][2:])
    except ValueError:
        raise SetFileError(f"bad dimension in header {lines[0]!r}") from None
    if not 1 <= n <= MAX_DIM:
        raise SetFileError(f"dimension {n} outside 1..{MAX_DIM}")
    seen: set[int] = set()
    idx = []
    for lineno, ln in enumerate(lines[1:], start=2):
        if len(ln) != n or any(c not in "012" for c in ln):
            raise SetFileError(f"line {lineno}: {ln!r} is not a base-3 string of length {n}")
        i = int(ln, 3)
        if i in seen:
            raise SetFileError(f"line {lineno}: duplicate point {ln!r}")
        seen.add(i)
        idx.append(i)
    return PointSet(n, idx)


# -- line solutions ---------------------------------------------------------


def _upper_pair_hits(ps: PointSet):
    """Per row block [start, stop): whether -(a+b) is a member, for every
    member a in the block and every member b from index start on.

    The blocks are ``bulk.pair_sums`` with upper=True: the first
    stop - start columns are the diagonal block, the rest lie strictly
    above it. -(a+b) is (-a) + (-b), both operands negated by swapping
    their planes.
    """
    lo, hi = ps.planes()
    for start, stop, third in bulk.pair_sums(ps.n, (hi, lo), (hi, lo), upper=True):
        yield start, stop, ps.contains_indices(third)


def count_line_solutions(ps: PointSet) -> int:
    """Ordered triples (a, b, c) in A^3 with a + b + c = 0.

    Counts the degenerate a = b = c triples, so a cap set scores exactly
    |A|. (a, b) and (b, a) close at the same third point, so each diagonal
    block is counted in full and each strictly-upper block twice; the cost
    is |A|^2 / 2 pairs, vectorized in blocks.
    """
    total = 0
    for start, stop, hits in _upper_pair_hits(ps):
        diag = int(np.count_nonzero(hits[:, : stop - start]))
        total += diag + 2 * int(np.count_nonzero(hits[:, stop - start :]))
    return total


def is_capset(ps: PointSet) -> bool:
    """True iff no three distinct points of the set sum to zero."""
    if ps.size < 3:
        return True
    for start, stop, hits in _upper_pair_hits(ps):
        # a == b gives the degenerate triple (a, a, a); mask the diagonal
        rows = np.arange(stop - start)
        hits[rows, rows] = False
        if hits.any():
            return False
    return True


# -- generators --------------------------------------------------------------


def random_point_set(
    n: int, size: int, seed: int | np.random.Generator, *stream: int
) -> PointSet:
    """Uniform random subset of F_3^n with the given size."""
    if size > 3**n:
        raise ValueError(f"cannot pick {size} distinct points from 3^{n}")
    rng = seed if isinstance(seed, np.random.Generator) else make_rng(seed, *stream)
    idx = rng.choice(3**n, size=size, replace=False)
    return PointSet(n, idx)


def greedy_random_capset(n: int, seed: int) -> PointSet:
    """Maximal cap set grown over a seeded shuffle of all points.

    Every point is visited once; a point joins unless it completes a line
    with two current members. The result is maximal: any point outside
    was rejected against a subset of the final set. Memory is O(3^n);
    n = 16 needs roughly a gigabyte and a minute.
    """
    if not 1 <= n <= GREEDY_GUARD_N:
        raise GuardExceededError(f"greedy generation guard is n <= {GREEDY_GUARD_N}")
    rng = make_rng(seed)
    order = rng.permutation(3**n)
    forbidden = np.zeros(3**n, dtype=bool)
    cap = 1024
    mem_lo = np.zeros(cap, dtype=np.int64)
    mem_hi = np.zeros(cap, dtype=np.int64)
    m = 0
    accepted: list[int] = []
    chunk = 1 << 14
    for cstart in range(0, order.size, chunk):
        cblock = order[cstart : cstart + chunk]
        for idx in cblock[~forbidden[cblock]]:
            if forbidden[idx]:  # may have flipped since the chunk prefilter
                continue
            v = TritVector.from_index(n, int(idx))
            if m:
                slo, shi = plane_add(mem_lo[:m], mem_hi[:m], v.lo, v.hi)
                forbidden[bulk.planes_to_indices(n, shi, slo)] = True
            if m == cap:
                cap *= 2
                mem_lo = np.resize(mem_lo, cap)
                mem_hi = np.resize(mem_hi, cap)
            mem_lo[m] = v.lo
            mem_hi[m] = v.hi
            m += 1
            accepted.append(int(idx))
    return PointSet(n, accepted)


def product_capset(a: PointSet, b: PointSet) -> PointSet:
    """Coordinate-concatenation product; products of caps are caps."""
    n = a.n + b.n
    if n > MAX_DIM:
        raise GuardExceededError(f"product dimension {n} exceeds {MAX_DIM}")
    scale = 3**b.n
    combined = (a.indices[:, None] * scale + b.indices[None, :]).ravel()
    return PointSet(n, combined)


# -- exhaustive search --------------------------------------------------------


def _search_max(n: int, smaller_max: int, seed_size: int) -> tuple[int, list[int]]:
    """Branch-and-bound over lexicographically ordered point indices.

    Any cap of size >= 3 has an affine image containing 0, 0..01, 0..10
    (three points of a cap are never collinear), so for n >= 2 the search
    roots at that prefix; n = 1 roots at {0, 1}. The bound splits
    candidates across the three cosets of the first coordinate: each
    coset meets a cap in at most ``smaller_max`` points.
    """
    size = 3**n
    third = [[0] * size for _ in range(size)]
    vecs = [TritVector.from_index(n, i) for i in range(size)]
    for i in range(size):
        for j in range(i, size):
            t = (-(vecs[i] + vecs[j])).index
            third[i][j] = t
            third[j][i] = t

    coset_masks = [0, 0, 0]
    step = 3 ** (n - 1)
    for i in range(size):
        coset_masks[i // step] |= 1 << i

    if n == 1:
        prefix = [0, 1]
    else:
        prefix = [0, 1, 3]
    fb = 0
    for i, p in enumerate(prefix):
        for s in prefix[:i]:
            fb |= 1 << third[p][s]
    start_cand = 0
    for i in range(prefix[-1] + 1, size):
        start_cand |= 1 << i
    start_cand &= ~fb

    best = max(seed_size, len(prefix))
    best_set: list[int] = []
    cm0, cm1, cm2 = coset_masks

    def dfs(cand: int, members: list[int]) -> None:
        nonlocal best, best_set
        cur = len(members)
        if cur > best or (cur == best and not best_set):
            best = cur
            best_set = list(members)
        while cand:
            room = (
                min((cand & cm0).bit_count() + _coset_count(members, 0, step), smaller_max)
                + min((cand & cm1).bit_count() + _coset_count(members, 1, step), smaller_max)
                + min((cand & cm2).bit_count() + _coset_count(members, 2, step), smaller_max)
            )
            if room <= best and best_set:
                return
            p = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            row = third[p]
            fb_new = 0
            for s in members:
                fb_new |= 1 << row[s]
            members.append(p)
            dfs(cand & ~fb_new, members)
            members.pop()

    dfs(start_cand, list(prefix))
    return best, best_set


def _coset_count(members: list[int], c: int, step: int) -> int:
    return sum(1 for m in members if m // step == c)


_SUB = 27  # point count of the layer space F_3^3 used by the n = 4 search


@lru_cache(maxsize=1)
def _layer_tables() -> tuple[np.ndarray, dict[int, np.ndarray], list[list[int]]]:
    """Tables for the layered n = 4 search, built once per process.

    Returns the third-point table of F_3^3 (third[a][b] is the index of
    -(a+b), so a line through a and b closes at third[a][b]), every cap
    of F_3^3 canonicalized to the lexicographically smallest of its 27
    translates and grouped by size, and the same third table as bitmask
    rows for the tiny completion search.
    """
    idx = np.arange(_SUB)
    digs = [idx % 3, (idx // 3) % 3, (idx // 9) % 3]
    third = np.zeros((_SUB, _SUB), dtype=np.int64)
    for a in range(_SUB):
        t = np.zeros(_SUB, dtype=np.int64)
        for j, col in enumerate(digs):
            t += ((-((a // 3**j) % 3 + col)) % 3) * 3**j
        third[a] = t

    # every cap, size by size; forb carries the closed third points
    mask = np.uint32(1) << np.arange(_SUB, dtype=np.uint32)
    forb = np.zeros(_SUB, dtype=np.uint32)
    last = np.arange(_SUB, dtype=np.uint8)
    by_size: dict[int, np.ndarray] = {1: mask.copy()}
    for s in range(1, 9):
        nm, nf, nl = [], [], []
        for p in range(_SUB):
            bit = np.uint32(1 << p)
            el = (last < p) & ((mask | forb) & bit == 0)
            if not el.any():
                continue
            m_sel, f_sel = mask[el], forb[el]
            add = np.zeros(m_sel.shape, dtype=np.uint32)
            for a in range(p):
                has = (m_sel >> np.uint32(a)) & np.uint32(1)
                add |= has.astype(np.uint32) << np.uint32(third[a, p])
            nm.append(m_sel | bit)
            nf.append(f_sel | add)
            nl.append(np.full(m_sel.shape, p, dtype=np.uint8))
        if not nm:
            break
        mask, forb, last = map(np.concatenate, (nm, nf, nl))
        by_size[s + 1] = mask.copy()

    add_table = np.zeros((_SUB, _SUB), dtype=np.int64)
    for t in range(_SUB):
        row = np.zeros(_SUB, dtype=np.int64)
        for j, col in enumerate(digs):
            row += (((t // 3**j) % 3 + col) % 3) * 3**j
        add_table[t] = row

    weights = np.uint32(1) << np.arange(_SUB, dtype=np.uint32)

    def lexmin_translates(masks: np.ndarray) -> np.ndarray:
        bits = ((masks[:, None] >> np.arange(_SUB, dtype=np.uint32)) & 1).astype(bool)
        best = masks.copy()
        for t in range(1, _SUB):
            neg = int(third[t, 0])  # third(t, 0) = -t
            cand = (bits[:, add_table[neg]] * weights).sum(axis=1, dtype=np.uint64)
            best = np.minimum(best, cand.astype(np.uint32))
        return np.unique(best)

    canon = {s: lexmin_translates(m) for s, m in by_size.items()}
    third_masks = [[1 << int(third[a, b]) for b in range(_SUB)] for a in range(_SUB)]
    return third, canon, third_masks


def _cap_within(allowed: int, k: int, third_masks: list[list[int]],
                lowest: int = 0, cur: list[int] | None = None, fb: int = 0) -> list[int] | None:
    """A k-point cap inside the allowed bitmask, or None."""
    if cur is None:
        cur = []
    if len(cur) >= k:
        return list(cur)
    rem = (allowed & ~fb) >> lowest
    if len(cur) + rem.bit_count() < k:
        return None
    p = lowest
    while rem:
        if rem & 1:
            nf = fb
            for a in cur:
                nf |= third_masks[a][p]
            cur.append(p)
            r = _cap_within(allowed, k, third_masks, p + 1, cur, nf)
            if r:
                return r
            cur.pop()
        rem >>= 1
        p += 1
    return None


def _layered_realize(total: int, layer_max: int) -> list[int] | None:
    """A cap of the given size in F_3^4 assembled layer by layer, or None.

    Complete case split: relabeling the first coordinate sorts the three
    layer sizes, a translation puts layer 0 in lexmin form, and a shear
    (adding x0 * d to the tail coordinates) independently puts layer 1 in
    lexmin form while fixing layer 0. Layer 2 is searched in full within
    the points no cross-line forbids, so every cap of the target size is
    reachable from some enumerated configuration.
    """
    third, canon, third_masks = _layer_tables()
    weights = np.uint32(1) << np.arange(_SUB, dtype=np.uint32)
    for s0 in range(min(layer_max, total), 0, -1):
        for s1 in range(min(s0, total - s0), -1, -1):
            s2 = total - s0 - s1
            if not 0 <= s2 <= s1:
                continue
            if (s0 not in canon) or (s1 and s1 not in canon):
                continue
            l1_masks = canon[s1] if s1 else np.zeros(1, dtype=np.uint32)
            l1_bits = ((l1_masks[:, None] >> np.arange(_SUB, dtype=np.uint32)) & 1).astype(bool)
            for m0 in canon[s0]:
                pts0 = [c for c in range(_SUB) if (int(m0) >> c) & 1]
                blocked = np.zeros(l1_bits.shape, dtype=bool)
                for a in pts0:
                    blocked |= l1_bits[:, third[a]]
                open_bits = ~blocked
                enough = open_bits.sum(axis=1) >= s2
                for row in np.nonzero(enough)[0]:
                    allowed = int((open_bits[row] * weights).sum(dtype=np.uint64))
                    got = [] if s2 == 0 else _cap_within(allowed, s2, third_masks)
                    if got is None:
                        continue
                    pts1 = [c for c in range(_SUB) if (int(l1_masks[row]) >> c) & 1]
                    return sorted(
                        pts0 + [_SUB + c for c in pts1] + [2 * _SUB + c for c in got]
                    )
    return None


def exhaustive_max_capset(n: int, greedy_seeds: Sequence[int] = (11, 23, 47)) -> tuple[int, PointSet]:
    """Exact maximum cap-set size and a witness, for n <= 4.

    Dimensions up to 3 run the branch-and-bound directly; its per-coset
    bound uses the maximum for dimension n-1, computed by this same
    routine, so the chain of exact values is self-contained. Dimension 4
    splits a hypothetical cap into its three hyperplane layers and runs
    the complete layered case split instead, walking the target size up
    from the greedy incumbent until it stops being realizable. Greedy
    runs seed incumbents; they never decide the answer.
    """
    if not 1 <= n <= EXHAUSTIVE_GUARD_N:
        raise GuardExceededError(
            f"exhaustive search guard is n <= {EXHAUSTIVE_GUARD_N}"
        )
    maxima = [1]  # dimension 0: the single point
    witness: list[int] = [0]
    for d in range(1, min(n, 3) + 1):
        seed_size = 0
        seed_set: PointSet | None = None
        for s in greedy_seeds:
            g = greedy_random_capset(d, s)
            if g.size > seed_size:
                seed_size = g.size
                seed_set = g
        size, found = _search_max(d, maxima[d - 1], seed_size)
        maxima.append(size)
        if found:
            witness = found
        elif seed_set is not None and seed_size == size:
            witness = [int(i) for i in seed_set.indices]
    if n < 4:
        return maxima[n], PointSet(n, witness)

    best = 0
    best_set: list[int] = []
    for s in greedy_seeds:
        g = greedy_random_capset(4, s)
        if g.size > best:
            best, best_set = g.size, [int(i) for i in g.indices]
    while True:
        found4 = _layered_realize(best + 1, maxima[3])
        if found4 is None:
            break
        best += 1
        best_set = found4
    return best, PointSet(4, best_set)
