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
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, NamedTuple, Sequence, TextIO

import numpy as np

from . import bulk
from .errors import DimensionMismatchError, SetFileError, guard
from .gf3core import DENSE_MAX_N, MAX_DIM, TritVector, plane_add
from .rng import make_rng

__all__ = [
    "EXHAUSTIVE_GUARD_N",
    "GREEDY_GUARD_N",
    "PRODUCT_GUARD_SIZE",
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

GREEDY_GUARD_N = DENSE_MAX_N
EXHAUSTIVE_GUARD_N = 4  # the combinatorial wall; n=5 is out of desk range
PRODUCT_GUARD_SIZE = 3**DENSE_MAX_N  # |A| * |B| points, as many as F_3^16 holds
_HEADER_BYTES = 32  # a set file's first line is refused at this length, unread beyond it


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
    def _from_sorted(cls, n: int, indices: np.ndarray) -> "PointSet":
        """Take ownership of strictly increasing int64 indices in 0..3^n - 1.

        Nothing is checked, sorted or copied: for callers that produce
        such arrays themselves, such as np.flatnonzero over a 3^n mask.
        """
        ps = cls.__new__(cls)
        ps.n = n
        ps.indices = indices
        ps.indices.setflags(write=False)
        ps._planes = None
        ps._bitmap = None
        return ps

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

    # -- views -----------------------------------------------------------

    @property
    def size(self) -> int:
        return int(self.indices.size)

    def density(self) -> Fraction:
        """|A| / 3^n, exactly."""
        return Fraction(self.size, 3**self.n)

    def planes(self) -> tuple[np.ndarray, np.ndarray]:
        if self._planes is None:
            lo, hi = bulk.indices_to_planes(self.n, self.indices)
            lo.setflags(write=False)
            hi.setflags(write=False)
            self._planes = (lo, hi)
        return self._planes

    def bitmap(self) -> np.ndarray:
        """Dense membership array over all 3^n indices (n <= DENSE_MAX_N only)."""
        if self._bitmap is None:
            guard("dense bitmap dimension", self.n, DENSE_MAX_N)
            bm = np.zeros(3**self.n, dtype=bool)
            bm[self.indices] = True
            bm.setflags(write=False)
            self._bitmap = bm
        return self._bitmap

    def contains_indices(self, idx: np.ndarray) -> np.ndarray:
        """Vectorized membership test for an int64 index array."""
        if self.n <= DENSE_MAX_N:
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
        lo, hi = self.planes()
        return [TritVector(self.n, a, b) for a, b in zip(lo.tolist(), hi.tolist())]

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


def save_point_set(ps: PointSet, out: str | os.PathLike | TextIO) -> None:
    """Write the canonical text form: header line, one point per line.

    ``out`` is a path or an open text stream. The point lines come from
    one ``bulk.index_text`` pass over the index array.
    """
    text = f"n={ps.n}\n" + bulk.index_text(ps.n, ps.indices)
    if hasattr(out, "write"):
        out.write(text)
        return
    with open(out, "w", encoding="ascii") as fh:
        fh.write(text)


def load_point_set(path: str | os.PathLike) -> PointSet:
    """Read a set file; malformed lines and duplicates are hard errors.

    The header line is read first, at most _HEADER_BYTES of it, and must
    be n= and ASCII digits before any more of the file is read. The body
    is then read as bytes, its line ends (LF, CRLF or CR) made LF, and
    checked in one vectorised pass over a view of that one buffer, a
    digit column at a time. The first offending line raises, with its
    line number: a line that is not n base-3 digits (any other byte,
    non-ASCII included), or the second occurrence of a point.
    """
    with open(path, "rb") as fh:
        head = fh.readline(_HEADER_BYTES)
        header = (head.splitlines() or [b""])[0]
        if not header.startswith(b"n="):
            raise SetFileError("first line must be n=<dim>")
        if len(header) == _HEADER_BYTES or not header[2:].isdigit():
            raise SetFileError(f"bad dimension in header {_text(header)!r}")
        n = int(header[2:])
        if not 1 <= n <= MAX_DIM:
            raise SetFileError(f"dimension {n} outside 1..{MAX_DIM}")
        raw = (head + fh.read()).replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    if not raw.endswith(b"\n"):
        raw += b"\n"  # every line, the last one included, ends at a newline
    body = len(header) + 1
    # well-formed lines are rows of n digits and a newline, n + 1 bytes apart
    data = np.frombuffer(raw, dtype=np.uint8, offset=body)
    rows = data[: data.size // (n + 1) * (n + 1)].reshape(-1, n + 1)
    bad = rows[:, n] != ord("\n")
    idx = np.zeros(len(rows), dtype=np.int64)
    for col in range(n):
        digit = rows[:, col] - ord("0")
        bad |= digit > 2  # uint8: bytes below "0" wrap past 2
        idx *= 3
        idx += digit
    good = int(np.argmax(bad)) if bad.any() else len(rows)
    # a stable sort keeps equal points in line order, so the second
    # occurrence of a point is a later entry of its run
    order = np.argsort(idx[:good], kind="stable")
    idx = idx[order]
    again = idx[1:] == idx[:-1]
    if again.any():
        line = int(order[1:][again].min())
        at = body + line * (n + 1)
        dup = _text(raw[at : at + n])
        raise SetFileError(f"line {line + 2}: duplicate point {dup!r}")
    start = body + good * (n + 1)
    if raw.count(b"\n", start) < len(raw) - start:  # blank lines may trail the points
        text = _text(raw[start : raw.index(b"\n", start)])
        raise SetFileError(f"line {good + 2}: {text!r} is not a base-3 string of length {n}")
    return PointSet._from_sorted(n, idx)


def _text(line: bytes) -> str:
    """A set-file line for an error message; non-ASCII bytes show as U+FFFD."""
    return line.decode("ascii", errors="replace")


# -- line solutions ---------------------------------------------------------


def _line_hits(ps: PointSet):
    """Blocks (weight, diagonal, hits) covering every line solution of A.

    hits[i, j] says whether -(a_i + b_j) is a member, for the pairs of one
    block. Counting its hits times weight, over every block, counts the
    ordered triples (a, b, c) in A^3 with a + b + c = 0; a block with
    diagonal=True is square and its diagonal holds the degenerate
    triples (a, a, a).

    The digits of a solution at any coordinate are (d, d, d) or a
    permutation of (0, 1, 2). So the sorted members split by their
    leading digit into three classes, each a contiguous run: a solution
    inside one class shares that digit and is found by splitting the
    class on the next digit, and every other solution has one point in
    each class, so it is found once, with weight 6, among the pairs of
    the two smallest classes. Third points keep the prefix their pair
    shares, so one membership bitmap serves every level. A class whose
    pairs fit one ``bulk.pair_sums`` block (at most _PAIR_CELLS) is a
    leaf: its upper-triangle blocks count a diagonal block once and each
    strictly-upper block twice. About |A|^2 / 6 pairs in all, against
    |A|^2 / 2 unsplit.
    """
    lo, hi = ps.planes()
    neg = (hi, lo)  # -(a+b) is (-a) + (-b), both operands negated
    idx = ps.indices

    def part(start: int, stop: int, digit: int):
        m = stop - start
        if m * m <= bulk._PAIR_CELLS:
            run = tuple(plane[start:stop] for plane in neg)
            for s, e, third in bulk.pair_sums(ps.n, run, run, upper=True):
                hits = ps.contains_indices(third)
                yield 1, True, hits[:, : e - s]
                yield 2, False, hits[:, e - s :]
            return
        width = 3 ** (ps.n - 1 - digit)
        base = int(idx[start]) - int(idx[start]) % (3 * width)
        edges = np.searchsorted(idx[start:stop], [base + width, base + 2 * width])
        cuts = [start, *(start + edges).tolist(), stop]
        classes = list(zip(cuts, cuts[1:]))
        for a, b in classes:
            if b > a:
                yield from part(a, b, digit + 1)
        (a0, b0), (a1, b1), _ = sorted(classes, key=lambda c: c[1] - c[0])
        if b0 > a0:
            x = tuple(plane[a0:b0] for plane in neg)
            y = tuple(plane[a1:b1] for plane in neg)
            for _, _, third in bulk.pair_sums(ps.n, x, y):
                yield 6, False, ps.contains_indices(third)

    if ps.size:
        yield from part(0, ps.size, 0)


def count_line_solutions(ps: PointSet) -> int:
    """Ordered triples (a, b, c) in A^3 with a + b + c = 0.

    Counts the degenerate a = b = c triples, so a cap set scores exactly
    |A|. The pairs are split into leading-digit classes (see _line_hits):
    same-class solutions recurse on the next digit and the mixed ones,
    a point in each class, are counted once over the two smallest
    classes and weighted 6, about |A|^2 / 6 pairs vectorized in blocks.
    """
    return sum(
        weight * int(np.count_nonzero(hits)) for weight, _, hits in _line_hits(ps)
    )


def is_capset(ps: PointSet) -> bool:
    """True iff no three distinct points of the set sum to zero.

    Walks the same leading-digit classes as count_line_solutions, about
    |A|^2 / 6 pairs, and stops at the first block with a hit off the
    diagonal of degenerate triples.
    """
    if ps.size < 3:
        return True
    for _, diagonal, hits in _line_hits(ps):
        if diagonal:
            # a == b gives the degenerate triple (a, a, a); mask the diagonal
            rows = np.arange(hits.shape[0])
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
    was rejected against a subset of the final set. Memory is 5 bytes a
    point of the cube: the visiting order as int32, widened to int64 one
    chunk at a time, and the forbidden mask; 24 MB at n = 14 and 215 MB
    at n = 16.
    """
    if n < 1:
        raise ValueError(f"dimension {n} is below 1")
    guard("greedy generation dimension", n, GREEDY_GUARD_N)
    rng = make_rng(seed)
    # shuffling an int32 arange draws the same order as rng.permutation(3^n)
    order = np.arange(3**n, dtype=np.int32)
    rng.shuffle(order)
    forbidden = np.zeros(3**n, dtype=bool)
    cap = 1024
    mem_lo = np.zeros(cap, dtype=np.int64)
    mem_hi = np.zeros(cap, dtype=np.int64)
    m = 0
    accepted: list[int] = []
    chunk = 1 << 14
    for cstart in range(0, order.size, chunk):
        cblock = order[cstart : cstart + chunk].astype(np.int64)
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
    """Coordinate-concatenation product; products of caps are caps.

    Both index arrays increase, so the rows a_i x B come out sorted and distinct.
    """
    n = a.n + b.n
    guard("product dimension", n, MAX_DIM)
    guard("product size", a.size * b.size, PRODUCT_GUARD_SIZE)
    combined = a.indices[:, None] * 3**b.n + b.indices[None, :]
    return PointSet._from_sorted(n, combined.ravel())


# -- exhaustive search --------------------------------------------------------

_SUB = 27  # point count of F_3^3: the whole space for n <= 3, one layer for n = 4
_DIGITS = np.arange(_SUB) // np.array([[1], [3], [9]]) % 3  # row j: the 3^j digit


def _index(digits: Sequence[np.ndarray]) -> np.ndarray:
    """Point indices of F_3^3 from its three digit arrays, 3^0 first, mod 3."""
    return digits[0] % 3 + 3 * (digits[1] % 3) + 9 * (digits[2] % 3)


_X0, _X1, _X2 = _DIGITS
_THIRD = _index(-(_DIGITS[:, :, None] + _DIGITS[:, None, :]))  # -(a+b) closes a, b
_GL3_GENERATORS = (  # two point permutations that generate all of GL(3,3)
    _index((_X0 + _X1, _X1, _X2)),  # transvection x0 += x1
    _index((_X1, _X2, 2 * _X0)),  # coordinate cycle with one sign, determinant 2
)
_THIRD_MASKS = [[1 << t for t in row] for row in _THIRD.tolist()]  # for _cap_within
# per digit j, the masks of the points whose 3^j digit is nonzero and zero
_DIGIT_UP = [np.uint32(sum(1 << c for c in np.nonzero(row)[0].tolist())) for row in _DIGITS]
_DIGIT_DOWN = [np.uint32(((1 << _SUB) - 1) ^ int(up)) for up in _DIGIT_UP]


def _permute_bits(masks: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """Bitmasks of point sets mapped by a permutation: bit i moves to perm[i].

    One 256-entry table per byte of the 27-bit masks, so the cost is four
    gathers whatever the permutation.
    """
    out = np.zeros_like(masks)
    for lo in range(0, _SUB, 8):
        table = np.zeros(256, dtype=np.uint32)
        for b, target in enumerate(perm[lo : lo + 8].tolist()):
            table[1 << b : 2 << b] = table[: 1 << b] | np.uint32(1 << target)
        out |= table[(masks >> np.uint32(lo)) & np.uint32(255)]
    return out


def _add_unit(masks: np.ndarray, j: int) -> np.ndarray:
    """Bitmasks of point sets translated by the unit vector of digit j.

    Adding 1 to digit j moves bit c to c + 3^j when the digit is 0 or 1
    and to c - 2 * 3^j when it is 2: a rotation of each block of three
    3^j-bit groups, done with two shifts and two masks.
    """
    step = np.uint32(3**j)
    return ((masks << step) & _DIGIT_UP[j]) | ((masks >> (2 * step)) & _DIGIT_DOWN[j])


def _lexmin_translates(masks: np.ndarray) -> np.ndarray:
    """Per mask, the numerically smallest mask among its 27 translates.

    The translates are walked as t0 + 3 t1 + 9 t2, one unit step at a
    time, with t0 the fastest.
    """
    best = masks.copy()
    m2 = masks
    for _ in range(3):
        m1 = m2
        for _ in range(3):
            m0 = m1
            for _ in range(3):
                np.minimum(best, m0, out=best)
                m0 = _add_unit(m0, 0)
            m1 = _add_unit(m1, 1)
        m2 = _add_unit(m2, 2)
    return best


def _orbit_reps(canon: np.ndarray) -> np.ndarray:
    """The smallest translate-lexmin mask of each AGL(3,3) orbit.

    Union-find over the sorted classes: every generator of GL(3,3) joins
    a class to the class of its image. The group is finite, so its orbits
    are the connected components. A union keeps the smaller root, so each
    root is the first class of its orbit and the result stays sorted.
    """
    parent = list(range(canon.size))

    def root(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for gen in _GL3_GENERATORS:
        images = np.searchsorted(canon, _lexmin_translates(_permute_bits(canon, gen)))
        for i, j in enumerate(images.tolist()):
            a, b = root(i), root(j)
            if a != b:
                parent[max(a, b)] = min(a, b)
    return canon[[i for i in range(canon.size) if parent[i] == i]]


class _LayerTables(NamedTuple):
    caps: dict[int, np.ndarray]  # every cap of F_3^3 as a uint32 bitmask, by size
    canon: dict[int, np.ndarray]  # translate-lexmin forms, sorted and unique, by size
    reps: dict[int, np.ndarray]  # the smallest canon mask of each AGL(3,3) orbit


@lru_cache(maxsize=1)
def _layer_tables() -> _LayerTables:
    """Every cap of F_3^3 and its classes, built once per process.

    Caps grow point by point in increasing index order, so each appears
    once; forb carries the points that close a line with two members.
    """
    mask = np.uint32(1) << np.arange(_SUB, dtype=np.uint32)
    forb = np.zeros(_SUB, dtype=np.uint32)
    last = np.arange(_SUB, dtype=np.uint8)
    caps: dict[int, np.ndarray] = {1: mask.copy()}
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
                add |= has.astype(np.uint32) << np.uint32(_THIRD[a, p])
            nm.append(m_sel | bit)
            nf.append(f_sel | add)
            nl.append(np.full(m_sel.shape, p, dtype=np.uint8))
        if not nm:
            break
        mask, forb, last = map(np.concatenate, (nm, nf, nl))
        caps[s + 1] = mask.copy()

    canon = {s: np.unique(_lexmin_translates(m)) for s, m in caps.items()}
    reps = {s: _orbit_reps(c) for s, c in canon.items()}
    return _LayerTables(caps, canon, reps)


def _cap_within(allowed: int, k: int, lowest: int = 0,
                cur: list[int] | None = None, fb: int = 0) -> list[int] | None:
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
                nf |= _THIRD_MASKS[a][p]
            cur.append(p)
            r = _cap_within(allowed, k, p + 1, cur, nf)
            if r:
                return r
            cur.pop()
        rem >>= 1
        p += 1
    return None


def _layered_realize(total: int, layer_max: int) -> list[int] | None:
    """A cap of the given size in F_3^4 assembled layer by layer, or None.

    Complete case split. Layer x0 = i of a cap of F_3^4 is a cap of F_3^3.
    An affine map of the first coordinate permutes the three layers, so
    their sizes may be taken sorted, s0 >= s1 >= s2. The map
    (x0, y) -> (x0, M y + x0 d + c), with M in GL(3,3), is an affine
    bijection of F_3^4: it fixes every layer and maps caps to caps. M and
    c bring layer 0 to its AGL(3,3) orbit representative; then d, which
    moves layer 1 by d and leaves layer 0 alone, brings layer 1 to its
    translate-lexmin form. Layer 2 is searched in full within the points
    that no line through layers 0 and 1 forbids. So every cap of the
    target size has an image among the configurations enumerated here.
    """
    tables = _layer_tables()
    canon = tables.canon
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
            for m0 in tables.reps[s0]:
                pts0 = [c for c in range(_SUB) if (int(m0) >> c) & 1]
                blocked = np.zeros(l1_bits.shape, dtype=bool)
                for a in pts0:
                    blocked |= l1_bits[:, _THIRD[a]]
                open_bits = ~blocked
                enough = open_bits.sum(axis=1) >= s2
                for row in np.nonzero(enough)[0]:
                    allowed = int((open_bits[row] * weights).sum(dtype=np.uint64))
                    got = [] if s2 == 0 else _cap_within(allowed, s2)
                    if got is None:
                        continue
                    pts1 = [c for c in range(_SUB) if (int(l1_masks[row]) >> c) & 1]
                    return sorted(
                        pts0 + [_SUB + c for c in pts1] + [2 * _SUB + c for c in got]
                    )
    return None


def exhaustive_max_capset(n: int) -> tuple[int, PointSet]:
    """Exact maximum cap-set size and a witness, for n <= 4.

    For n <= 3 the answer is read off the table of every cap of F_3^3:
    the caps of F_3^n are exactly those whose points all have index below
    3^n (the leading 3 - n digits zero). The maximum is the largest size
    among them. The witness is the one whose sorted point list comes
    first lexicographically: the first that the depth-first search
    _cap_within finds among those 3^n points. Dimension 4 splits a cap
    into its three layers x0 = const, each a cap of F_3^3, and walks the
    target down from three times the layer maximum until the complete
    layered case split realizes one.
    """
    if n < 1:
        raise ValueError(f"dimension {n} is below 1")
    guard("exhaustive search dimension", n, EXHAUSTIVE_GUARD_N)
    caps = _layer_tables().caps
    if n <= 3:
        limit = 1 << 3**n
        size = max(s for s, m in caps.items() if m.min() < limit)
        return size, PointSet(n, _cap_within(limit - 1, size))
    layer_max = max(caps)
    total = 3 * layer_max
    while (found := _layered_realize(total, layer_max)) is None:
        total -= 1
    return total, PointSet(4, found)
