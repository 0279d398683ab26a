"""Exact Fourier analysis on F_3^n with Eisenstein-integer coefficients.

The table entry at frequency x is the unnormalized character sum
c(x) = sum over members a of w^(x.a). The full table is computed by n
passes of the 3-point butterfly: the transform is the n-th tensor power
of the 3-point DFT and the group is elementary abelian, so there are no
twiddle factors (Yates' algorithm). Coefficients live in two planes,
the real part p and the omega part q.

Every integer fast path follows a written bound; past it the exact
slower path takes over, never a wrapped value:

  * Butterfly passes. With peak the largest input component, every
    intermediate component stays within 2 * peak * 3^n (|c| grows at
    most 3x per pass from sqrt(3) * peak, and a component is at most
    2 / sqrt(3) times |c|). _kernel_dtype picks int32 when that bound is
    below 2^31 (every indicator transform up to TRANSFORM_HARD_MAX_N),
    int64 below 2^63, and Python-int object arrays otherwise. A
    SpectrumTable, and the planes inverse_table returns, keep that
    dtype: an indicator table is int32, 4 bytes a cell per plane.
    restricted_transform feeds the passes a histogram of dot profiles;
    its entries are at most |A|, so _kernel_dtype(|A|, dim W) picks an
    exact dtype there too.
  * Consumers of int32 and int64 tables (norms, the cube sum, the binary
    dump) widen _BLOCK cells at a time into int64 scratch, so no
    full-size int64 copy of a plane is made.
  * Norms p^2 - p q + q^2 of int32 and int64 tables are int64 when
    3 * peak^2 < 2^62.
  * Exact sums go through bulk.exact_sum, which adds int64 arrays in
    chunks of fewer than 2^62 / max entries each; the norm total is a
    single int64 sum when size * max_norm < 2^62.
  * The cube sum is vectorised in int64 when 8 * peak^3 < 2^62; every
    partial term is at most 6 * peak^3.

Coefficients on a subspace W with basis w_1..w_d come from a pushforward:
c_A(sum_i t_i w_i) = c_{pi(A)}(t) with pi(a) = (a.w_1, ..., a.w_d), so
restricted_transform costs O(|A| d + d 3^d) and builds no 3^n table.

Identities kept loud here:
  * Plancherel: sum_x norm(c(x)) = 3^n * |A|, exact integers.
  * inverse(transform(f)) == f bit for bit, with an exact-divisibility
    check on the final 3^n division.
  * cube sum: sum_x c(x)^3 = 3^n * (number of ordered line solutions).
"""

from __future__ import annotations

import struct
from typing import BinaryIO

import numpy as np

from . import bulk
from .capset import PointSet
from .errors import GuardExceededError, IdentityViolationError
from .gf3core import Eisenstein, TritVector
from .linalg import Subspace

__all__ = [
    "SpectrumTable",
    "TRANSFORM_GUARD_N",
    "TRANSFORM_HARD_MAX_N",
    "cube_sum",
    "eval_at",
    "inverse_table",
    "load_table",
    "plancherel_check",
    "restricted_transform",
    "save_table",
    "transform_point_set",
    "transform_table",
]

TRANSFORM_GUARD_N = 14
TRANSFORM_HARD_MAX_N = 16  # the passes hold 4 int32 planes and 2 rows of 3^15: 0.8 GB

_INT32_LIMIT = 1 << 31
_INT64_LIMIT = 1 << 63
_BLOCK = 1 << 16  # cells per int64 scratch block: 512 KB per plane


def _check_guard(n: int, force: bool) -> None:
    if n > TRANSFORM_HARD_MAX_N:
        raise GuardExceededError(
            f"transform dimension {n} exceeds the hard maximum {TRANSFORM_HARD_MAX_N}"
        )
    if n > TRANSFORM_GUARD_N and not force:
        raise GuardExceededError(
            f"transform dimension {n} exceeds the default guard "
            f"{TRANSFORM_GUARD_N}; pass force=True (CLI --force) to insist"
        )


def _kernel_dtype(peak: int, n: int):
    """Narrowest exact dtype for n butterfly passes over inputs within peak."""
    bound = 2 * peak * 3**n
    if bound < _INT32_LIMIT:
        return np.int32
    if bound < _INT64_LIMIT:
        return np.int64
    return object


def _pass(src, dst, d, e, s: int, inverse: bool) -> None:
    """One butterfly pass over the digit whose trailing block is s long.

    src and dst are (p, q) plane pairs; d and e are scratch rows of 3^(n-1)
    entries that hold the shared differences q1 - q2 and p1 - p2.
    """
    p0, p1, p2 = src[0].reshape(-1, 3, s).transpose(1, 0, 2)
    q0, q1, q2 = src[1].reshape(-1, 3, s).transpose(1, 0, 2)
    op = dst[0].reshape(-1, 3, s).transpose(1, 0, 2)
    oq = dst[1].reshape(-1, 3, s).transpose(1, 0, 2)
    d = d.reshape(-1, s)
    e = e.reshape(-1, s)
    np.subtract(q1, q2, out=d)
    np.subtract(p1, p2, out=e)
    # rows of the 3-point DFT matrix over 1, w, w^2 (w^2 = -1 - w); the
    # inverse transform swaps the w and w^2 rows (conjugation)
    ka, kb = (2, 1) if inverse else (1, 2)
    # x0 + x1 + x2
    np.add(p0, p1, out=op[0])
    np.add(op[0], p2, out=op[0])
    np.add(q0, q1, out=oq[0])
    np.add(oq[0], q2, out=oq[0])
    # x0 + w x1 + w^2 x2 = (p0 - p2 - d) + (q0 - q1 + e) w
    np.subtract(p0, p2, out=op[ka])
    np.subtract(op[ka], d, out=op[ka])
    np.subtract(q0, q1, out=oq[ka])
    np.add(oq[ka], e, out=oq[ka])
    # x0 + w^2 x1 + w x2 = (p0 - p1 + d) + (q0 - q2 - e) w
    np.subtract(p0, p1, out=op[kb])
    np.add(op[kb], d, out=op[kb])
    np.subtract(q0, q2, out=oq[kb])
    np.subtract(oq[kb], e, out=oq[kb])


def _butterfly(p: np.ndarray, q: np.ndarray, n: int, inverse: bool):
    """Run the n butterfly passes over copies of (p, q).

    The passes and the returned planes use _kernel_dtype(peak, n): int32,
    int64 or object, whichever is proved exact for these inputs; nothing
    is widened afterwards. A pass is fast when the digit it transforms
    has a long contiguous trailing block, so the leading half of the
    digits is transformed in place, the layout is rotated to bring the
    other half to the front, that half is transformed, and the layout is
    rotated back. Two plane pairs ping-pong and two scratch rows hold the
    shared differences, so a pass allocates nothing.
    """
    dtype = _kernel_dtype(bulk.peak(p, q), n)
    planes = (p.astype(dtype), q.astype(dtype))
    spare = (np.empty_like(planes[0]), np.empty_like(planes[1]))
    d = np.empty(3**n // 3, dtype=dtype)
    e = np.empty_like(d)
    for k in (n // 2, n - n // 2):
        for j in range(k):
            _pass(planes, spare, d, e, 3 ** (n - 1 - j), inverse)
            planes, spare = spare, planes
        # rotate the k transformed digits from the front to the back
        for src, dst in zip(planes, spare):
            np.copyto(dst.reshape(3 ** (n - k), 3**k), src.reshape(3**k, 3 ** (n - k)).T)
        planes, spare = spare, planes
    return planes


def _int64_blocks(*planes: np.ndarray):
    """(start, stop, blocks): int64 copies of plane[start:stop], _BLOCK at a time.

    The blocks are scratch rows reused from one step to the next, so a
    caller must be done with them before it asks for the next step.
    """
    size = planes[0].size
    scratch = [np.empty(min(size, _BLOCK), dtype=np.int64) for _ in planes]
    for start in range(0, size, _BLOCK):
        stop = min(size, start + _BLOCK)
        blocks = [buf[: stop - start] for buf in scratch]
        for src, dst in zip(planes, blocks):
            np.copyto(dst, src[start:stop])
        yield start, stop, blocks


def _fixed_width(*planes: np.ndarray) -> bool:
    """True for signed fixed-width planes, which widen to int64 exactly."""
    return all(a.dtype.kind == "i" for a in planes)


class SpectrumTable:
    """Dense table of c(x) for every frequency x, canonical index order.

    The planes p and q keep the dtype the transform kernel ran in (see
    _kernel_dtype); an indicator table is int32.
    """

    __slots__ = ("n", "p", "q", "source_size")

    def __init__(self, n: int, p: np.ndarray, q: np.ndarray, source_size: int | None = None):
        if p.shape != (3**n,) or q.shape != (3**n,):
            raise ValueError("table arrays must have length 3^n")
        self.n = n
        self.p = p
        self.q = q
        self.source_size = source_size

    def coefficient(self, x: TritVector) -> Eisenstein:
        i = x.index
        return Eisenstein(int(self.p[i]), int(self.q[i]))

    def coefficient_at(self, index: int) -> Eisenstein:
        return Eisenstein(int(self.p[index]), int(self.q[index]))

    def norms(self) -> np.ndarray:
        """eis_norm(c(x)) per frequency; int64 when provably safe.

        Int32 and int64 planes go int64 when 3 * peak^2 < 2^62: the norm is
        built as p (p - q) + q^2, whose partial terms stay within
        3 * peak^2, one _BLOCK of cells at a time into the output. The
        ufuncs read the planes with an int64 loop, so only q^2 needs a
        scratch block.
        """
        p, q = self.p, self.q
        if _fixed_width(p, q) and 3 * bulk.peak(p, q) ** 2 < bulk.INT64_SAFE:
            out = np.empty(p.size, dtype=np.int64)
            scratch = np.empty(min(p.size, _BLOCK), dtype=np.int64)
            for start in range(0, p.size, _BLOCK):
                a, b = p[start : start + _BLOCK], q[start : start + _BLOCK]
                o, sq = out[start : start + _BLOCK], scratch[: a.size]
                np.subtract(a, b, out=o, dtype=np.int64)
                np.multiply(o, a, out=o)
                np.multiply(b, b, out=sq, dtype=np.int64)
                o += sq
            return out
        po = p.astype(object)
        qo = q.astype(object)
        return po * po - po * qo + qo * qo

    def norm_at(self, index: int) -> int:
        p, q = int(self.p[index]), int(self.q[index])
        return p * p - p * q + q * q

    def norm_total(self) -> int:
        """Exact big-int sum of all coefficient norms."""
        return bulk.exact_sum(self.norms())


def transform_table(f, n: int, force: bool = False) -> SpectrumTable:
    """Transform an arbitrary integer function given as a dense array.

    Any integer dtype, or an object array of Python ints, goes to the
    kernel as it is: _kernel_dtype reads the exact peak, so an unsigned
    input at or above 2^63 runs on Python ints instead of wrapping.
    """
    _check_guard(n, force)
    f = np.asarray(f)
    if f.shape != (3**n,):
        raise ValueError("input array must have length 3^n")
    if f.dtype != object and f.dtype.kind not in "biu":
        raise ValueError(f"input array must hold integers, not {f.dtype}")
    p, q = _butterfly(f, np.zeros(f.shape, dtype=np.int8), n, inverse=False)
    return SpectrumTable(n, p, q)


def transform_point_set(ps: PointSet, force: bool = False) -> SpectrumTable:
    """Character-sum table of a point set's indicator function."""
    _check_guard(ps.n, force)
    f = np.zeros(3**ps.n, dtype=np.int8)
    f[ps.indices] = 1
    p, q = _butterfly(f, np.zeros_like(f), ps.n, inverse=False)
    t = SpectrumTable(ps.n, p, q, source_size=ps.size)
    c0 = t.coefficient_at(0)
    if (c0.p, c0.q) != (ps.size, 0):
        raise IdentityViolationError("c(0) = |A|", (c0.p, c0.q), (ps.size, 0))
    return t


def inverse_table(table: SpectrumTable, force: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Exact inverse as an (p, q) Eisenstein value pair per point.

    The arrays have the dtype _kernel_dtype picks for the table's peak,
    int32, int64 or object, like the table a forward transform returns.
    Raises IdentityViolationError if the final division by 3^n is not
    exact; for a table produced by transform_table the q plane comes
    back identically zero and p equals the original input bit for bit.
    """
    _check_guard(table.n, force)
    scale = 3**table.n
    p, q = _butterfly(table.p, table.q, table.n, inverse=True)
    # % and // are exact on int32, int64 and Python-int object arrays alike
    if (p % scale).any() or (q % scale).any():
        raise IdentityViolationError("inverse divisibility", "remainder", 0)
    return p // scale, q // scale


def plancherel_check(ps: PointSet, force: bool = False) -> tuple[int, int]:
    """(sum of norms, 3^n * |A|) as exact big ints; equal or it's a bug."""
    table = transform_point_set(ps, force=force)
    return table.norm_total(), 3**ps.n * ps.size


def cube_sum(ps: PointSet, force: bool = False) -> Eisenstein:
    """sum_x c(x)^3, exactly; equals (3^n * line solutions, 0)."""
    return _cube_total(transform_point_set(ps, force=force))


def _cube_total(table: SpectrumTable) -> Eisenstein:
    """sum_x c(x)^3 over a whole table, exactly.

    (p + q w)^3 = (p^3 + q^3 - 3 p q^2) + 3 p q (p - q) w; every partial
    result is at most 6 peak^3 in size. Int32 and int64 planes below
    8 * peak^3 < 2^62 are cubed in int64 one _BLOCK at a time; anything
    else runs on Python ints.
    """
    p, q = table.p, table.q
    bound = 8 * bulk.peak(p, q) ** 3
    if not _fixed_width(p, q) or bound >= bulk.INT64_SAFE:
        p, q = p.astype(object), q.astype(object)
        re = p**3 + q**3 - 3 * p * q**2
        im = 3 * p * q * (p - q)
        return Eisenstein(bulk.exact_sum(re), bulk.exact_sum(im))
    re_total = im_total = 0
    for _, _, (a, b) in _int64_blocks(p, q):
        ab = a * b
        re_total += bulk.exact_sum(a * a * a + b * b * b - 3 * ab * b, bound)
        im_total += bulk.exact_sum(3 * ab * (a - b), bound)
    return Eisenstein(re_total, im_total)


def eval_at(ps: PointSet, x: TritVector) -> Eisenstein:
    """c(x) for a single frequency in O(|A|), no dimension guard."""
    lo, hi = ps.planes()
    d = bulk.dots_with(lo, hi, x)
    counts = np.bincount(d, minlength=3)
    n0, n1, n2 = (int(c) for c in counts)
    return Eisenstein(n0 - n2, n1 - n2)


def restricted_transform(ps: PointSet, w: Subspace, force: bool = False) -> SpectrumTable:
    """c(x) for the points x of W, a table of dimension dim W.

    Entry j is c at the j-th point of w.enumerate_indices(). It is the
    dim-W transform of the histogram of dot profiles against W's basis,
    which bulk.dot_labels writes as canonical indices. The guard applies
    to dim W and fires before the 3^dim W histogram is allocated.
    """
    if w.n != ps.n:
        raise ValueError("subspace dimension differs from the set")
    _check_guard(w.dim, force)
    return transform_table(bulk.dot_histogram(*ps.planes(), w.basis), w.dim, force=force)


_MAGIC = b"TCAPF3T1"


def save_table(table: SpectrumTable, fh: BinaryIO | str) -> None:
    """Binary dump: magic, n, then int64 p and q arrays, little endian.

    Int32 and int64 tables write the same bytes: the planes are widened
    to <i8 one _BLOCK at a time. Object tables have no binary form.
    """
    if isinstance(fh, str):
        with open(fh, "wb") as real:
            save_table(table, real)
        return
    if not _fixed_width(table.p, table.q):
        raise ValueError("object-precision tables have no binary form")
    fh.write(_MAGIC)
    fh.write(struct.pack("<iq", table.n, -1 if table.source_size is None else table.source_size))
    for plane in (table.p, table.q):
        for _, _, (block,) in _int64_blocks(plane):
            fh.write(block.astype("<i8", copy=False).tobytes())


def load_table(fh: BinaryIO | str) -> SpectrumTable:
    """Read a save_table dump; ValueError for a bad header or length.

    The dimension is checked before anything of size 3^n is read, and the
    file must end exactly after the q plane. A recorded source size must
    lie in 0..3^n and equal c(0).
    """
    if isinstance(fh, str):
        with open(fh, "rb") as real:
            return load_table(real)
    magic = fh.read(8)
    if magic != _MAGIC:
        raise ValueError("not a coefficient table dump")
    header = fh.read(12)
    if len(header) != 12:
        raise ValueError("truncated coefficient table header")
    n, source = struct.unpack("<iq", header)
    if not 0 <= n <= TRANSFORM_HARD_MAX_N:
        raise ValueError(f"table dimension {n} outside 0..{TRANSFORM_HARD_MAX_N}")
    count = 3**n
    raw = fh.read(16 * count + 1)
    if len(raw) != 16 * count:
        raise ValueError(f"coefficient table body is not exactly {16 * count} bytes")
    p = np.frombuffer(raw[: 8 * count], dtype="<i8").astype(np.int64)
    q = np.frombuffer(raw[8 * count :], dtype="<i8").astype(np.int64)
    c0 = (int(p[0]), int(q[0]))
    if source != -1 and not (0 <= source <= count and c0 == (source, 0)):
        raise ValueError(f"source size {source} disagrees with c(0) = {c0}")
    return SpectrumTable(n, p, q, None if source == -1 else source)
