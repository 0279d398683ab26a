"""Exact Fourier analysis on F_3^n with Eisenstein-integer coefficients.

The table entry at frequency x is the unnormalized character sum
c(x) = sum over members a of w^(x.a). The full table is computed by n
passes of the 3-point butterfly: the transform is the n-th tensor power
of the 3-point DFT and the group is elementary abelian, so there are no
twiddle factors (Yates' algorithm). Coefficients live in two planes,
the real part p and the omega part q. Statistics of a set (Plancherel,
the cube sum, the spectrum scans) read the table its caller built once.

Every integer fast path follows a written bound; past it a slower exact
path takes over or a guard refuses, never a wrapped value:

  * Butterfly passes. w maps p + q w to -q + (p - q) w, so every value
    the passes hold (outputs, _pass temporaries, conjugate-split slices)
    is a sum over input cells of one of +-p, +-q or +-(p - q) each:
    within l1 = sum(|p| + |q|). k passes also keep it within
    2 * peak * 3^k, peak the largest input component (|c| grows at most
    3x a pass from sqrt(3) * peak; a component is at most 2 / sqrt(3)
    |c|). _kernel_dtype picks int32 when the peak bound is below 2^31
    (every indicator up to DENSE_MAX_N) and int64 when either
    bound is below 2^63; past both the guard "transform bound" refuses.
    A norm table has l1 = 3^n |A| <= 3^32 by Plancherel, and an
    indicator or a dot-profile histogram l1 = |A|, so every table the
    package builds is int32 or int64, and keeps that dtype.
  * Consumers of a table (norms, the cube sum, the binary dump) widen
    _BLOCK cells at a time into int64 scratch, never a full plane.
  * Norms p^2 - p q + q^2 are int64 when 3 * peak^2 < 2^62.
  * Exact sums go through bulk.exact_sum, which adds int64 arrays in
    chunks of fewer than 2^62 / max entries each; the norm total is a
    single int64 sum when size * max_norm < 2^62.
  * The cube sum is vectorised in int64 on each _BLOCK whose own peak
    keeps 8 * peak^3 < 2^62; every partial term is at most 6 * peak^3.

Real inputs (q plane zero) above _TILE cells take a conjugate split
(see _butterfly_real): one pass over the leading digit x0 leaves the
real slice g0 = f0 + f1 + f2 and the complex slice g1 = (f0 - f2) +
(f1 - f2) w (conjugate rows for the inverse); g1 goes through the n - 1
remaining passes, g0 recurses, and the x0 = 2 slice is the reflection
c(2, x') = conj c(1, -x'). The peak bound carries over: both slices
start within 3 * peak, and a conjugate has the same norm.

Memory: the one "transform dimension" guard refuses n past
DENSE_MAX_N = 16 before anything of size 3^n is allocated. The passes
run in place in the table's own planes, a tile of _TILE cells at a
time (see _butterfly), so a transform holds the table, 8 bytes a cell
for an indicator, and a fixed scratch of about 2.4 MB: 344 MB in all
at n = 16. The conjugate split shares that scratch and
adds only its digit negation tables, 3^ceil((n-1)/2) entries at most.
Consumers read the table in _BLOCK-cell blocks, and norms(start, stop)
computes the norms of one block.

Coefficients on a subspace W with basis w_1..w_d come from a pushforward:
c_A(sum_i t_i w_i) = c_{pi(A)}(t) with pi(a) = (a.w_1, ..., a.w_d), so
restricted_transform costs O(|A| d + d 3^d) and builds no 3^n table.
transform_table(f, n, digits=k) runs only the passes over the trailing
k digits: a stack of 3^(n-k) k-dimensional tables in one call, which is
how the fiber identity in structure gets every fiber's table at once.

Identities kept loud here:
  * Plancherel: sum_x norm(c(x)) = 3^n * |A|, exact integers.
  * inverse(transform(f)) == f bit for bit, with an exact-divisibility
    check on the final 3^n division.
  * cube sum: sum_x c(x)^3 = 3^n * (number of ordered line solutions).
"""

from __future__ import annotations

import io
import struct
from typing import BinaryIO

import numpy as np

from . import bulk
from .capset import PointSet
from .errors import IdentityViolationError, guard
from .gf3core import DENSE_MAX_N, Eisenstein, TritVector
from .linalg import Subspace

__all__ = [
    "SpectrumTable",
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

_INT32_LIMIT = 1 << 31
_INT64_MAX = (1 << 63) - 1
_BLOCK = 1 << 16  # cells per int64 scratch block: 512 KB per plane
_TILE = 1 << 17  # cells per butterfly tile: 512 KB per int32 plane


def _check_guard(n: int) -> None:
    guard("transform dimension", n, DENSE_MAX_N)


def _kernel_dtype(n: int, *planes: np.ndarray):
    """np.int32 or np.int64, exact for n passes over the planes (module docstring).

    l1 is summed, over _int64_blocks, only when the peak bound fails and
    the peak fits int64; the guard refuses before anything is copied.
    """
    peak = bulk.peak(*planes)
    bound = 2 * peak * 3**n
    if bound < _INT32_LIMIT:
        return np.int32
    if bound > _INT64_MAX:  # l1 >= peak, so a peak past int64 is refused unsummed
        blocks = () if peak > _INT64_MAX else _int64_blocks(*planes)
        l1 = sum(bulk.exact_sum(np.absolute(b, out=b), peak) for _, _, bs in blocks for b in bs)
        bound = min(bound, max(l1, peak))
    guard("transform bound", bound, _INT64_MAX)
    return np.int64


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


def _butterfly_scratch(n: int, dtype):
    """(tiles, d, e): the scratch _butterfly needs for n digits, or fewer."""
    cells = min(3**n, max(_TILE, 3 ** (n - n // 2)))
    d = np.empty(cells // 3, dtype=dtype)
    return np.empty((2, 2, cells), dtype=dtype), d, np.empty_like(d)


def _butterfly(p: np.ndarray, q: np.ndarray, n: int, inverse: bool, scratch=None, lead=0) -> None:
    """Run the passes over the trailing n - lead digits of p and q, in place.

    p and q must be contiguous, of length 3^n and already in the dtype
    _kernel_dtype proves exact for them; nothing is widened. A pass is
    fast when the digit it transforms has a long contiguous trailing
    block, so each plane is read as a (3^k, 3^(n-k)) matrix, k =
    max(n // 2, lead). The leading k digits index its rows: chunks of
    all rows and a few columns, about _TILE cells, are copied into a
    tile, the digits past lead are transformed there (the lead digits
    ride along in _pass's reshape) and copied back. The trailing n - k
    digits index its columns, and the same is done on the transposed
    matrix, of at most 3^(n - n//2) rows, so those digits lead inside
    the tile too. Two tile pairs ping-pong and two scratch rows hold the
    shared differences: beside the planes, the passes need scratch for
    about 4.7 tiles, whatever n is. A caller that runs several
    transforms passes one _butterfly_scratch for the largest.
    """
    k = max(n // 2, lead)
    mats = [plane.reshape(3**k, 3 ** (n - k)) for plane in (p, q)]
    tiles, d, e = scratch or _butterfly_scratch(n, p.dtype)
    for half, first, last in ((mats, lead, k), ([m.T for m in mats], 0, n - k)):
        if first == last:
            continue
        rows, cols = half[0].shape
        width = min(cols, max(1, _TILE // rows))
        for start in range(0, cols, width):
            chunk = [m[:, start : start + width] for m in half]
            w = chunk[0].shape[1]
            size = rows * w
            src, dst = tiles[0, :, :size], tiles[1, :, :size]
            for plane, tile in zip(chunk, src):
                np.copyto(tile.reshape(rows, w), plane)
            for j in range(first, last):
                _pass(src, dst, d[: size // 3], e[: size // 3], 3 ** (last - 1 - j) * w, inverse)
                src, dst = dst, src
            for plane, tile in zip(chunk, src):
                np.copyto(plane, tile.reshape(rows, w))


def _butterfly_real(p: np.ndarray, q: np.ndarray, n: int, inverse: bool, scratch=None) -> None:
    """_butterfly for planes whose q is zero, by conjugate symmetry.

    A real f has c(-x) = conj c(x). Tables of at most _TILE cells go to
    _butterfly, where per-call overhead would eat the saving. Above that
    the leading digit is transformed here: slice 0 gets the real g0 =
    f0 + f1 + f2 and recurses, slice 1 gets g1 = (f0 - f2) + (f1 - f2) w
    (f1 and f2 swap for the inverse's conjugate rows) and goes through
    _butterfly over the n - 1 remaining digits, and slice 2 is then
    written as c(2, x') = conj c(1, -x') by _reflect_conjugate. Slice 2
    of q is the scratch of the digit-0 pass. Every level shares one
    _butterfly scratch, allocated once: freeing and allocating it per
    level would leave the allocator holding spare heap.
    """
    if p.size <= _TILE:
        _butterfly(p, q, n, inverse, scratch)
        return
    scratch = scratch or _butterfly_scratch(n - 1, p.dtype)
    (p0, p1, p2), (q0, q1, q2) = p.reshape(3, -1), q.reshape(3, -1)
    x1, x2 = (p2, p1) if inverse else (p1, p2)
    np.subtract(x1, x2, out=q1)
    np.subtract(p0, x2, out=q2)
    p0 += p1
    p0 += p2
    np.copyto(p1, q2)
    _butterfly_real(p0, q0, n - 1, inverse, scratch)
    _butterfly(p1, q1, n - 1, inverse, scratch)
    _reflect_conjugate(p1, q1, p2, q2, n - 1)


def _reflect_conjugate(p1, q1, p2, q2, m: int) -> None:
    """(p2, q2)[x] = conj of (p1, q1)[-x] for every m-digit index x.

    Each plane is read as a matrix of 3^(m - k) rows by 3^k columns, k =
    ceil(m / 2), so -x is row neg(head) and column neg(tail): one
    np.take per row gathers it straight into its destination. The
    conjugate of p + q w is (p - q) - q w, applied _TILE cells of rows
    at a time while they are in cache.
    """
    k = m - m // 2
    # neg[i] = index of -x for the index i of x: its two bit planes swap
    heads, tails = (
        bulk.planes_to_indices(j, *bulk.indices_to_planes(j, np.arange(3**j))[::-1])
        for j in (m - k, k)
    )
    src = [a.reshape(-1, 3**k) for a in (p1, q1)]
    dst = [a.reshape(-1, 3**k) for a in (p2, q2)]
    rows = max(1, _TILE // 3**k)
    for start in range(0, heads.size, rows):
        stop = min(heads.size, start + rows)
        for r in range(start, stop):
            for a, b in zip(src, dst):
                np.take(a[heads[r]], tails, out=b[r], mode="clip")
        bp, bq = dst[0][start:stop], dst[1][start:stop]
        np.subtract(bp, bq, out=bp)
        np.negative(bq, out=bq)


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


class SpectrumTable:
    """Dense table of c(x) for every frequency x, canonical index order.

    The planes p and q keep the dtype the transform kernel ran in (see
    _kernel_dtype); an indicator table is int32. Planes that are not
    signed integers raise ValueError, so no table holds Python ints.
    """

    __slots__ = ("n", "p", "q", "source_size")

    def __init__(self, n: int, p: np.ndarray, q: np.ndarray, source_size: int | None = None):
        if p.shape != (3**n,) or q.shape != (3**n,):
            raise ValueError("table arrays must have length 3^n")
        if p.dtype.kind != "i" or q.dtype.kind != "i":
            raise ValueError(f"table planes must hold signed integers, not {p.dtype}, {q.dtype}")
        self.n = n
        self.p = p
        self.q = q
        self.source_size = source_size

    def norms(self, start: int = 0, stop: int | None = None) -> np.ndarray:
        """eis_norm(c(x)) for the frequencies start <= x < stop; int64 when provably safe.

        The norms are int64 when 3 * peak^2 < 2^62, peak taken over the
        range: the norm is built as p (p - q) + q^2, whose partial terms
        stay within 3 * peak^2, one _BLOCK of cells at a time into the
        output. The ufuncs read the planes with an int64 loop, so only q^2
        needs a scratch block. Past that bound they are Python ints, which
        an int64 table of a user's function or a loaded dump can need.
        """
        p, q = self.p[start:stop], self.q[start:stop]
        if 3 * bulk.peak(p, q) ** 2 < bulk.INT64_SAFE:
            out = np.empty(p.size, dtype=np.int64)
            scratch = np.empty(min(p.size, _BLOCK), dtype=np.int64)
            for at in range(0, p.size, _BLOCK):
                a, b = p[at : at + _BLOCK], q[at : at + _BLOCK]
                o, sq = out[at : at + _BLOCK], scratch[: a.size]
                np.subtract(a, b, out=o, dtype=np.int64)
                np.multiply(o, a, out=o)
                np.multiply(b, b, out=sq, dtype=np.int64)
                o += sq
            return out
        po = p.astype(object)
        qo = q.astype(object)
        return po * po - po * qo + qo * qo

    def norm_blocks(self):
        """(start, stop, norms(start, stop)) over consecutive _BLOCK-cell ranges."""
        size = self.p.size
        for start in range(0, size, _BLOCK):
            stop = min(size, start + _BLOCK)
            yield start, stop, self.norms(start, stop)

    def norm_at(self, index: int) -> int:
        return Eisenstein(int(self.p[index]), int(self.q[index])).norm()

    def norm_total(self) -> int:
        """Exact big-int sum of all coefficient norms, a block at a time."""
        return sum((bulk.exact_sum(norms) for _, _, norms in self.norm_blocks()), 0)


def transform_table(f, n: int, *, digits: int | None = None) -> SpectrumTable:
    """Transform an arbitrary integer function given as a dense array.

    Any integer dtype goes to the kernel, which _kernel_dtype sizes
    before the cast, so an input past int64 is refused, not wrapped;
    object and float arrays raise ValueError. With digits = k, row r of
    the result read as (3^(n-k), 3^k) is the k-dimensional transform of
    row r of f, in _kernel_dtype(k, f).
    """
    _check_guard(n)
    digits = n if digits is None else digits
    if not 0 <= digits <= n:
        raise ValueError(f"digits {digits} outside 0..{n}")
    f = np.asarray(f)
    if f.shape != (3**n,):
        raise ValueError("input array must have length 3^n")
    if f.dtype.kind not in "biu":
        raise ValueError(f"input array must hold integers, not {f.dtype}")
    dtype = _kernel_dtype(digits, f)
    p, q = f.astype(dtype), np.zeros(f.shape, dtype=dtype)
    if digits == n:
        _butterfly_real(p, q, n, inverse=False)
    else:  # the conjugate split needs the leading digit transformed
        _butterfly(p, q, n, inverse=False, lead=n - digits)
    return SpectrumTable(n, p, q)


def transform_point_set(ps: PointSet) -> SpectrumTable:
    """Character-sum table of a point set's indicator function.

    The indicator is written straight into int32 planes, the dtype
    _kernel_dtype picks for a peak of 1 up to DENSE_MAX_N
    (2 * 3^16 < 2^31), and transformed in place.
    """
    _check_guard(ps.n)
    p, q = np.zeros(3**ps.n, dtype=np.int32), np.zeros(3**ps.n, dtype=np.int32)
    p[ps.indices] = 1
    _butterfly_real(p, q, ps.n, inverse=False)
    c0 = (int(p[0]), int(q[0]))
    if c0 != (ps.size, 0):
        raise IdentityViolationError("c(0) = |A|", c0, (ps.size, 0))
    return SpectrumTable(ps.n, p, q, source_size=ps.size)


def inverse_table(table: SpectrumTable, overwrite: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Exact inverse as an (p, q) Eisenstein value pair per point.

    The arrays have the dtype _kernel_dtype picks for the table, int32
    or int64, like the table a forward transform returns; a table past
    both of its bounds is refused by the "transform bound" guard.
    Raises IdentityViolationError if the final division by 3^n is not
    exact; for a table produced by transform_table the q plane comes
    back identically zero and p equals the original input bit for bit.
    With overwrite=True, contiguous planes that already have that dtype
    are transformed in place and returned, so the table is spent.
    """
    _check_guard(table.n)
    dtype = _kernel_dtype(table.n, table.p, table.q)
    p = table.p.astype(dtype, order="C", copy=not overwrite)
    q = table.q.astype(dtype, order="C", copy=not overwrite)
    (_butterfly if q.any() else _butterfly_real)(p, q, table.n, inverse=True)
    # divide _BLOCK cells at a time in place, checking each block first
    scale = 3**table.n
    rem = np.empty(min(p.size, _BLOCK), dtype=dtype)
    for plane in (p, q):
        for start in range(0, plane.size, _BLOCK):
            block = plane[start : start + _BLOCK]
            r = rem[: block.size]
            np.remainder(block, scale, out=r)
            if r.any():
                raise IdentityViolationError("inverse divisibility", "remainder", 0)
            np.floor_divide(block, scale, out=block)
    return p, q


def plancherel_check(table: SpectrumTable) -> tuple[int, int]:
    """(sum of norms, 3^n * |A|) for the table of a set A, exact; equal or it's a bug."""
    if table.source_size is None:
        raise ValueError("Plancherel needs a table that records its set's size")
    return table.norm_total(), 3**table.n * table.source_size


def cube_sum(table: SpectrumTable) -> Eisenstein:
    """sum_x c(x)^3, exactly; (3^n * line solutions, 0) for the table of a set.

    (p + q w)^3 = (p^3 + q^3 - 3 p q^2) + 3 p q (p - q) w; every partial
    result is at most 6 peak^3 in size, peak taken over the block. The
    planes are widened into int64 scratch a block at a time, and a block
    with 8 * peak^3 < 2^62 is cubed there; any other block runs on Python
    ints, which c(0) = |A| of a dense set needs: it costs one block, not
    the whole table.
    """
    re_total = im_total = 0
    for _, _, (a, b) in _int64_blocks(table.p, table.q):
        bound = 8 * bulk.peak(a, b) ** 3
        if bound >= bulk.INT64_SAFE:
            a, b = a.astype(object), b.astype(object)
        ab = a * b
        re_total += bulk.exact_sum(a * a * a + b * b * b - 3 * ab * b, bound)
        im_total += bulk.exact_sum(3 * ab * (a - b), bound)
    return Eisenstein(re_total, im_total)


def eval_at(ps: PointSet, x: TritVector) -> Eisenstein:
    """c(x) for a single frequency in O(|A|), no dimension guard."""
    n0, n1, n2 = np.bincount(bulk.dots_with(*ps.planes(), x), minlength=3).tolist()
    return Eisenstein(n0 - n2, n1 - n2)


def restricted_transform(ps: PointSet, w: Subspace) -> SpectrumTable:
    """c(x) for the points x of W, a table of dimension dim W.

    Entry j is c at the j-th point of w.enumerate_indices(). It is the
    dim-W transform of the histogram of dot profiles against W's basis,
    which bulk.dot_labels writes as canonical indices. The guard applies
    to dim W and fires before the 3^dim W histogram is allocated.
    """
    if w.n != ps.n:
        raise ValueError("subspace dimension differs from the set")
    _check_guard(w.dim)
    return transform_table(bulk.dot_histogram(*ps.planes(), w.basis), w.dim)


_MAGIC = b"TCAPF3T1"


def save_table(table: SpectrumTable, fh: BinaryIO | str) -> None:
    """Binary dump: magic, n, then int64 p and q arrays, little endian.

    Int32 and int64 tables write the same bytes: the planes are widened
    to <i8 one _BLOCK at a time.
    """
    if isinstance(fh, str):
        with open(fh, "wb") as real:
            save_table(table, real)
        return
    fh.write(_MAGIC)
    fh.write(struct.pack("<iq", table.n, -1 if table.source_size is None else table.source_size))
    for plane in (table.p, table.q):
        for _, _, (block,) in _int64_blocks(plane):
            fh.write(block.astype("<i8", copy=False).tobytes())


def load_table(fh: BinaryIO | str) -> SpectrumTable:
    """Read a save_table dump; ValueError for a bad header or length.

    The dimension is checked before anything of size 3^n is read. A
    seekable file's length is checked next, and each plane is then read
    straight into its int64 array, 16 bytes a cell in all; a stream's
    planes grow _BLOCK cells a read, so a short body allocates no more
    than it delivered. The file must end exactly after the q plane. A
    recorded source size must lie in 0..3^n and equal c(0).
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
    if not 0 <= n <= DENSE_MAX_N:
        raise ValueError(f"table dimension {n} outside 0..{DENSE_MAX_N}")
    count = 3**n
    wrong_length = ValueError(f"coefficient table body is not exactly {16 * count} bytes")
    if fh.seekable():
        # a seekable file of the wrong length is refused before 16 * 3^n
        # bytes are allocated for it
        start = fh.tell()
        if fh.seek(0, io.SEEK_END) - start != 16 * count:
            raise wrong_length
        fh.seek(start)
        p, q = np.empty(count, dtype="<i8"), np.empty(count, dtype="<i8")
        # a buffered reader's readinto fills the plane unless the body ends first
        if any(fh.readinto(plane) != plane.nbytes for plane in (p, q)):
            raise wrong_length
    else:
        p, q = _read_plane(fh, count), _read_plane(fh, count)
        if p is None or q is None:
            raise wrong_length
    if fh.read(1):
        raise wrong_length
    c0 = (int(p[0]), int(q[0]))
    if source != -1 and not (0 <= source <= count and c0 == (source, 0)):
        raise ValueError(f"source size {source} disagrees with c(0) = {c0}")
    return SpectrumTable(n, p, q, None if source == -1 else source)


def _read_plane(fh: BinaryIO, count: int) -> np.ndarray | None:
    """One <i8 plane of count cells from a stream, _BLOCK cells a read.

    The buffer grows only by what the stream has delivered, so a body
    shorter than its header claims allocates no more than the body
    itself. None when the stream ends before the plane does.
    """
    size = 8 * count
    buf = bytearray()
    while len(buf) < size:
        chunk = fh.read(min(8 * _BLOCK, size - len(buf)))
        if not chunk:
            return None
        buf += chunk
    return np.frombuffer(buf, dtype="<i8")
