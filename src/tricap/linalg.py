"""Linear algebra over F_3 on bit-plane-packed rows.

Rows are (lo, hi) plane pairs. ``rank`` takes a whole stack of
selections at once, an int64 array of canonical indices of shape (T, d),
and eliminates all T of them together: n column steps of array ops on
the stacked planes, with no Python loop over trials or rows.

``rref`` is the per-row elimination that builds ``Subspace`` bases.
Echelon form here always means *reduced* echelon form with pivots
normalized to 1, which makes every basis canonical: two subspaces are
equal iff their bases compare equal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import bulk
from .errors import DimensionMismatchError, GuardExceededError
from .gf3core import MAX_DIM, TritVector, plane_add

__all__ = [
    "ENUM_GUARD_DIM",
    "Subspace",
    "rank",
    "rref",
]

ENUM_GUARD_DIM = 16  # 3^16 ~ 43M points; enumeration beyond this refuses


def _trit(lo: int, hi: int, col: int) -> int:
    return ((lo >> col) & 1) + 2 * ((hi >> col) & 1)


def _sub_scaled(row: tuple[int, int], piv: tuple[int, int], t: int) -> tuple[int, int]:
    # row - t*piv for t in {1, 2}; -1*p == +swap(p), -2*p == +p
    if t == 1:
        return plane_add(row[0], row[1], piv[1], piv[0])
    return plane_add(row[0], row[1], piv[0], piv[1])


def rref(
    rows: Iterable[tuple[int, int]], n: int
) -> tuple[list[tuple[int, int]], list[int]]:
    """Reduced row echelon form.

    Returns (nonzero rows, pivot columns), pivots strictly increasing,
    pivot entries normalized to 1 and cleared in every other row.
    """
    work = [r for r in rows if r != (0, 0)]
    out: list[tuple[int, int]] = []
    pivots: list[int] = []
    for col in range(n):
        hit = None
        for i, r in enumerate(work):
            if _trit(r[0], r[1], col):
                hit = i
                break
        if hit is None:
            continue
        piv = work.pop(hit)
        if _trit(piv[0], piv[1], col) == 2:
            piv = (piv[1], piv[0])  # scale by 2 to normalize the pivot
        nxt = []
        for r in work:
            t = _trit(r[0], r[1], col)
            if t:
                r = _sub_scaled(r, piv, t)
            if r != (0, 0):
                nxt.append(r)
        work = nxt
        out = [
            _sub_scaled(r, piv, t) if (t := _trit(r[0], r[1], col)) else r
            for r in out
        ]
        out.append(piv)
        pivots.append(col)
        if not work:
            break
    return out, pivots


def _stacked_rank(lo: np.ndarray, hi: np.ndarray, n: int) -> np.ndarray:
    """Ranks of the row stacks lo[t], hi[t] (shape (T, d)), as int64.

    Column by column, each stack takes its first row with a nonzero trit
    there as pivot, scaled so the trit is 1, and subtracts trit * pivot
    from every row. That clears the column in every row, the pivot row
    included, so no row is chosen twice and a stack's rank is the number
    of columns where it found a pivot.
    """
    ranks = np.zeros(lo.shape[0], dtype=np.int64)
    if lo.shape[1] == 0:
        return ranks
    stacks = np.arange(lo.shape[0])
    for col in range(n):
        one = -((lo >> col) & 1)  # all ones where the trit is 1
        two = -((hi >> col) & 1)  # all ones where the trit is 2
        hit = (one | two) != 0
        first = hit.argmax(axis=1)
        ranks += hit[stacks, first]
        plo = lo[stacks, first][:, None]
        phi = hi[stacks, first][:, None]
        flip = (phi >> col) & 1 == 1  # scale a pivot whose trit is 2 by 2
        plo, phi = np.where(flip, phi, plo), np.where(flip, plo, phi)
        # row - 1*piv adds the swapped pivot, row - 2*piv adds the pivot
        lo, hi = plane_add(lo, hi, (phi & one) | (plo & two), (plo & one) | (phi & two))
    return ranks


def rank(picks: np.ndarray, n: int) -> np.ndarray:
    """Ranks of a stack of selections from F_3^n.

    picks is an int64 array of canonical indices of shape (T, d), one
    selection of d vectors per row (duplicates and zeros allowed). The
    result holds the T ranks as an int64 array.
    """
    if not 1 <= n <= MAX_DIM:
        raise ValueError("a stacked rank needs its dimension n in 1..MAX_DIM")
    if picks.ndim != 2:
        raise ValueError(f"expected a (T, d) stack, got shape {picks.shape}")
    if picks.size and not (0 <= picks.min() and picks.max() < 3**n):
        raise ValueError(f"indices outside F_3^{n}")
    return _stacked_rank(*bulk.indices_to_planes(n, picks), n)


@dataclass(frozen=True)
class Subspace:
    """Linear subspace of F_3^n held as a canonical RREF basis."""

    n: int
    basis: tuple[TritVector, ...]
    pivots: tuple[int, ...] = field(default=())

    @classmethod
    def span(cls, vectors: Sequence[TritVector], n: int | None = None) -> "Subspace":
        if not vectors and n is None:
            raise ValueError("need an ambient dimension for an empty span")
        dim = vectors[0].n if n is None else n
        for v in vectors:
            if v.n != dim:
                raise DimensionMismatchError(f"{v.n} != {dim}")
        rows, pivots = rref(((v.lo, v.hi) for v in vectors), dim)
        return cls(dim, tuple(TritVector(dim, lo, hi) for lo, hi in rows), tuple(pivots))

    @classmethod
    def zero(cls, n: int) -> "Subspace":
        return cls(n, (), ())

    @classmethod
    def full(cls, n: int) -> "Subspace":
        return cls.span([TritVector.unit(n, i) for i in range(n)])

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def codim(self) -> int:
        return self.n - self.dim

    def size(self) -> int:
        return 3**self.dim

    def reduce(self, v: TritVector) -> TritVector:
        """Residue of v after clearing every pivot coordinate."""
        if v.n != self.n:
            raise DimensionMismatchError(f"{v.n} != {self.n}")
        lo, hi = v.lo, v.hi
        for b, col in zip(self.basis, self.pivots):
            t = _trit(lo, hi, col)
            if t:
                lo, hi = _sub_scaled((lo, hi), (b.lo, b.hi), t)
        return TritVector(self.n, lo, hi)

    def contains(self, v: TritVector) -> bool:
        return self.reduce(v).is_zero()

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(b) for b in other.basis)

    def annihilator(self) -> "Subspace":
        """All x with x.v = 0 for every v here; dim flips to n - dim."""
        free = [c for c in range(self.n) if c not in self.pivots]
        gens = []
        for f in free:
            # coordinate f set to 1, pivot coordinates set to -basis[f]
            lo, hi = 1 << f, 0
            for b, col in zip(self.basis, self.pivots):
                t = b.trit(f)
                if t == 1:  # need -1 == 2 at the pivot coordinate
                    hi |= 1 << col
                elif t == 2:
                    lo |= 1 << col
            gens.append(TritVector(self.n, lo, hi))
        return Subspace.span(gens, self.n)

    def transversal(self) -> "Subspace":
        """Canonical complement: span of units at non-pivot coordinates."""
        free = [c for c in range(self.n) if c not in self.pivots]
        return Subspace.span([TritVector.unit(self.n, f) for f in free], self.n)

    def extension_to(self, larger: "Subspace") -> list[TritVector]:
        """Vectors extending this basis to a basis of ``larger``.

        The returned list T satisfies larger = self (+) span(T); combined
        with enumerate_points it yields coset representatives of self
        inside larger.
        """
        if not larger.contains_subspace(self):
            raise ValueError("extension target does not contain this subspace")
        rows = [(b.lo, b.hi) for b in self.basis]
        got = self.dim
        out = []
        for cand in larger.basis:
            trial = rows + [(cand.lo, cand.hi)]
            _, pivots = rref(trial, self.n)
            if len(pivots) > got:
                rows = trial
                got = len(pivots)
                out.append(cand)
        return out

    def enumerate_indices(self, force: bool = False) -> np.ndarray:
        """Canonical indices of all 3^dim points, int64, zero first.

        The order is coefficient-counter order with the rightmost basis
        vector fastest: each basis vector b adds 0, b and 2b = -b along a
        new fastest axis.
        """
        if self.dim > ENUM_GUARD_DIM and not force:
            raise GuardExceededError(
                f"enumerating 3^{self.dim} points exceeds the guard "
                f"(dim {ENUM_GUARD_DIM}); pass force=True to insist"
            )
        lo = hi = np.zeros(1, dtype=np.int64)
        for b in self.basis:
            lo, hi = plane_add(
                lo[:, None], hi[:, None],
                np.array([0, b.lo, b.hi], dtype=np.int64),
                np.array([0, b.hi, b.lo], dtype=np.int64),
            )
            lo, hi = lo.ravel(), hi.ravel()
        return bulk.planes_to_indices(self.n, lo, hi)

    def enumerate_points(self, force: bool = False) -> Iterator[TritVector]:
        """The points of enumerate_indices, in the same order."""
        lo, hi = bulk.indices_to_planes(self.n, self.enumerate_indices(force))
        for plo, phi in zip(lo.tolist(), hi.tolist()):
            yield TritVector(self.n, plo, phi)

    def __contains__(self, v: TritVector) -> bool:
        return self.contains(v)
