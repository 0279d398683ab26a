"""Exact base types: vectors over F_3 and Eisenstein integers.

A vector in F_3^n is stored as two bit planes packed into Python ints:
bit i of ``lo`` is set when trit i equals 1, bit i of ``hi`` when it
equals 2. Componentwise mod-3 arithmetic is branch-free bit logic, so
vector operations cost a handful of word ops regardless of n.

Coordinate 0 is the leftmost digit of the canonical string form and the
most significant digit of the canonical index: a vector's index is its
string read as a base-3 numeral. Frequency tables and point sets are
ordered by this index everywhere.

Eisenstein integers p + q*w (w a primitive cube root of unity) carry the
values of all character sums exactly; components are plain Python ints.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Iterable

from .errors import DimensionMismatchError

__all__ = [
    "DENSE_MAX_N",
    "MAX_DIM",
    "Eisenstein",
    "TritVector",
    "character",
    "plane_add",
    "plane_dot",
]

MAX_DIM = 20  # 3^20 ~ 3.5e9 cells; beyond this nothing here is desk-scale
DENSE_MAX_N = 16  # the largest n any table of 3^n cells is built for: 43M cells


def plane_add(alo, ahi, blo, bhi):
    """Componentwise mod-3 sum of two plane pairs (branch-free).

    Works on Python ints and, unchanged, on int64 numpy plane arrays,
    which broadcast like any numpy operands.
    """
    t = (alo | bhi) ^ (ahi | blo)
    return t ^ (ahi | bhi), t ^ (alo | blo)


def plane_dot(alo: int, ahi: int, blo: int, bhi: int) -> int:
    """Dot product of two plane pairs, reduced mod 3."""
    plo = (alo & blo) | (ahi & bhi)
    phi = (alo & bhi) | (ahi & blo)
    return (plo.bit_count() - phi.bit_count()) % 3


@dataclass(frozen=True, slots=True)
class TritVector:
    """Immutable element of F_3^n, 1 <= n <= MAX_DIM."""

    n: int
    lo: int
    hi: int

    def __post_init__(self) -> None:
        if not 1 <= self.n <= MAX_DIM:
            raise ValueError(f"dimension {self.n} outside 1..{MAX_DIM}")
        mask = (1 << self.n) - 1
        if self.lo & ~mask or self.hi & ~mask:
            raise ValueError("plane bits outside dimension")
        if self.lo & self.hi:
            raise ValueError("planes overlap: not a valid trit encoding")

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_trits(cls, trits: Iterable[int]) -> "TritVector":
        ts = list(trits)
        lo = hi = 0
        for i, t in enumerate(ts):
            if t == 1:
                lo |= 1 << i
            elif t == 2:
                hi |= 1 << i
            elif t != 0:
                raise ValueError(f"trit {t!r} not in 0..2")
        return cls(len(ts), lo, hi)

    @classmethod
    def from_string(cls, s: str) -> "TritVector":
        return cls.from_trits(int(c) if c in "012" else -1 for c in s)

    @classmethod
    def from_index(cls, n: int, index: int) -> "TritVector":
        if not 0 <= index < 3**n:
            raise ValueError(f"index {index} outside F_3^{n}")
        lo = hi = 0
        for i in range(n - 1, -1, -1):
            index, t = divmod(index, 3)
            if t == 1:
                lo |= 1 << i
            elif t == 2:
                hi |= 1 << i
        return cls(n, lo, hi)

    @classmethod
    def zero(cls, n: int) -> "TritVector":
        return cls(n, 0, 0)

    @classmethod
    def unit(cls, n: int, coord: int, value: int = 1) -> "TritVector":
        """Vector with a single nonzero trit at the given coordinate."""
        if not 0 <= coord < n:
            raise ValueError("coordinate outside dimension")
        if value == 1:
            return cls(n, 1 << coord, 0)
        if value == 2:
            return cls(n, 0, 1 << coord)
        raise ValueError("unit value must be 1 or 2")

    # -- component access ------------------------------------------------

    def trit(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise IndexError(i)
        return ((self.lo >> i) & 1) + 2 * ((self.hi >> i) & 1)

    def trits(self) -> tuple[int, ...]:
        return tuple(self.trit(i) for i in range(self.n))

    @property
    def index(self) -> int:
        """Canonical index: the string form read as a base-3 numeral."""
        acc = 0
        for i in range(self.n):
            acc = 3 * acc + self.trit(i)
        return acc

    def is_zero(self) -> bool:
        return self.lo == 0 and self.hi == 0

    # -- arithmetic -------------------------------------------------------

    def _check(self, other: "TritVector") -> None:
        if self.n != other.n:
            raise DimensionMismatchError(f"{self.n} != {other.n}")

    def __add__(self, other: "TritVector") -> "TritVector":
        self._check(other)
        lo, hi = plane_add(self.lo, self.hi, other.lo, other.hi)
        return TritVector(self.n, lo, hi)

    def __neg__(self) -> "TritVector":
        return TritVector(self.n, self.hi, self.lo)

    def __sub__(self, other: "TritVector") -> "TritVector":
        return self + (-other)

    def scale(self, k: int) -> "TritVector":
        k %= 3
        if k == 0:
            return TritVector.zero(self.n)
        return self if k == 1 else -self

    def dot(self, other: "TritVector") -> int:
        self._check(other)
        return plane_dot(self.lo, self.hi, other.lo, other.hi)

    # -- ordering / display ------------------------------------------------

    def __lt__(self, other: "TritVector") -> bool:
        self._check(other)
        return self.index < other.index

    def __str__(self) -> str:
        return "".join(str(self.trit(i)) for i in range(self.n))

    def __repr__(self) -> str:
        return f"TritVector({str(self)!r})"


@dataclass(frozen=True, slots=True)
class Eisenstein:
    """Eisenstein integer p + q*w, with w = exp(2*pi*i/3).

    Multiplication uses w^2 = -1 - w. The norm p^2 - p*q + q^2 is the
    squared complex modulus, hence multiplicative and nonnegative.
    """

    p: int
    q: int

    def __add__(self, other: "Eisenstein") -> "Eisenstein":
        return Eisenstein(self.p + other.p, self.q + other.q)

    def __sub__(self, other: "Eisenstein") -> "Eisenstein":
        return Eisenstein(self.p - other.p, self.q - other.q)

    def __neg__(self) -> "Eisenstein":
        return Eisenstein(-self.p, -self.q)

    def __mul__(self, other: object) -> "Eisenstein":
        if isinstance(other, Eisenstein):
            p, q, r, s = self.p, self.q, other.p, other.q
            return Eisenstein(p * r - q * s, p * s + q * r - q * s)
        if isinstance(other, int):
            return Eisenstein(self.p * other, self.q * other)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Eisenstein":
        if k < 0:
            raise ValueError("negative powers leave the ring")
        return reduce(Eisenstein.__mul__, [self] * k, ONE)

    def conj(self) -> "Eisenstein":
        """Complex conjugate: w -> w^2."""
        return Eisenstein(self.p - self.q, -self.q)

    def norm(self) -> int:
        return self.p * self.p - self.p * self.q + self.q * self.q

    def is_zero(self) -> bool:
        return self.p == 0 and self.q == 0

    def __repr__(self) -> str:
        return f"Eisenstein({self.p}, {self.q})"


ZERO = Eisenstein(0, 0)
ONE = Eisenstein(1, 0)
OMEGA = Eisenstein(0, 1)
OMEGA2 = Eisenstein(-1, -1)

_CHAR = (ONE, OMEGA, OMEGA2)


def character(t: int) -> Eisenstein:
    """w^t for a residue t; the additive character F_3 -> Eisenstein units."""
    return _CHAR[t % 3]
