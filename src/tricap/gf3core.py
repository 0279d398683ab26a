"""Exact base types: vectors over F_3 and Eisenstein integers.

A vector in F_3^n is stored as two bit planes packed into Python ints:
bit i of ``lo`` is set when trit i equals 1, bit i of ``hi`` when it
equals 2. Componentwise mod-3 arithmetic is branch-free bit logic, so
vector operations cost a handful of word ops regardless of n.

Coordinate 0 is the leftmost digit of the canonical string form and the
most significant digit of the canonical index: a vector's index is its
string read as a base-3 numeral. Frequency tables and point sets are
ordered by this index everywhere.

An Eisenstein integer p + q*w (w a primitive cube root of unity) is the
exact value of one character sum: a (p, q) pair of plain Python ints
with its norm. The arithmetic on these values runs on whole coefficient
planes, in fourier.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DimensionMismatchError

__all__ = [
    "DENSE_MAX_N",
    "MAX_DIM",
    "Eisenstein",
    "TritVector",
    "plane_add",
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
    def from_string(cls, s: str) -> "TritVector":
        lo = hi = 0
        for i, c in enumerate(s):
            if c == "1":
                lo |= 1 << i
            elif c == "2":
                hi |= 1 << i
            elif c != "0":
                raise ValueError(f"trit {c!r} not in 0..2")
        return cls(len(s), lo, hi)

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

    # -- display ------------------------------------------------------------

    def __str__(self) -> str:
        return "".join(str(self.trit(i)) for i in range(self.n))

    def __repr__(self) -> str:
        return f"TritVector({str(self)!r})"


@dataclass(frozen=True, slots=True)
class Eisenstein:
    """Eisenstein integer p + q*w, with w = exp(2*pi*i/3).

    The norm p^2 - p*q + q^2 is the squared complex modulus, hence
    nonnegative and zero only at 0.
    """

    p: int
    q: int

    def norm(self) -> int:
        return self.p * self.p - self.p * self.q + self.q * self.q

    def __repr__(self) -> str:
        return f"Eisenstein({self.p}, {self.q})"
