"""Shared exception types.

Exit-code mapping used by the CLI: usage and malformed input -> 1,
identity violation -> 2, resource guard -> 3.
"""

from __future__ import annotations

__all__ = [
    "DimensionMismatchError",
    "GuardExceededError",
    "IdentityViolationError",
    "SetFileError",
    "guard",
]


class DimensionMismatchError(ValueError):
    """Operands live in different ambient dimensions."""


class SetFileError(ValueError):
    """Point-set file is malformed (bad header, bad digits, duplicates)."""


class GuardExceededError(RuntimeError):
    """A resource guard refused a run: value exceeds the limit for what.

    Guards exist so desk-scale commands fail fast instead of thrashing,
    and none of them can be lifted. args is the (what, value, limit) triple.
    """

    def __init__(self, what: str, value: int, limit: int):
        self.what = what
        self.value = value
        self.limit = limit
        super().__init__(what, value, limit)

    def __str__(self) -> str:
        return f"{self.what} {self.value} exceeds the limit {self.limit}"


def guard(what: str, value: int, limit: int) -> None:
    """Refuse a run whose value exceeds limit, before it allocates anything."""
    if value > limit:
        raise GuardExceededError(what, value, limit)


class IdentityViolationError(RuntimeError):
    """An exact identity that must hold failed.

    This always indicates a bug (or memory corruption), never bad input,
    so it is loud and carries both sides of the failed identity.
    """

    def __init__(self, what: str, lhs: object, rhs: object):
        self.what = what
        self.lhs = lhs
        self.rhs = rhs
        super().__init__(f"{what}: {lhs} != {rhs}")
