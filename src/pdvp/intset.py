"""Symbolic sets of non-negative integers with decidable membership.

These are the sets allowed in the place (X), difference (Y) and value (Z)
components of a pattern: the positive integers P, the evens E (which include
0), the odds O, the positive multiples kP of some k >= 2, explicit finite
sets, and finite unions of those.

Every such set has the same shape on x >= 1: a member is odd, or it is a
multiple of some step k (P is step 1, kP is step k, E is step 2 plus 0).
So a set is stored in one normal form of three fields:

* `odd`: all odd numbers are members;
* `steps`: the steps, a sorted antichain under divisibility;
* `extra`: the finitely many members the periodic part above misses
  (0 among them when 0 is a member).

A step that another step divides is dropped, and under `odd` a step
k = 2 (mod 4) becomes k/2 (its odd multiples are already in), so O+2P is P
and O+6P is O+3P.  The form is unique: equal sets compare, hash and render
alike however they were written.  Its size grows with the number of terms
written, not with their values, so 1000000007P or {10^12} cost nothing.
"""

from __future__ import annotations

from typing import Iterable


class IntSet:
    """An immutable set in normal form; build it with the module constructors."""

    __slots__ = ("odd", "steps", "extra")

    def __init__(self, odd: bool = False, steps: Iterable[int] = (), extra: Iterable[int] = ()):
        ks = set(steps)
        if any(k < 1 for k in ks):
            raise ValueError("steps must be positive")
        if odd:
            ks = {k // 2 if k % 4 == 2 else k for k in ks}
        self.steps = tuple(sorted(k for k in ks if not any(j < k and k % j == 0 for j in ks)))
        self.odd = bool(odd) and self.steps != (1,)
        members = set(extra)
        if any(v < 0 for v in members):
            raise ValueError("finite sets hold non-negative integers only")
        self.extra = frozenset()  # so that `in` below tests the periodic part alone
        self.extra = frozenset(v for v in members if v not in self)

    def __contains__(self, x: int) -> bool:
        if x in self.extra:
            return True
        if x <= 0:
            if x < 0:
                raise ValueError(f"membership domain is non-negative integers, got {x}")
            return False
        if self.odd and x & 1:
            return True
        for k in self.steps:
            if x % k == 0:
                return True
        return False

    def members_up_to(self, limit: int) -> tuple[int, ...]:
        """All members <= limit, ascending.  Used to enumerate index gaps."""
        out = {v for v in self.extra if v <= limit}
        if self.odd:
            out.update(range(1, limit + 1, 2))
        for k in self.steps:
            out.update(range(k, limit + 1, k))
        return tuple(sorted(out))

    def finite_bound(self) -> int | None:
        """Largest member if the set is finite and non-empty, else None."""
        if self.odd or self.steps or not self.extra:
            return None
        return max(self.extra)

    def __or__(self, other: "IntSet") -> "IntSet":
        return IntSet(self.odd or other.odd, self.steps + other.steps, self.extra | other.extra)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IntSet)
            and self.odd == other.odd
            and self.steps == other.steps
            and self.extra == other.extra
        )

    def __hash__(self) -> int:
        return hash((self.odd, self.steps, self.extra))

    def __repr__(self) -> str:
        return f"IntSet(odd={self.odd}, steps={self.steps}, extra={tuple(sorted(self.extra))})"


POSITIVES = IntSet(steps=(1,))
EVENS = IntSet(steps=(2,), extra=(0,))
ODDS = IntSet(odd=True)


def multiples(k: int) -> IntSet:
    """Positive multiples of k; multiples(1) is POSITIVES."""
    if k < 1:
        raise ValueError(f"multiples requires k >= 1, got {k}")
    return IntSet(steps=(k,))


def finite(values: Iterable[int]) -> IntSet:
    return IntSet(extra=values)


def union(a: IntSet, b: IntSet) -> IntSet:
    return a | b
