"""Place-difference-value pattern quadruples and the standard family constructors.

A pattern is a quadruple (base, X, Y, Z): `base` fixes the order type of an
occurrence, the m+1 sets X constrain the gaps between chosen indices
(including the boundary gaps to the sentinel indices 0 and n+1), each Y
triple (s, t, D) demands |value_s - value_t| in D (with sentinel values 0
below and n+1 resp. the alphabet size above), and the m sets Z constrain the
values themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .intset import IntSet, POSITIVES, finite


class Mode(Enum):
    PERMUTATION = "permutation"
    WORD = "word"


class YTriple(NamedTuple):
    s: int
    t: int
    diffs: IntSet


@dataclass(frozen=True)
class Pdvp:
    mode: Mode
    base: tuple[int, ...]
    x: tuple[IntSet, ...]
    y: tuple[YTriple, ...]
    z: tuple[IntSet, ...]

    def __post_init__(self):
        # matching hits pattern hashes in tight loops; compute once
        object.__setattr__(
            self, "_hash", hash((self.mode, self.base, self.x, self.y, self.z))
        )
        m = len(self.base)
        if m < 1:
            raise ValueError("pattern base must be non-empty")
        if any(b < 1 for b in self.base):
            raise ValueError("base letters must be positive")
        if self.mode is Mode.PERMUTATION:
            if sorted(self.base) != list(range(1, m + 1)):
                raise ValueError(f"base {self.base} is not a permutation of 1..{m}")
        else:
            if set(self.base) != set(range(1, max(self.base) + 1)):
                raise ValueError(
                    f"word base {self.base} must use every letter 1..{max(self.base)}"
                )
        if len(self.x) != m + 1:
            raise ValueError(f"X needs {m + 1} sets, got {len(self.x)}")
        if len(self.z) != m:
            raise ValueError(f"Z needs {m} sets, got {len(self.z)}")
        for s, t, _ in self.y:
            if not (0 <= s < t <= m + 1):
                raise ValueError(f"Y triple indices must satisfy 0 <= s < t <= {m + 1}")

    def __hash__(self) -> int:
        return self._hash

    @property
    def m(self) -> int:
        return len(self.base)


def _as_base(base) -> tuple[int, ...]:
    if isinstance(base, int):
        return tuple(int(ch) for ch in str(base))
    if isinstance(base, str):
        return tuple(int(ch) for ch in base)
    return tuple(base)


def make_classical(base, mode: Mode = Mode.PERMUTATION) -> Pdvp:
    """Order type only: every X and Z is P, no Y triples."""
    b = _as_base(base)
    m = len(b)
    return Pdvp(mode, b, (POSITIVES,) * (m + 1), (), (POSITIVES,) * m)


def _gp_parts(dashed: str) -> tuple[tuple[int, ...], list[bool]]:
    """Split a dashed pattern like '2-31' into letters and per-gap adjacency flags."""
    letters: list[int] = []
    adjacent: list[bool] = []
    prev_was_letter = False
    for ch in dashed:
        if ch.isdigit():
            if ch == "0":
                raise ValueError("pattern letters are 1..9")
            if prev_was_letter:
                adjacent.append(True)
            letters.append(int(ch))
            prev_was_letter = True
        elif ch == "-":
            if not prev_was_letter:
                raise ValueError(f"misplaced dash in {dashed!r}")
            adjacent.append(False)
            prev_was_letter = False
        else:
            raise ValueError(f"unexpected character {ch!r} in {dashed!r}")
    if not prev_was_letter:
        raise ValueError(f"pattern {dashed!r} must end with a letter")
    return tuple(letters), adjacent


def make_gp(dashed: str, mode: Mode = Mode.PERMUTATION) -> Pdvp:
    """Dashed pattern: undashed neighbours must sit on adjacent positions.

    '2-31' keeps the 3 and the 1 adjacent; '2-3-1' is the classical 231.
    """
    letters, adjacent = _gp_parts(dashed)
    m = len(letters)
    one = finite([1])
    interior = tuple(one if adj else POSITIVES for adj in adjacent)
    x = (POSITIVES,) + interior + (POSITIVES,)
    return Pdvp(mode, letters, x, (), (POSITIVES,) * m)


def make_xy_descent(top: IntSet, bottom: IntSet) -> Pdvp:
    """Adjacent descent whose top value lies in `top` and bottom value in `bottom`."""
    return Pdvp(
        Mode.PERMUTATION,
        (2, 1),
        (POSITIVES, finite([1]), POSITIVES),
        (),
        (top, bottom),
    )


def make_des_k(k: int, mode: Mode = Mode.PERMUTATION) -> Pdvp:
    """Adjacent descent dropping by exactly k."""
    if k < 0:
        raise ValueError("descent difference must be non-negative")
    if k == 0 and mode is Mode.PERMUTATION:
        raise ValueError("difference 0 is impossible between distinct values")
    return Pdvp(
        mode,
        (2, 1),
        (POSITIVES, finite([1]), POSITIVES),
        (YTriple(1, 2, finite([k])),),
        (POSITIVES, POSITIVES),
    )
