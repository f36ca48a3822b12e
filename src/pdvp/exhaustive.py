"""Exhaustive enumeration over all permutations of S_n or words of {1..t}^n.

These scans are the ground truth that every closed formula and generating
function in the toolkit is validated against.  All of them are one
depth-first walk over prefixes (`prefix_walk`): a prefix of length p already
decides every occurrence that ends at p, so each step adds the occurrences
ending at the new position, and a branch is dropped as soon as an avoided
pattern ends there.  Only the walk's buffer is ever materialised.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

from . import matcher
from .pattern import Mode, Pdvp

DEFAULT_PERM_LIMIT = 10
DEFAULT_WORD_BUDGET = 10**8


class EnumerationLimitError(ValueError):
    pass


@dataclass(frozen=True)
class DistributionTable:
    """For each occurrence count m, the number of length-n objects attaining it."""

    length: int
    counts: Mapping[int, int]

    def __getitem__(self, m: int) -> int:
        return self.counts.get(m, 0)

    def total(self) -> int:
        return sum(self.counts.values())

    def max_occurrences(self) -> int:
        return max(self.counts) if self.counts else 0


def _check_perm(pats: Sequence[Pdvp], n: int, limit: int | None):
    limit = DEFAULT_PERM_LIMIT if limit is None else limit
    if n > limit:
        raise EnumerationLimitError(
            f"n = {n} exceeds the permutation scan limit {limit}"
        )
    for pat in pats:
        if pat.mode is not Mode.PERMUTATION:
            raise ValueError("permutation scan needs permutation-mode patterns")


def _check_word(pats: Sequence[Pdvp], t: int, n: int, budget: int | None):
    budget = DEFAULT_WORD_BUDGET if budget is None else budget
    if t < 1:
        raise ValueError("alphabet size must be positive")
    if t**n > budget:
        raise EnumerationLimitError(
            f"{t}^{n} words exceed the scan budget {budget}"
        )
    for pat in pats:
        if pat.mode is not Mode.WORD:
            raise ValueError("word scan needs word-mode patterns")


def prefix_walk(
    n: int,
    t: int | None = None,
    avoid: Sequence[Pdvp] = (),
    count: Sequence[Pdvp] = (),
    cap: int | None = None,
) -> Iterator[tuple[list[int], tuple[int, ...]]]:
    """Walk S_n (t None) or {1..t}^n in lexicographic order, one position at a time.

    Yields (entries, counts) for every object that no pattern in `avoid`
    occurs in: `counts` holds the occurrences of each pattern in `count`.
    A branch is dropped once an avoided pattern ends at its last position,
    or once a count exceeds `cap`.  `entries` is the walk's own buffer: it
    is valid until the next item is drawn.  The walk keeps an explicit
    stack, so n is not bounded by the recursion limit.
    """
    perm = t is None
    upper = n + 1 if perm else t
    letters = range(1, (n if perm else t) + 1)
    stops = [matcher.search_ending_at(p, n, upper, first=True) for p in avoid]
    tallies = [matcher.search_ending_at(p, n, upper) for p in count]
    buf = [0] * n
    used = [False] * (n + 1)
    totals = [(0,) * len(tallies)] * (n + 1)  # totals[d]: counts within buf[:d]
    if n == 0:
        yield buf, totals[0]
        return
    stack = [iter(letters)]
    while stack:
        d = len(stack)  # the position being filled
        for v in stack[-1]:
            if perm and used[v]:
                continue
            buf[d - 1] = v
            for stop in stops:
                if stop(buf, d):
                    break  # to the next candidate v
            else:
                got = totals[d - 1]
                if tallies:
                    got = tuple([c + tally(buf, d) for c, tally in zip(got, tallies)])
                    if cap is not None and max(got) > cap:
                        continue
                break  # v is placed
        else:
            stack.pop()
            if perm and stack:
                used[buf[d - 2]] = False
            continue
        if d == n:
            yield buf, got
            continue
        if perm:
            used[v] = True
        totals[d] = got
        stack.append(iter(letters))


def _histogram(walk) -> dict[int, int]:
    counts: dict[int, int] = {}
    for _, (c,) in walk:
        counts[c] = counts.get(c, 0) + 1
    return dict(sorted(counts.items()))


def perm_distribution(pat: Pdvp, n: int, limit: int | None = None) -> DistributionTable:
    """Histogram of occurrence counts of `pat` over all of S_n."""
    _check_perm([pat], n, limit)
    return DistributionTable(n, _histogram(prefix_walk(n, count=[pat])))


def word_distribution(
    pat: Pdvp, t: int, n: int, budget: int | None = None
) -> DistributionTable:
    """Histogram of occurrence counts of `pat` over all words in {1..t}^n."""
    _check_word([pat], t, n, budget)
    return DistributionTable(n, _histogram(prefix_walk(n, t, count=[pat])))


def perm_multi_avoiders(pats: Sequence[Pdvp], n: int, limit: int | None = None) -> int:
    """Number of permutations in S_n avoiding every listed pattern."""
    pats = list(pats)
    _check_perm(pats, n, limit)
    return sum(1 for _ in prefix_walk(n, avoid=pats))


def word_multi_avoiders(
    pats: Sequence[Pdvp], t: int, n: int, budget: int | None = None
) -> int:
    """Number of words in {1..t}^n avoiding every listed pattern."""
    pats = list(pats)
    _check_word(pats, t, n, budget)
    return sum(1 for _ in prefix_walk(n, t, avoid=pats))
