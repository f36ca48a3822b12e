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


def _check_perm(pats: Sequence[Pdvp], n: int, limit: int | None):
    limit = DEFAULT_PERM_LIMIT if limit is None else limit
    if n < 0:
        raise ValueError(f"length must be non-negative, got {n}")
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
    if n < 0:
        raise ValueError(f"length must be non-negative, got {n}")
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
    count: Pdvp | None = None,
    cap: int | None = None,
    prefixes: bool = False,
) -> Iterator[tuple[list[int], int]]:
    """Walk S_n (t None) or {1..t}^n in lexicographic order, one position at a time.

    Yields (entries, c) for every object that no pattern in `avoid` occurs
    in: c is the number of occurrences of `count`, 0 when it is None.  A
    branch is dropped once an avoided pattern ends at its last position, or
    once c exceeds `cap`.  `entries` is the walk's own buffer: it is valid
    until the next item is drawn.  With `prefixes`, every shorter prefix the
    walk keeps is yielded too, before its extensions, as a list of its own;
    its count is that of a sequence of final length n, which for a word
    pattern whose X_m holds every positive integer is its own.  The walk
    keeps its own stack of candidate iterators, so n is not bounded by the
    recursion limit.
    """
    perm = t is None
    upper = n + 1 if perm else t
    letters = range(1, (n if perm else t) + 1)
    stops = [matcher.search_ending_at(p, n, upper, first=True) for p in avoid]
    tally = None if count is None else matcher.search_ending_at(count, n, upper)
    buf = [0] * n
    used = [False] * (n + 1)
    within = [0] * (n + 1)  # within[d]: the occurrences inside buf[:d]
    if n == 0 or prefixes:
        yield buf[:0], 0
        if n == 0:
            return
    rows = [iter(letters)] + [None] * n  # rows[d - 1]: the candidates for position d
    d = 1  # the position being filled
    while d:
        for v in rows[d - 1]:
            if perm and used[v]:
                continue
            buf[d - 1] = v
            for stop in stops:
                if stop(buf, d):
                    break  # to the next candidate v
            else:
                got = within[d - 1]
                if tally:
                    got += tally(buf, d)
                    if cap is not None and got > cap:
                        continue
                break  # v is placed
        else:
            d -= 1
            if perm and d:
                used[buf[d - 1]] = False
            continue
        if d == n:
            yield buf, got
            continue
        if prefixes:
            yield buf[:d], got
        if perm:
            used[v] = True
        within[d] = got
        rows[d] = iter(letters)
        d += 1


def _histogram(walk) -> dict[int, int]:
    counts: dict[int, int] = {}
    for _, c in walk:
        counts[c] = counts.get(c, 0) + 1
    return dict(sorted(counts.items()))


def perm_distribution(pat: Pdvp, n: int, limit: int | None = None) -> DistributionTable:
    """Histogram of occurrence counts of `pat` over all of S_n."""
    _check_perm([pat], n, limit)
    return DistributionTable(n, _histogram(prefix_walk(n, count=pat)))


def word_distribution(
    pat: Pdvp, t: int, n: int, budget: int | None = None
) -> DistributionTable:
    """Histogram of occurrence counts of `pat` over all words in {1..t}^n."""
    _check_word([pat], t, n, budget)
    return DistributionTable(n, _histogram(prefix_walk(n, t, count=pat)))


def _length_free(pat: Pdvp) -> bool:
    """Whether the occurrences ending at p are the same for every final length:
    a word pattern's closing gap set holds every positive integer."""
    return pat.x[-1].steps == (1,)


def word_distributions(
    pat: Pdvp, t: int, n_max: int, budget: int | None = None
) -> list[DistributionTable]:
    """`word_distribution` for every n = 0..n_max.

    When the pattern's occurrences do not depend on the final length, one
    walk to depth n_max settles every shorter word as a prefix; otherwise
    each length gets a walk of its own.
    """
    _check_word([pat], t, n_max, budget)
    if not _length_free(pat):
        return [word_distribution(pat, t, n, budget) for n in range(n_max + 1)]
    by_length: list[dict[int, int]] = [{} for _ in range(n_max + 1)]
    for word, c in prefix_walk(n_max, t, count=pat, prefixes=True):
        counts = by_length[len(word)]
        counts[c] = counts.get(c, 0) + 1
    return [DistributionTable(n, dict(sorted(c.items()))) for n, c in enumerate(by_length)]


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


def word_avoider_counts(
    pats: Sequence[Pdvp], t: int, n_max: int, budget: int | None = None
) -> list[int]:
    """`word_multi_avoiders` for every n = 0..n_max, by one walk when every
    pattern's occurrences do not depend on the final length."""
    pats = list(pats)
    _check_word(pats, t, n_max, budget)
    if not all(_length_free(pat) for pat in pats):
        return [word_multi_avoiders(pats, t, n, budget) for n in range(n_max + 1)]
    counts = [0] * (n_max + 1)
    for word, _ in prefix_walk(n_max, t, avoid=pats, prefixes=True):
        counts[len(word)] += 1
    return counts
