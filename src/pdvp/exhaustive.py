"""Exhaustive enumeration over all permutations of S_n or words of {1..t}^n.

Every scan here is one depth-first walk over prefixes (`prefix_walk`): a
prefix of length p already decides every occurrence that ends at p, so each
step adds the occurrences ending at the new position, and a branch is
dropped as soon as an avoided pattern ends there.  Only the walk's buffer is
ever materialised.  The one exception is a single-length word scan
(`word_distribution`, `word_multi_avoiders`) whose patterns are all
bounded-window statistics (`transfer.StatPattern`): its answer is row n of
the series of their window automaton, which `transfer.series_row` reads
without visiting a word.  When the series budgets refuse that row, the walk
answers instead.

The every-length word scans, `word_distributions` and `word_avoider_counts`,
always walk: they are the scan oracle that `verify` (a3, d4) and the tests
compare the automaton with, and with the per-object recounts of the tests
they are the ground truth for every closed formula and generating function
in the toolkit.

Before it starts, every scan (of `dist`, `avoid`, `problem` and `verify`)
counts the nodes of its walks unpruned, and `check_scan` refuses it when they
exceed `PDVP_BUDGET`, 10^8 when unset: S_10 (9864100 nodes) passes and S_11
does not.  This holds on the automaton's path too.  `gf` keeps its own limits.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

from . import matcher, transfer
from .pattern import Mode, Pdvp

DEFAULT_SCAN_BUDGET = 10**8  # walk nodes of one scan when PDVP_BUDGET is unset


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


def check_scan(pats: Sequence[Pdvp], t: int | None, n: int, each_length: bool = False) -> None:
    """Validate a scan of `pats` over S_n (t None) or {1..t}^n, one walk of
    length n or, with `each_length`, one of every length 0..n, and refuse it
    when the walks' unpruned nodes exceed the budget: PDVP_BUDGET if set,
    else DEFAULT_SCAN_BUDGET.

    A walk of length k has a node per prefix of length d = 1..k: k!/(k-d)! of
    them over S_k and t^d over {1..t}^k, so W(k) = f(k) * (1 + W(k - 1)) with
    W(0) = 0 and f(k) = k or t.  The count is exact below 8^D, D the limit
    on the digits of an int converted to str, so it prints; past that it
    stops, and the refusal says so.
    """
    perm = t is None
    if not perm and t < 1:
        raise ValueError("alphabet size must be positive")
    if n < 0:
        raise ValueError(f"length must be non-negative, got {n}")
    raw = os.environ.get("PDVP_BUDGET")
    budget = int(raw) if raw else DEFAULT_SCAN_BUDGET
    digits = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    ceiling = 1 << 3 * digits  # 8^D
    if t == 1:
        nodes = n * (n + 1) // 2 if each_length else n  # one node per length
    else:
        walk = nodes = 0
        for k in range(1, n + 1):
            walk = (k if perm else t) * (walk + 1)  # W(k)
            nodes = nodes + walk if each_length else walk
            if nodes >= ceiling:
                break
    if nodes > budget:
        size = f"at least 8^{digits}" if nodes >= ceiling else nodes
        raise EnumerationLimitError(f"scan of {size} walk nodes exceeds the budget {budget}")
    want = Mode.PERMUTATION if perm else Mode.WORD
    if any(pat.mode is not want for pat in pats):
        raise ValueError(f"{want.value} scan needs {want.value}-mode patterns")


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


def _walk_distribution(pat: Pdvp, t: int | None, n: int) -> DistributionTable:
    """The histogram of `pat` over S_n (t None) or {1..t}^n, by one walk."""
    return DistributionTable(n, _histogram(prefix_walk(n, t, count=pat)))


def _walk_avoiders(pats: list[Pdvp], t: int | None, n: int) -> int:
    """The objects of S_n (t None) or {1..t}^n avoiding `pats`, by one walk."""
    return sum(1 for _ in prefix_walk(n, t, avoid=pats))


def perm_distribution(pat: Pdvp, n: int) -> DistributionTable:
    """Histogram of occurrence counts of `pat` over all of S_n."""
    check_scan([pat], None, n)
    return _walk_distribution(pat, None, n)


def _series_row(pats: Sequence[Pdvp], t: int, n: int) -> dict[int, int] | None:
    """Row n of the window automaton's series for `pats` (see
    `transfer.series_row`), or None when a pattern is not a bounded-window
    statistic or the series budgets refuse the row."""
    try:
        sps = tuple(transfer.StatPattern(pat) for pat in pats)
        return transfer.series_row(sps, t, n)
    except (transfer.NotAStatistic, transfer.SeriesBudgetError):
        return None


def word_distribution(pat: Pdvp, t: int, n: int) -> DistributionTable:
    """Histogram of occurrence counts of `pat` over all words in {1..t}^n:
    row n of the window automaton's series when it answers, else a walk."""
    check_scan([pat], t, n)
    row = _series_row([pat], t, n)
    if row is None:
        return _walk_distribution(pat, t, n)
    return DistributionTable(n, row)


def _length_free(pat: Pdvp) -> bool:
    """Whether the occurrences ending at p are the same for every final length:
    a word pattern's closing gap set holds every positive integer."""
    return pat.x[-1].steps == (1,)


def word_distributions(pat: Pdvp, t: int, n_max: int) -> list[DistributionTable]:
    """`word_distribution` for every n = 0..n_max, by walks only: the scan
    oracle for the window automaton.

    When the pattern's occurrences do not depend on the final length, one
    walk to depth n_max settles every shorter word as a prefix; otherwise
    each length gets a walk of its own.
    """
    free = _length_free(pat)
    check_scan([pat], t, n_max, each_length=not free)
    if not free:
        return [_walk_distribution(pat, t, n) for n in range(n_max + 1)]
    by_length: list[dict[int, int]] = [{} for _ in range(n_max + 1)]
    for word, c in prefix_walk(n_max, t, count=pat, prefixes=True):
        counts = by_length[len(word)]
        counts[c] = counts.get(c, 0) + 1
    return [DistributionTable(n, dict(sorted(c.items()))) for n, c in enumerate(by_length)]


def perm_multi_avoiders(pats: Sequence[Pdvp], n: int) -> int:
    """Number of permutations in S_n avoiding every listed pattern."""
    pats = list(pats)
    check_scan(pats, None, n)
    return _walk_avoiders(pats, None, n)


def word_multi_avoiders(pats: Sequence[Pdvp], t: int, n: int) -> int:
    """Number of words in {1..t}^n avoiding every listed pattern: the z^0
    coefficient of row n of the window automaton's series when it answers,
    else a walk."""
    pats = list(pats)
    check_scan(pats, t, n)
    row = _series_row(pats, t, n)
    if row is None:
        return _walk_avoiders(pats, t, n)
    return row.get(0, 0)


def word_avoider_counts(pats: Sequence[Pdvp], t: int, n_max: int) -> list[int]:
    """`word_multi_avoiders` for every n = 0..n_max, by walks only: the scan
    oracle for the window automaton.  One walk settles every length when
    every pattern's occurrences do not depend on the final length."""
    pats = list(pats)
    free = all(_length_free(pat) for pat in pats)
    check_scan(pats, t, n_max, each_length=not free)
    if not free:
        return [_walk_avoiders(pats, t, n) for n in range(n_max + 1)]
    counts = [0] * (n_max + 1)
    for word, _ in prefix_walk(n_max, t, avoid=pats, prefixes=True):
        counts[len(word)] += 1
    return counts
