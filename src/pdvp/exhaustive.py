"""Exhaustive enumeration over all permutations of S_n or words of {1..t}^n.

Every scan here is one depth-first walk over prefixes (`prefix_walk`): a
prefix of length p already decides every occurrence that ends at p, so each
step adds the occurrences ending at the new position, and a branch is
dropped as soon as an avoided pattern ends there.  Only the walk's buffer is
ever materialised.  A walk has one of two child steps:

* the value walk appends an unused value (over S_n) or any letter (over
  {1..t}^n), so it visits the objects in lexicographic order;
* the generating tree (West 1996) appends a last entry of rank r in 1..d+1
  to a permutation of S_d.  A permutation scan takes it when every pattern
  is order-only (`order_only`): then the occurrences ending at a position
  depend only on how the prefix is ordered, and the tree visits each
  permutation of S_d once, for every d.

The one exception to walking is a single-length word scan
(`word_distribution`, `word_multi_avoiders`) whose patterns are all
bounded-window statistics (`transfer.StatPattern`): its answer is row n of
the series of their window automaton (`transfer.series_row`) when that
row's predicted work fits the budget (see `budget`), and a walk otherwise.

The every-length word scans, `word_distributions` and `word_avoider_counts`,
always walk: they are the scan oracle that `verify` (a3, d4) and the tests
compare the automaton with, and with the per-object recounts of the tests
they are the ground truth for every closed formula and generating function
in the toolkit.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

from . import budget, matcher, transfer
from .pattern import Mode, Pdvp


@dataclass(frozen=True)
class DistributionTable:
    """For each occurrence count m, the number of length-n objects attaining it."""

    length: int
    counts: Mapping[int, int]

    def __getitem__(self, m: int) -> int:
        return self.counts.get(m, 0)

    def total(self) -> int:
        return sum(self.counts.values())


def order_only(pat: Pdvp) -> bool:
    """Whether the occurrences of `pat` in a permutation depend only on how its
    entries are ordered: every Z set and every Y set holds every positive
    integer.  Then a Z or Y test passes on any distinct positive values below
    the high sentinel, and the gap sets X constrain positions only."""
    return all(s.steps == (1,) for s in pat.z) and all(d.steps == (1,) for _, _, d in pat.y)


def check_scan(pats: Sequence[Pdvp], t: int | None, n: int, each_length: bool = False) -> bool:
    """Validate a scan of `pats` over S_n (t None) or {1..t}^n and check its
    predicted work (see `budget`): one walk of length n or, with
    `each_length`, n + 1 rows, from one walk when every pattern's closing gap
    set is P (its occurrences do not depend on the final length) and the
    scan is over words or on the generating tree, else from one walk per
    length.  Returns whether one walk does.

    A walk of length k holds k positions and has a node, a step, per prefix
    of length d = 1..k that it tries, counted unpruned: over {1..t}^k t^d of
    them and over S_k by values k!/(k-d)!, so W(k) = f(k) * (1 + W(k - 1))
    with W(0) = 0 and f(k) = t or k; on the generating tree (every pattern
    order-only) d!, so W(k) = 1! + 2! + ... + k!.
    """
    perm = t is None
    if not perm and t < 1:
        raise ValueError("alphabet size must be positive")
    if n < 0:
        raise ValueError(f"length must be non-negative, got {n}")
    tree = perm and all(map(order_only, pats))
    one_walk = not each_length or (
        (tree or not perm) and all(pat.x[-1].steps == (1,) for pat in pats))
    if t == 1:
        nodes = n if one_walk else n * (n + 1) // 2  # one node per length
    else:
        top = budget.ceiling()
        walk = nodes = 0
        k_factorial = 1
        for k in range(1, n + 1):
            if tree:
                k_factorial *= k
                walk += k_factorial
            else:
                walk = (k if perm else t) * (walk + 1)  # W(k)
            nodes = walk if one_walk else nodes + walk
            if nodes >= top:
                break
    rows = (n + 1) * each_length
    budget.check_work("scan", nodes, n * budget.WALK_POSITION_BITS + rows * budget.ROW_BITS)
    want = Mode.PERMUTATION if perm else Mode.WORD
    if any(pat.mode is not want for pat in pats):
        raise ValueError(f"{want.value} scan needs {want.value}-mode patterns")
    return one_walk


def prefix_walk(
    n: int,
    t: int | None = None,
    avoid: Sequence[Pdvp] = (),
    count: Pdvp | None = None,
    cap: int | None = None,
    prefixes: bool = False,
) -> Iterator[tuple[list[int], int]]:
    """Walk S_n (t None) or {1..t}^n one position at a time.

    Yields (entries, c) for every object that no pattern in `avoid` occurs
    in: c is the number of occurrences of `count`, 0 when it is None.  A
    branch is dropped once an avoided pattern ends at its last position, or
    once c exceeds `cap`.  `entries` is the walk's own buffer: it is valid
    until the next item is drawn.  With `prefixes`, every shorter prefix the
    walk keeps is yielded too, before its extensions, as a list of its own;
    its count is that of a sequence of final length n, which for a pattern
    whose X_m holds every positive integer is its own.  The walk keeps its
    own stack of candidate iterators, so n is not bounded by the recursion
    limit.

    Over words a child appends any letter, and on the value walk over S_n
    any value it has not placed, so the objects come in lexicographic order.
    When every pattern is order-only (`order_only`) the walk is the
    generating tree instead: a child takes the midpoint of a gap between
    consecutive values of the sorted prefix, with 0 and `top` at its ends,
    the child of rank r before that of rank r + 1.  Its entries are then
    order-isomorphic to a permutation of S_d, not the permutation itself,
    and the permutations come in generating-tree order.  With top = 2^n
    every gap between d placed values spans at least 2^(n-d), so depth n
    never closes a gap; `top` is also the high sentinel the patterns see.
    """
    perm = t is None
    tree = perm and all(map(order_only, avoid if count is None else [*avoid, count]))
    by_value = perm and not tree  # the value walk over S_n
    top = (1 << n if tree else n + 1) if perm else t
    letters = range(1, (n if perm else t) + 1)
    stops = [matcher.search_ending_at(p, n, top, first=True) for p in avoid]
    tally = None if count is None else matcher.search_ending_at(count, n, top)
    buf = [0] * n
    used = [False] * (n + 1)  # used[v]: the value walk has placed v
    within = [0] * (n + 1)  # within[d]: the occurrences inside buf[:d]
    if n == 0 or prefixes:
        yield buf[:0], 0
        if n == 0:
            return
    # rows[d - 1]: the candidates for position d
    rows = [iter([top >> 1] if tree else letters)] + [None] * n
    d = 1  # the position being filled
    while d:
        for v in rows[d - 1]:
            if by_value and used[v]:
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
            if by_value and d:
                used[buf[d - 1]] = False
            continue
        if d == n:
            yield buf, got
            continue
        if prefixes:
            yield buf[:d], got
        if by_value:
            used[v] = True
        within[d] = got
        if tree:
            ends = [0, *sorted(buf[:d]), top]
            rows[d] = iter([(lo + hi) >> 1 for lo, hi in zip(ends, ends[1:])])
        else:
            rows[d] = iter(letters)
        d += 1


def _walk_distribution(pat: Pdvp, t: int | None, n: int) -> DistributionTable:
    """The histogram of `pat` over S_n (t None) or {1..t}^n, by one checked walk."""
    check_scan([pat], t, n)
    counts = Counter(c for _, c in prefix_walk(n, t, count=pat))
    return DistributionTable(n, dict(sorted(counts.items())))


def _walk_avoiders(pats: list[Pdvp], t: int | None, n: int) -> int:
    """The objects of S_n (t None) or {1..t}^n avoiding `pats`, by one checked walk."""
    check_scan(pats, t, n)
    return sum(1 for _ in prefix_walk(n, t, avoid=pats))


def perm_distribution(pat: Pdvp, n: int) -> DistributionTable:
    """Histogram of occurrence counts of `pat` over all of S_n."""
    return _walk_distribution(pat, None, n)


def _series_row(pats: Sequence[Pdvp], t: int, n: int) -> dict[int, int] | None:
    """Row n of the window automaton's series for `pats`, or None when a size is
    out of range, a pattern is no statistic or the row's work does not fit."""
    if t < 1 or n < 0 or any(map(transfer.statistic_refusal, pats)):
        return None
    sps = tuple(map(transfer.StatPattern, pats))
    fits = budget.check_work("series", *transfer.series_work(sps, t, n, 1), refuse=False)
    return transfer.series_row(sps, t, n) if fits else None


def word_distribution(pat: Pdvp, t: int, n: int) -> DistributionTable:
    """Histogram of occurrence counts of `pat` over all words in {1..t}^n:
    row n of the window automaton's series when it answers, else a walk."""
    row = _series_row([pat], t, n)
    return _walk_distribution(pat, t, n) if row is None else DistributionTable(n, row)


def _walk_distributions(pat: Pdvp, t: int | None, n_max: int) -> list[DistributionTable]:
    """The histograms of `pat` over S_n (t None) or {1..t}^n for every n =
    0..n_max: from one walk to depth n_max when `check_scan` says it settles
    every shorter length as a prefix, else from one walk per length."""
    if not check_scan([pat], t, n_max, each_length=True):
        return [_walk_distribution(pat, t, n) for n in range(n_max + 1)]
    by_length: list[dict[int, int]] = [{} for _ in range(n_max + 1)]
    for entries, c in prefix_walk(n_max, t, count=pat, prefixes=True):
        counts = by_length[len(entries)]
        counts[c] = counts.get(c, 0) + 1
    return [DistributionTable(n, dict(sorted(c.items()))) for n, c in enumerate(by_length)]


def perm_distributions(pat: Pdvp, n_max: int) -> list[DistributionTable]:
    """`perm_distribution` for every n = 0..n_max: one walk over the generating
    tree when `pat` is order-only and its closing gap set is P."""
    return _walk_distributions(pat, None, n_max)


def word_distributions(pat: Pdvp, t: int, n_max: int) -> list[DistributionTable]:
    """`word_distribution` for every n = 0..n_max, by walks only: the scan
    oracle for the window automaton.  One walk settles every length when the
    pattern's closing gap set is P."""
    return _walk_distributions(pat, t, n_max)


def perm_multi_avoiders(pats: Sequence[Pdvp], n: int) -> int:
    """Number of permutations in S_n avoiding every listed pattern."""
    return _walk_avoiders(list(pats), None, n)


def word_multi_avoiders(pats: Sequence[Pdvp], t: int, n: int) -> int:
    """Number of words in {1..t}^n avoiding every listed pattern: the z^0
    coefficient of row n of the window automaton's series when it answers,
    else a walk."""
    pats = list(pats)
    row = _series_row(pats, t, n)
    return _walk_avoiders(pats, t, n) if row is None else row.get(0, 0)


def word_avoider_counts(pats: Sequence[Pdvp], t: int, n_max: int) -> list[int]:
    """`word_multi_avoiders` for every n = 0..n_max, by walks only: the scan
    oracle for the window automaton.  One walk settles every length when
    every pattern's occurrences do not depend on the final length."""
    pats = list(pats)
    if not check_scan(pats, t, n_max, each_length=True):
        return [_walk_avoiders(pats, t, n) for n in range(n_max + 1)]
    counts = [0] * (n_max + 1)
    for word, _ in prefix_walk(n_max, t, avoid=pats, prefixes=True):
        counts[len(word)] += 1
    return counts
