"""Exhaustive enumeration over all permutations of S_n or words of {1..t}^n.

Every scan starts from its plan (`plan_scan`): it validates the sizes and the
pattern modes, picks one of four paths and checks that path's predicted work
(see `budget`), all before any work starts.

* ``series``: a single-length word scan that avoids a set of bounded-window
  statistics (`transfer.StatPattern`), or counts one, reads row n of the
  series of their window automaton (`transfer.series_row`) when that is
  predicted to take no more steps than the word walk has nodes, and fits.
* ``tree``: a permutation scan whose patterns are all order-only
  (`order_only`) walks the generating tree (West 1996): a child appends a
  last entry of rank r in 1..d+1 to a permutation of S_d.  The occurrences
  ending at a position then depend only on how the prefix is ordered, and
  each permutation of S_d is visited once, for every d.
* ``values``: any other permutation scan appends an unused value.
* ``words``: any other word scan appends any letter.

`prefix_walk(plan)` streams the objects of every length the plan covers,
from one walk, or a walk per length when one cannot settle them all.  A
walk goes depth first over prefixes: a prefix of length p already decides
every occurrence that ends at p, so each step adds the occurrences ending
at the new position, and a branch is dropped as soon as an avoided pattern
ends there.  Only the walk's buffer is ever materialised.  The every-length
scans never read the series: they are the scan oracle that
`verify` (a3, d4) and the tests compare the automaton with, and with the
per-object recounts of the tests the ground truth for every closed formula
and generating function in the toolkit.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from operator import itemgetter
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


@dataclass(frozen=True)
class ScanPlan:
    """A scan over S_n (t None) or {1..t}^n whose predicted work fits: it drops
    the objects an `avoid` pattern occurs in and counts the occurrences of
    `count` (see `plan_scan`)."""

    avoid: tuple[Pdvp, ...]
    count: Pdvp | None
    t: int | None
    n: int
    path: str  # "series", "tree", "values" or "words"
    each_length: bool  # the scan asks for every length 0..n, not n alone
    one_walk: bool  # one walk settles every length the scan asks for


def plan_scan(avoid: Sequence[Pdvp], count: Pdvp | None, t: int | None, n: int,
              each_length: bool = False) -> ScanPlan:
    """The plan of a scan of length n or, with `each_length`, of every length
    0..n: validate t, n and the pattern modes, pick the path and check its
    predicted work, in that order.  A scan the series can answer takes it
    when `transfer.series_work` predicts at most as many steps as the word
    walk has nodes, and work that fits; else it walks the words.  Since a
    series the budget refuses then predicts more steps than the budget, so
    does the walk, and an admitted scan's path depends on its input alone.

    A walked every-length scan takes one walk when every pattern's closing
    gap set is P (its occurrences do not depend on the final length) and the
    path is not ``values``, else one walk per length, and returns n + 1
    rows.  A walk of length k holds k positions, each with its count when
    the scan counts a pattern, and has a node, a step,
    per prefix of length d = 1..k that it tries, counted unpruned: t^d over
    words and k!/(k-d)! by values, so W(k) = f(k) * (1 + W(k - 1)) with
    W(0) = 0 and f(k) = t or k; on the generating tree d!, so W(k) = 1! +
    2! + ... + k!.
    """
    perm = t is None
    if not perm and t < 1:
        raise ValueError("alphabet size must be positive")
    if n < 0:
        raise ValueError(f"length must be non-negative, got {n}")
    avoid = tuple(avoid)
    pats = avoid if count is None else (*avoid, count)
    want = Mode.PERMUTATION if perm else Mode.WORD
    if any(pat.mode is not want for pat in pats):
        raise ValueError(f"{want.value} scan needs {want.value}-mode patterns")
    path = ("tree" if all(map(order_only, pats)) else "values") if perm else "words"
    one_walk = not each_length or (
        path != "values" and all(pat.x[-1].steps == (1,) for pat in pats))
    if t == 1:
        nodes = n if one_walk else n * (n + 1) // 2  # one node per length
    else:
        top = budget.ceiling()
        walk = nodes = 0
        k_factorial = 1
        for k in range(1, n + 1):
            if path == "tree":
                k_factorial *= k
                walk += k_factorial
            else:
                walk = (k if perm else t) * (walk + 1)  # W(k)
            nodes = walk if one_walk else nodes + walk
            if nodes >= top:
                break
    mixed = avoid and count is not None  # the series counts one statistic
    if not (perm or each_length or mixed or any(map(transfer.statistic_refusal, pats))):
        steps, bits = transfer.series_work(tuple(map(transfer.StatPattern, pats)), t, n, 1)
        if steps <= nodes and budget.check_work("series", steps, bits, refuse=False):
            return ScanPlan(avoid, count, t, n, "series", each_length, one_walk)
    position = budget.WALK_POSITION_BITS if count is None else budget.COUNT_POSITION_BITS
    rows = (n + 1) * each_length
    budget.check_work("scan", nodes, n * position + rows * budget.ROW_BITS)
    return ScanPlan(avoid, count, t, n, path, each_length, one_walk)


def prefix_walk(plan: ScanPlan, cap: int | None = None) -> Iterator[tuple[list[int], int]]:
    """Walk the objects of every length the plan covers (n, or 0..n).

    Yields (entries, c) for every object that no pattern in plan.avoid occurs
    in, c the occurrences of plan.count (0 when it is None).  A branch is
    dropped once an avoided pattern ends at its last position, or once c
    exceeds `cap`.  An every-length plan with `one_walk` also yields each
    shorter prefix its walk keeps, before its extensions, as a list of its
    own with its own count (every closing gap set is P); any other takes a
    walk per length 0..n, in order.  An object as long as its walk is the
    walk's own buffer, valid until the next item is drawn.  Each walk keeps
    its own stack of candidate iterators, so the length is not bounded by
    the recursion limit.  Drawing from it raises ValueError for a series
    plan.

    Words and values come in lexicographic order.  On the tree a child takes
    the midpoint of a gap between consecutive values of the sorted prefix,
    with 0 and `top` at its ends, the child of rank r before that of rank
    r + 1, so the entries are order-isomorphic to a permutation of S_d and
    come in generating-tree order.  With top = 2^n every gap between d placed
    values spans at least 2^(n-d), so depth n never closes a gap; `top` is
    also the high sentinel the patterns see.
    """
    if plan.path == "series":
        raise ValueError(f"a series plan of length {plan.n} has no walk")
    tree = plan.path == "tree"
    by_value = plan.path == "values"
    prefixes = plan.each_length and plan.one_walk
    for n in [plan.n] if plan.one_walk else range(plan.n + 1):
        top = plan.t or (1 << n if tree else n + 1)
        letters = range(1, (plan.t or n) + 1)
        stops = [matcher.search_ending_at(p, n, top, first=True) for p in plan.avoid]
        tally = None if plan.count is None else matcher.search_ending_at(plan.count, n, top)
        buf = [0] * n
        used = [False] * (n + 1)  # used[v]: the value walk has placed v
        within = [0] * (n + 1)  # within[d]: the occurrences inside buf[:d]
        if n == 0 or prefixes:
            yield buf[:0], 0
            if n == 0:
                continue
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


def _tables(avoid: Sequence[Pdvp], count: Pdvp | None, t: int | None, n: int,
            each_length: bool = False) -> list[DistributionTable]:
    """The histograms of `count`'s occurrences over the objects of length n,
    or with `each_length` of every length 0..n, that avoid every pattern of
    `avoid`, by the path of their plan."""
    plan = plan_scan(avoid, count, t, n, each_length)
    if plan.path == "series":
        sps = tuple(transfer.StatPattern(p) for p in (*plan.avoid, count) if p is not None)
        return [DistributionTable(n, transfer.series_row(sps, t, n))]
    if not each_length:
        walk = prefix_walk(plan)  # with no count every c is 0: the objects are only counted
        row = {0: sum(1 for _ in walk)} if count is None else Counter(map(itemgetter(1), walk))
        return [DistributionTable(n, dict(sorted(row.items())))]
    rows: list[dict[int, int]] = [{} for _ in range(n + 1)]
    for entries, c in prefix_walk(plan):
        row = rows[len(entries)]
        row[c] = row.get(c, 0) + 1
    return [DistributionTable(k, dict(sorted(row.items()))) for k, row in enumerate(rows)]


def perm_distribution(pat: Pdvp, n: int) -> DistributionTable:
    """Histogram of occurrence counts of `pat` over all of S_n."""
    return _tables((), pat, None, n)[0]


def word_distribution(pat: Pdvp, t: int, n: int) -> DistributionTable:
    """Histogram of occurrence counts of `pat` over all words in {1..t}^n."""
    return _tables((), pat, t, n)[0]


def perm_distributions(pat: Pdvp, n_max: int) -> list[DistributionTable]:
    """`perm_distribution` for every n = 0..n_max."""
    return _tables((), pat, None, n_max, True)


def word_distributions(pat: Pdvp, t: int, n_max: int) -> list[DistributionTable]:
    """`word_distribution` for every n = 0..n_max, by walks only."""
    return _tables((), pat, t, n_max, True)


def perm_multi_avoiders(pats: Sequence[Pdvp], n: int) -> int:
    """Number of permutations in S_n avoiding every listed pattern."""
    return _tables(pats, None, None, n)[0][0]


def word_multi_avoiders(pats: Sequence[Pdvp], t: int, n: int) -> int:
    """Number of words in {1..t}^n avoiding every listed pattern."""
    return _tables(pats, None, t, n)[0][0]


def word_avoider_counts(pats: Sequence[Pdvp], t: int, n_max: int) -> list[int]:
    """`word_multi_avoiders` for every n = 0..n_max, by walks only."""
    return [table[0] for table in _tables(pats, None, t, n_max, True)]
