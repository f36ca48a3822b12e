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
  each permutation of S_d is visited once, for every d.  A node holds its
  permutation as the even numbers 2..2d, so no node sorts itself to rank
  its values, and it scores all its children at once, with one
  `matcher.search_children` per pattern.  Of a pattern whose last two gap
  sets are P (every classical pattern) a node inherits its parent's partial
  occurrences and searches only for those ending at its own last entry, as
  Marinov and Radoičić count 1324-avoiders; an avoided pattern's search
  stops at the first completion that decides a child.
* ``values``: any other permutation scan appends an unused value, at the
  positions and from the values some occurrence can use (`_relevant`); a
  placeholder stands for the other values, and each leaf for the
  permutations it represents (`ScanPlan.weight`).
* ``words``: any other word scan appends any letter.  A node scores all
  its t letters at once, with one `matcher.search_children` per pattern,
  as the tree scores its children.

`prefix_walk(plan)` streams the objects of every length the plan covers,
from one walk, or a walk per length when one cannot settle them all, a
family at a time: a kept prefix, the occurrence counts of its kept
children and their last values (on the tree and over words computed only
when drawn).  A walk goes depth first over prefixes: a prefix of length p
already decides every occurrence that ends at p, so each step adds the
occurrences ending at the new position, and a branch is dropped as soon
as an avoided pattern ends there.  A prefix settles all its children at
once, so the last level is never visited, and a scan that only counts
builds nothing per leaf (on the tree and over words a leaf's count is a
prefix sum of its parent's search).  Only the walk's buffer and, per
depth, the children left to visit (on the tree, also the node) are ever
materialised.  The every-length scans never read
the series: they are the scan oracle that `verify` (a3, d4) and the tests
compare the automaton with, and with the per-object recounts of the tests
the ground truth for every closed formula and generating function in the
toolkit.
"""

from __future__ import annotations

import sys
from collections import Counter
from dataclasses import dataclass, replace
from functools import reduce
from itertools import accumulate, chain, compress, repeat
from math import comb, factorial, lgamma, log, log10, perm
from operator import itemgetter, not_, or_
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from . import budget, matcher, transfer
from .intset import IntSet, finite
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
class Cut:
    """What a value walk of length n fills: the positions and values some
    occurrence of a scanned pattern can use (see `plan_scan`)."""

    n: int
    positions: tuple[int, ...]  # ascending; the others hold 0
    values: tuple[int, ...]  # ascending: the relevant values, and `star`
    star: int | None  # one irrelevant value, a placeholder; None when there is none
    weights: tuple[int, ...]  # weights[j]: the permutations a leaf with j placeholders stands for


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
    cuts: tuple[Cut, ...] = ()  # on the values path, the cut of each length walked

    def weight(self, entries: Sequence[int]) -> int:
        """The objects that `entries`, as `prefix_walk(self)` yields it, stands
        for: a value walk's leaf with j placeholders stands for P(e, j) (n - p)!
        permutations, e the irrelevant values and p the relevant positions;
        anything else for itself."""
        if not self.cuts:
            return 1
        cut = self.cuts[len(entries) - self.cuts[0].n]
        return cut.weights[entries.count(cut.star)]


def _spread(mask: int, s: IntSet, k: int, up: bool) -> int:
    """The numbers x + d in 1..k (x - d when not `up`), for x a member of the
    bit mask `mask` (bit x for x) and d >= 1 a member of s, as a bit mask.
    Each progression of s's normal form takes a shift and log2(k) doublings."""
    out = 0
    for d in s.extra:
        if 0 < d <= k:
            out |= mask << d if up else mask >> d
    for start, step in [(1, 2)] * s.odd + [(step, step) for step in s.steps if step <= k]:
        reach = mask << start if up else mask >> start
        while step <= k:  # reach holds start + a multiple of step below 2 step
            reach |= reach << step if up else reach >> step
            step <<= 1
        out |= reach
    return out & ((2 << k) - 2)


def _relevant(pats: Sequence[Pdvp], k: int) -> tuple[int, int]:
    """Bit masks of the positions and of the values in 1..k that an occurrence
    of some pattern of `pats` in a permutation of length k can use.  Both are
    sound supersets: a slot's positions run forward from X_0 through the
    interior gap sets, are filtered by the closing gap X_m and run back; a
    slot's values start from its Z set and shrink to a fixpoint through the
    Y pairs and the sentinel triples (0 below, k + 1 above).  A pattern with
    an empty slot has no occurrence and adds nothing."""
    places = values = 0
    for pat in pats:
        m = pat.m
        if any(s == 0 and t == m + 1 and k + 1 not in diffs for s, t, diffs in pat.y):
            continue
        at = [_spread(1, pat.x[0], k, True)]
        for gaps in pat.x[1:m]:
            at.append(_spread(at[-1], gaps, k, True))
        at[-1] &= _spread(1 << k + 1, pat.x[m], k, False)
        for j in range(m - 2, -1, -1):
            at[j] &= _spread(at[j + 1], pat.x[j + 1], k, False)
        vals = [_spread(1, z, k, True) for z in pat.z]
        pairs = []
        for s, t, diffs in pat.y:
            if s >= 1 and t <= m:
                pairs += [(s - 1, t - 1, diffs), (t - 1, s - 1, diffs)]
            elif s >= 1:
                vals[s - 1] &= _spread(1 << k + 1, diffs, k, False)
            elif t <= m:
                vals[t - 1] &= _spread(1, diffs, k, True)
        shrunk = True
        while shrunk:  # a value needs a partner |v - w| in D; 0 never is one between slots
            shrunk = False
            for a, b, diffs in pairs:
                kept = vals[a] & (_spread(vals[b], diffs, k, True)
                                  | _spread(vals[b], diffs, k, False))
                shrunk = shrunk or kept != vals[a]
                vals[a] = kept
        if all(at) and all(vals):
            places |= reduce(or_, at)
            values |= reduce(or_, vals)
    return places, values


def _value_work(k: int, p: int, r: int, top: int) -> int:
    """The unpruned nodes of a value walk of length k over p relevant
    positions and r relevant values, or at least `top`: for d = 1..p, the
    prefixes with j <= e = k - r placeholders, C(d, j) P(r, d - j) of them,
    which sum to k!/(k - d)! when p = r = k."""
    nodes = 0
    for d in range(1, p + 1):
        nodes += sum(comb(d, j) * perm(r, d - j) for j in range(max(0, d - r), min(d, k - r) + 1))
        if nodes >= top:
            break
    return nodes


def _cut(k: int, places: int, values: int) -> Cut:
    """The cut of length k whose relevant positions and values are the bit
    masks `places` and `values`; its placeholder is the least other value."""
    positions = tuple(q for q in range(1, k + 1) if places >> q & 1)
    relevant = tuple(v for v in range(1, k + 1) if values >> v & 1)
    e = k - len(relevant)
    star = next((v for v in range(1, k + 1) if not values >> v & 1), None)
    weights = tuple(perm(e, j) * factorial(k - len(positions))
                    for j in range(min(len(positions), e) + 1))
    return Cut(k, positions, tuple(sorted(relevant + (star,))) if e else relevant, star, weights)


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
    the scan counts a pattern (over words with t >= 2 each also with a
    family of up to t children and their counts, charged with the score
    arrays of the node being scored; by values the plan also holds each
    length's cut, its weights below 2^(k bit_length(k)) each), and has a node, a step,
    per prefix of length d = 1..k that it tries, counted unpruned: t^d over
    words, so W(k) = t * (1 + W(k - 1)) with W(0) = 0; on the generating
    tree d!, so W(k) = 1! + 2! + ... + k!.  By values a plan finds, for each
    length k it walks, the positions and values some occurrence of a
    pattern can use (`_relevant`, the union over every avoided and counted
    pattern) and charges `_value_work`, which is sum_d k!/(k-d)! when every
    position and value is relevant.  A length with k! >= `budget.ceiling()`
    is not searched: its whole walk, and so the plan, has at least that many
    nodes.
    """
    perms = t is None
    if not perms and t < 1:
        raise ValueError("alphabet size must be positive")
    if n < 0:
        raise ValueError(f"length must be non-negative, got {n}")
    avoid = tuple(avoid)
    pats = avoid if count is None else (*avoid, count)
    want = Mode.PERMUTATION if perms else Mode.WORD
    if any(pat.mode is not want for pat in pats):
        raise ValueError(f"{want.value} scan needs {want.value}-mode patterns")
    path = ("tree" if all(map(order_only, pats)) else "values") if perms else "words"
    one_walk = not each_length or (
        path != "values" and all(pat.x[-1].steps == (1,) for pat in pats))
    position = budget.WALK_POSITION_BITS if count is None else budget.COUNT_POSITION_BITS
    top = budget.ceiling()
    masks = []
    held = n * position + (n + 1) * each_length * budget.ROW_BITS
    if path == "values":
        nodes = 0
        for k in range(n + 1) if each_length else [n]:
            if k >= top.bit_length() or factorial(k) >= top:  # so is the whole walk
                nodes = top
                break
            masks.append(_relevant(pats, k))
            p, r = (mask.bit_count() for mask in masks[-1])
            nodes += _value_work(k, p, r, top)
            # the cut's positions, values and weights, each weight below 2^(k bit_length(k))
            weights = min(p, k - r) + 1
            held += (p + r + 1 + weights) * position + weights * 2 * k * k.bit_length()
            if nodes >= top:
                break
    elif t == 1:
        nodes = n if one_walk else n * (n + 1) // 2  # one node per length
    else:
        walk = nodes = 0
        k_factorial = 1
        for k in range(1, n + 1):
            if path == "tree":
                k_factorial *= k
                walk += k_factorial
            else:
                walk = t * (walk + 1)  # W(k)
            nodes = walk if one_walk else nodes + walk
            if nodes >= top:
                break
        if path == "words":  # each depth holds a family of up to t children
            held += n * t * budget.FAMILY_CHILD_BITS
    mixed = avoid and count is not None  # the series counts one statistic
    if not (perms or each_length or mixed or any(map(transfer.statistic_refusal, pats))):
        steps, bits = transfer.series_work(tuple(map(transfer.StatPattern, pats)), t, n, 1)
        if steps <= nodes and budget.check_work("series", steps, bits, refuse=False):
            path = "series"
    if path != "series":
        budget.check_work("scan", nodes, held)
    _check_printable(t, n)
    cuts = tuple(_cut(k, *pair) for k, pair in zip(range(n + 1 - len(masks), n + 1), masks))
    return ScanPlan(avoid, count, t, n, path, each_length, one_walk, cuts)


def _check_printable(t: int | None, n: int) -> None:
    """Refuse a scan of length n whose object count, n! (t None) or t^n, has
    more digits than an int may print with, since a count it finds may then
    not print; the count is sized by its logarithm, never computed."""
    digits = sys.get_int_max_str_digits()

    def log10_objects(k: int) -> float:
        return lgamma(k + 1) / log(10) if t is None else k * log10(t)

    if not digits or log10_objects(n) < digits:
        return
    lo, hi = 0, n  # the longest length that prints lies in lo..hi - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if log10_objects(mid) < digits else (lo, mid)
    objects = f"{n}!" if t is None else f"{t}^{n}"
    raise budget.EnumerationLimitError(
        f"length {n} exceeds the allowed length {lo}: {objects} has more than {digits} digits")


def prefix_walk(plan: ScanPlan, cap: int | None = None
                ) -> Iterator[tuple[list[int], int, list[int], Iterable[int]]]:
    """Walk the objects of every length the plan covers (n, or 0..n), one
    family at a time.

    An object is kept when no pattern in plan.avoid occurs in it and its
    occurrences c of plan.count (0 when it is None) are at most `cap`.  A
    family is a kept node and its kept children, and the walk yields
    (entries, q, counts, values) for each kept node whose children the plan
    covers.  `entries` has the children's length and holds the node; each
    child is `entries` with entries[q - 1] set to its value.  `counts`
    lists the children's c and `values` their values, both in child order.
    Where the walk does not descend to them, the values on the tree and
    over words are a range or an iterator over one, computed only as they
    are drawn, so a caller that reads only `counts` builds nothing per
    child.  On the tree
    `entries` is the node's own list; by words and values it is the walk's
    own buffer when the children are as long as their walk, valid until
    the next family is drawn.  A caller may write entries[q - 1].

    So the children of the families are the kept objects, each once, and
    within each length in the order of a walk of that length alone.  The
    empty object is kept with c = 0 and is no child: a caller that covers
    length 0 counts it itself.  An every-length plan with `one_walk` yields
    the family of every kept node of its walk, a node's before those below
    it (every closing gap set is P); any other takes a walk per length
    1..n, in order.  Each walk keeps, per depth, the children it has still
    to visit, so the length is not bounded by the recursion limit; a node
    with one kept child keeps none.  Drawing from it raises ValueError for a
    series plan.

    Words and values come in lexicographic order.  By values a walk fills
    only the positions of its length's cut, each with an unused relevant
    value or with the placeholder `star`, at most min(p, e) times; the other
    positions hold 0, and a cut with no position has one family, whose one
    child sets position n to 0.  No occurrence uses a position or value
    outside the cut, so the generated search rejects every index tuple
    through one by its own X, Z, Y and order tests (two slots never pass the
    order test on equal values), and each child stands for
    `plan.weight(entries)` permutations; a caller that reads the entries
    themselves, as problem 4 and the ank check do on the tree, needs a cut
    that skips nothing.  With every position and value relevant the walk
    visits every prefix of S_n by values.  On the tree a node of depth d
    holds the even numbers 2, 4, .., 2d in the order of its permutation of
    S_d, so the rank of a value v among them is v // 2 and no node sorts
    itself; its child of rank r takes 2r + 1, between the r-th and the
    (r+1)-th, the child of rank r before that of rank r + 1.  So the entries
    are order-isomorphic to a permutation of S_d and come in generating-tree
    order, and the child's own node adds 2 to the values above 2r + 1 and
    takes 2r + 2.  The high sentinel the patterns see is 2n + 2.

    A node's family is built once, before the walk descends to its
    children.  On the tree one `matcher.search_children` per avoided
    pattern, with `first`, and one for the counted pattern give, through
    the prefix sums of their difference arrays, each child's kill flag and
    count, so the deepest level is never visited: its counts come from
    those prefix sums.  A pattern whose X_{m-1} and X_m are P (`_inherits`)
    is not searched whole at each node: the node inherits its parent's
    partial occurrences and searches only for those ending at its own last
    entry (`_inheriting`).  A word node scores its t letters the same way,
    with the word patterns' own `matcher.search_children`, one array entry
    per letter.  Values try each candidate with `matcher.search_ending_at`,
    the avoided patterns' first-occurrence searches before the count.
    """
    if plan.path == "series":
        raise ValueError(f"a series plan of length {plan.n} has no walk")
    tree = plan.path == "tree"
    by_value = plan.path == "values"
    prefixes = plan.each_length and plan.one_walk
    lengths = [plan.n] if plan.one_walk else range(plan.n + 1)
    for n, cut in zip(lengths, plan.cuts or repeat(None)):
        top = plan.t or (2 * n + 2 if tree else n + 1)  # the high sentinel
        letters = cut.values if by_value else range(1, (plan.t or n) + 1)
        at = cut.positions if by_value else tuple(range(1, n + 1))  # at[d]: depth d + 1's position
        if tree:  # each node scores all its children at once
            kills = [matcher.search_children(_node_pattern(p), n, top, first=True)
                     for p in plan.avoid]
            stops = [stop for stop, p in zip(kills, plan.avoid) if not _inherits(p)]
            heirs = [stop for stop, p in zip(kills, plan.avoid) if _inherits(p)]
            if heirs:  # one array sums their partials, as only nonzero sums matter; it goes first
                stops.insert(0, _inheriting(heirs, n))
            tally = None if plan.count is None else matcher.search_children(
                _node_pattern(plan.count), n, top)
            if tally and _inherits(plan.count):
                tally = _inheriting([tally], n)
        else:  # a word node scores all its letters at once; a value walk tries each candidate
            search = matcher.search_ending_at if by_value else matcher.search_children
            stops = [search(p, n, top, first=True) for p in plan.avoid]
            tally = None if plan.count is None else search(plan.count, n, top)
        buf = [0] * n  # the object being built; on the tree, the value placed at each depth
        last = len(at) - 1  # the depth of the nodes whose children are leaves
        if last < 0:
            if n:  # a cut with no position: one leaf, which stands for all of S_n
                yield buf, n, [0], (0,)
            continue
        if by_value:  # the times the walk may place each value
            supply = dict.fromkeys(letters, 1)
            if cut.star:
                supply[cut.star] = len(cut.weights) - 1
        ranks = None  # on the tree, ranks[v]: the rank of a node's value v
        if tree:  # nodes[d]: the node of depth d, and a slot for its children
            ranks = [v >> 1 for v in range(top)]
            nodes = [[0]] + [None] * last
        rows: list = [None] * last  # rows[d]: the children of the depth-d node left to visit
        d = got = 0
        while True:  # the family of the node of depth d, which has `got` occurrences
            q = at[d]
            if not by_value:  # the node scores all its children at once
                if tree:
                    if d:  # from its parent's node and the value the walk placed at d
                        placed = buf[d - 1]
                        node = [x + 2 if x > placed else x for x in nodes[d - 1]]
                        node[-1] = placed + 1
                        node.append(0)
                        nodes[d] = node
                    else:
                        node = nodes[0]
                    width, values = q, range(1, 2 * q, 2)
                else:
                    node, width, values = buf, top, letters
                drop = None  # drop[r]: whether child r is dropped
                if stops:
                    kills = [0] * width
                    for stop in stops:
                        stop(node, q, ranks, kills)
                    drop = list(accumulate(kills))  # the prefix sums of the difference arrays
                if tally:
                    adds = [0] * width
                    adds[0] = got
                    tally(node, q, ranks, adds)
                    counts = list(accumulate(adds))
                    if cap is not None:
                        over = map(cap.__lt__, counts)
                        drop = list(over if drop is None else map(or_, drop, over))
                    if drop is not None:
                        counts = list(compress(counts, map(not_, drop)))
                else:  # with no count every c is 0
                    counts = [0] * (width if drop is None else drop.count(0))
                if drop is not None:
                    values = compress(values, map(not_, drop))
                    if d < last:
                        values = list(values)
            else:
                free = supply.copy()
                for p in at[:d]:
                    free[buf[p - 1]] -= 1
                counts, values = [], []
                for v in filter(free.get, letters):
                    buf[q - 1] = v
                    for stop in stops:
                        if stop(buf, q):
                            break
                    else:
                        c = got + tally(buf, q) if tally else got
                        if cap is None or c <= cap:
                            counts.append(c)
                            values.append(v)
            if d == last:
                yield node if tree else buf, q, counts, values
            else:
                if prefixes:
                    yield node if tree else buf[:q], q, counts, values
                if len(counts) == 1:  # a lone child: descend, with no row to come back to
                    rows[d] = ()
                    d += 1
                    buf[q - 1], got = values[0], counts[0]
                    continue
                rows[d] = zip(values, counts)
                d += 1
            while d:  # on to the next child of the deepest node that has one left
                for buf[at[d - 1] - 1], got in rows[d - 1]:
                    break
                else:
                    d -= 1
                    continue
                break
            else:
                break


def _inherits(pat: Pdvp) -> bool:
    """Whether a tree node takes the partial occurrences of `pat` (index
    tuples for slots 0..m-2) from its parent: X_{m-1} and X_m are P, so a
    partial admits a child wherever the child's position and the length are,
    and the children it admits depend on the values of two of its slots
    alone."""
    return pat.m > 1 and pat.x[-2].steps == pat.x[-1].steps == (1,)


_NEXT = finite([1])


def _inheriting(searches: list, n: int
                ) -> Callable[[list[int], int, list[int], list[int]], None]:
    """The children search, for a walk of length n over the generating tree,
    of patterns whose partial occurrences the nodes inherit (`_inherits`),
    given `searches`, the children searches of their `_node_pattern`s.

    It keeps, per depth, the difference array of the last node it scored
    there, whose prefix sums count, for each child, the node's partial
    occurrences (index tuples for slots 0..m-2) that admit it; where the
    searches stop early, as an avoided pattern's do, the sums are nonzero
    exactly where such a partial exists.  A node of rank r starts from its
    parent's array with a 0 inserted at r + 1, which doubles entry r of the
    prefix sums: the parent's gap r splits in two, and a partial that
    admitted it admits both halves.  It adds the partials that `searches`
    find ending at its last entry.  The walk scores every node after its
    parent and before any other node of its parent's depth, so the array
    kept one depth up is always the parent's.  The walk calls it first on a
    node, on an array that holds at most the node's own count, at entry 0:
    it sets the array to the node's, plus that count, and the walk's other
    searches add to it from there.
    """
    parts: list = [None] * n  # parts[d]: the array of the depth-d node

    def search(node, q, ranks, diff):
        if q > 1:
            own = parts[q - 2].copy()
            own.insert(ranks[node[q - 2]], 0)  # the last entry's rank, r + 1
        else:  # the root, which has no partial occurrence
            own = [0]
        for find in searches:
            find(node, q, ranks, own)
        parts[q - 1] = own
        got = diff[0]
        diff[:] = own  # a copy, so that no later search adds into the node's array
        diff[0] += got

    return search


def _node_pattern(pat: Pdvp) -> Pdvp:
    """What a tree node searches for `pat`: if it inherits the partial
    occurrences of `pat` (`_inherits`), `pat` with X_{m-1} = {1}, whose
    occurrences ending at the children's position are the partials with slot
    m-2 at the node's last entry; else `pat` itself."""
    return replace(pat, x=(*pat.x[:-2], _NEXT, pat.x[-1])) if _inherits(pat) else pat


def _tables(avoid: Sequence[Pdvp], count: Pdvp | None, t: int | None, n: int,
            each_length: bool = False) -> list[DistributionTable]:
    """The histograms of `count`'s occurrences over the objects of length n,
    or with `each_length` of every length 0..n, that avoid every pattern of
    `avoid`, by the path of their plan."""
    plan = plan_scan(avoid, count, t, n, each_length)
    if plan.path == "series":
        sps = tuple(transfer.StatPattern(p) for p in (*plan.avoid, count) if p is not None)
        return [DistributionTable(n, transfer.series_row(sps, t, n))]
    walk = prefix_walk(plan)  # with no count every c is 0: the objects are only counted
    weighed = any(cut.weights != (1,) for cut in plan.cuts)  # some leaf stands for more
    if not (each_length or weighed):  # one length, each of its objects once
        row = Counter(chain.from_iterable(map(itemgetter(2), walk))) if n else {0: 1}
        return [DistributionTable(n, dict(sorted(row.items())) if count else {0: row[0]})]
    if count is None and not weighed:  # every length, each object once, every c 0
        totals = [1] + [0] * n  # the empty object at 0
        for entries, _, counts, _ in walk:
            totals[len(entries)] += len(counts)
        return [DistributionTable(k, {0: total}) for k, total in enumerate(totals)]
    rows: list[dict[int, int]] = [{0: 1}] + [{} for _ in range(n)]  # the empty object at 0
    for entries, q, counts, values in walk:
        row = rows[len(entries)]
        if weighed:
            for v, c in zip(values, counts):
                entries[q - 1] = v
                row[c] = row.get(c, 0) + plan.weight(entries)
        else:
            for c in counts:
                row[c] = row.get(c, 0) + 1
    return [DistributionTable(k, dict(sorted(row.items())) if count else {0: row.get(0, 0)})
            for k, row in enumerate(rows) if each_length or k == n]


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
