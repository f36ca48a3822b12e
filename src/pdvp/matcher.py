"""Occurrence enumeration for patterns in permutations and words.

An occurrence of a length-m pattern in a sequence of length n is a strictly
increasing index tuple (i_1, .., i_m) such that the chosen values realise the
base's order type, every gap i_{k+1} - i_k lies in X_k (with the sentinels
i_0 = 0 and i_{m+1} = n + 1), every Y triple is satisfied on absolute value
differences (sentinel values: 0 below; n + 1 above for permutations, the
alphabet size for words), and every chosen value lies in its Z set.

Each pattern gets one search of its own: `_generate` writes straight-line
Python for it, one nested loop per slot, and compiles it once per mode while
it stays in a bounded `functools.lru_cache`, as the standard `dataclasses`
module compiles its methods.  The search fixes the
last index p and fills the other slots right to left, pruning on Z
membership, order signs, Y pairs and Y bounds as soon as the values they
compare are placed; each gap set becomes a loop's range or member tuple.
It reads only the entries up to p and needs the final length n only for
the closing gap, so a prefix of length p already decides every occurrence
that ends at p.
Counting, avoidance, the prefix walks of the exhaustive scans, the window
automaton and the rank dp of `transfer`, and the listing of occurrences
(every last index in turn, then sorted) all call the generated code.  The
count, first and list searches differ only in their innermost statement.
The children search (`search_children`) scores every
way of appending a last entry to a prefix at once.  On an ordered prefix
of a permutation it never reads the last slot's value, so it drops every
test on it, and records the range of ranks each partial occurrence admits
for that value instead.  After a word it records the letters the partial
admits: those between the letters of the two slots that bound the last
one, the letter of a slot with the same base letter, or the few v_s +- d a
finite Y set allows, and where the last slot has Z, Y or sentinel tests
it applies them to each of those letters.  What a partial admits depends
on those few slots only, so the kill variant, which only has to find which
children some occurrence ends at, stops the loops below them at their
first completion.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator, Mapping, Sequence

from .intset import IntSet
from .pattern import Mode, Pdvp


@dataclass(frozen=True)
class PermSequence:
    values: tuple[int, ...]

    def __post_init__(self):
        n = len(self.values)
        if sorted(self.values) != list(range(1, n + 1)):
            raise ValueError(f"{self.values} is not a permutation of 1..{n}")

    @property
    def entries(self) -> tuple[int, ...]:
        return self.values


@dataclass(frozen=True)
class WordSequence:
    letters: tuple[int, ...]
    alphabet: int

    def __post_init__(self):
        if self.alphabet < 1:
            raise ValueError("alphabet size must be positive")
        if any(not 1 <= w <= self.alphabet for w in self.letters):
            raise ValueError(f"letters must lie in 1..{self.alphabet}")

    @property
    def entries(self) -> tuple[int, ...]:
        return self.letters


@dataclass(frozen=True)
class Occurrence:
    indices: tuple[int, ...]

    def values(self, seq) -> tuple[int, ...]:
        entries = seq.entries
        return tuple(entries[i - 1] for i in self.indices)


_COUNT, _FIRST, _LIST, _CHILDREN, _KILLS = "count", "first", "list", "children", "kills"
_LOOPS_PER_BLOCK = 16  # the compiler refuses more than 20 nested blocks per function


# One pass of a benchmark workload compiles at most 19 (pattern, mode)
# searches: `pdvp verify` 19, scan_avoid 8-11, scan_dist 5-6, gf 3-4.  The
# tier-1 tests compile up to 997 in one test, random patterns used once
# each.  The bound holds three of the largest working sets.
@lru_cache(maxsize=64)
def _generate(pat: Pdvp, mode: str):
    """Compile the search of `pat` in `mode`; return its factory make(n, upper, found).

    The factory, cached per pattern and mode, returns search(entries, p),
    the occurrences whose last index is p (1-based) in a sequence of final
    length n with high sentinel `upper`.  Slot k's index is q_k + 1 and its
    value v_k; slot m-1 sits at p and the loops fill the others from m-2
    down to 0, each rejecting a candidate on Z membership, order signs, Y
    pairs with the slots to its right and then Y bounds against the
    sentinels; slot 0 also tests X_0.
    Slot k's candidates are the gaps d in X_{k+1}: a descending `range` when
    X_{k+1} is one progression (P, kP, E), otherwise a loop over its
    members, ascending, that breaks once q_k drops below k.  The members are
    a tuple literal when X_{k+1} is finite and the tuple g{k}, which make
    builds once per call from the members up to n, when it is not.
    The count, first and list modes differ only in their innermost
    statement.  The children mode's search(entries, p, rank, diff) fills
    slots m-2..0 and leaves slot m-1 to its innermost statements (see
    `search_children`); a and b are the slots whose base letters are next
    below and next above base[m-1], the latest of equal ones.  Of a
    permutation pattern it has no test on v_{m-1}, and adds 1 at
    diff[rank[v_a]] and -1 at diff[rank[v_b]]: 0 stands for a missing a,
    and a missing b adds nothing.  Of a word pattern it reads no rank and
    places v_{m-1} on the letters a partial admits: v_e, e the latest slot
    with base letter base[m-1]; else v_s + d or v_s - d for the members d
    of a finite Y set tying a slot s to slot m-1, tested against v_a and
    v_b; else every letter between v_a and v_b.  It rejects each on the Z,
    Y and sentinel tests of slot m-1 and adds 1 at diff[v - 1] and -1 at
    diff[v] (none past letter upper).  With no test to make, it adds 1 at
    diff[v_a] and -1 at diff[v_b - 1] instead, as the permutation mode
    does, after rejecting v_a = upper, above which no letter lies.
    The kills mode is the children mode, except that the slots below the
    least slot the innermost statements read (a, b, e, s and the slots of
    the Y sets tested), which cannot move what a partial occurrence admits,
    are a block of their own in the first mode, unless each of them has one
    candidate gap at most: once the slots above are placed, the innermost
    statements add at diff when that block finds a completion.
    Every block of _LOOPS_PER_BLOCK slots is a function of its own that the
    block above calls in its innermost statement, passing rank and diff on
    to the blocks that score children.  The source holds integer literals
    and the names bound in `namespace` only.
    """
    m, base = pat.m, pat.base
    children = mode in (_CHILDREN, _KILLS)
    live = m - 1 if children else m  # the slots whose values the search reads
    words = children and pat.mode is Mode.WORD  # the children search tests the last slot's letters
    extra = ", rank, diff" if children else ""
    namespace: dict[str, object] = {}
    tables: list[str] = []  # make's statements that build the g{k}

    def bound(obj) -> str:
        key = f"S{len(namespace)}"
        namespace[key] = obj
        return key

    def test(expr: str, s: IntSet, floor: int) -> list[str]:
        """The condition that rejects a value `expr` >= floor outside s, or
        none when s holds every such value.  A finite set is probed as its
        frozenset and an odd-only set by parity plus its finite members;
        any other set goes through IntSet.__contains__."""
        if s.steps == (1,) and (floor >= 1 or 0 in s.extra):
            return []
        if s.steps:
            return [f"{expr} not in {bound(s)}"]
        if not s.odd:
            return [f"{expr} not in {bound(s.extra)}"]
        if not s.extra:
            return [f"not ({expr}) & 1"]
        return [f"not ({expr}) & 1 and {expr} not in {bound(s.extra)}"]

    pairs: list[list[str]] = [[] for _ in range(m)]
    bounds: list[list[str]] = [[] for _ in range(m)]
    tied: list[tuple[int, IntSet]] = []  # the Y pairs of a slot with the last, in a word's children
    entry: list[str] = [f"p < {m:d} or p > n"] + test("n + 1 - p", pat.x[m], 1)
    for s, t, dset in pat.y:
        if s >= 1 and t <= m:
            if t <= live:
                pairs[s - 1] += test(f"abs(v{s - 1} - v{t - 1})", dset, 0)
            elif words:
                tied.append((s - 1, dset))
        elif s >= 1:
            bounds[s - 1] += test(f"abs(upper - v{s - 1})", dset, 0)
        elif t <= m:
            bounds[t - 1] += test(f"abs(v{t - 1})", dset, 0)
        else:
            entry += test("upper", dset, 0)

    def rejects(k: int) -> list[str]:
        first_gap = test(f"q{k} + 1", pat.x[0], 1) if k == 0 else []
        if k == live:  # the children modes' last slot, whose value the score places
            return first_gap
        order = []
        for a in range(k + 1, live):
            op = ">=" if base[k] < base[a] else "<=" if base[k] > base[a] else "!="
            order.append(f"v{k} {op} v{a}")
        return test(f"v{k}", pat.z[k], 1) + order + pairs[k] + bounds[k] + first_gap

    def loop(k: int) -> list[str]:
        """The head of slot k's loop, given q_{k+1}."""
        xs = pat.x[k + 1]
        if not xs.odd and len(xs.steps) == 1 and xs.extra <= {0}:
            step = xs.steps[0]
            return [f"for q{k} in range(q{k + 1} - {step}, {k - 1}, -{step}):"]
        if not xs.odd and not xs.steps:
            deltas = "(%s)" % "".join(f"{d:d}, " for d in sorted(xs.extra) if d)
        else:
            deltas = f"g{k}"
            tables.append(f"g{k} = tuple(d for d in {bound(xs)}.members_up_to(n) if d)")
        head = [f"for d{k} in {deltas}:", f"    q{k} = q{k + 1} - d{k}"]
        return head + [f"    if q{k} < {k}:", "        break"]

    def guard(cond: str, action: str) -> list[str]:
        return [f"if {cond}:", f"    {action}"]

    score: list[str] = []  # the children modes' innermost statements
    cut = -1  # in the kills mode, the slots below cut only need one completion
    if children:  # a and b, the slots whose values bound the children a partial admits
        a = max((s for s in range(live) if base[s] < base[live]), default=None,
                key=lambda s: (base[s], s))
        b = min((s for s in range(live) if base[s] > base[live]), default=None,
                key=lambda s: (base[s], -s))
        reads = {a, b} - {None}  # the slots whose values the score reads
        if not words:
            score = [f"diff[{'0' if a is None else f'rank[v{a}]'}] += 1"
                     + ("" if b is None else f"; diff[rank[v{b}]] -= 1")]
        else:  # the letters v it takes: v_e, some v_s +- d, or those between v_a and v_b
            v = f"v{live}"
            e = max((s for s in range(live) if base[s] == base[live]), default=None)
            fixed = None if e is not None else next(
                ((s, dset) for s, dset in tied if not (dset.odd or dset.steps)), None)
            checks = []
            if e is not None:
                reads.add(e)
                cands = [f"v{e}"]
            elif fixed:  # base[s] is not base[live], so the order puts v on one side of v_s
                s, dset = fixed
                tied.remove(fixed)
                reads.add(s)
                sign = "+" if base[s] < base[live] else "-"
                cands = [f"v{s} {sign} {d:d}" for d in sorted(dset.extra) if d]
                if a is None or base[s] != base[a]:
                    checks.append(f"{v} < 1" if a is None else f"{v} <= v{a}")
                if b is None or base[s] != base[b]:
                    checks.append(f"{v} > upper" if b is None else f"{v} >= v{b}")
            else:
                cands = None  # every letter between v_a and v_b
            checks += test(v, pat.z[live], 1) + bounds[live]
            for s, dset in tied:
                tests = test(f"abs(v{s} - {v})", dset, 0)
                if tests:
                    reads.add(s)
                checks += tests
            tail = [line for cond in checks for line in guard(cond, "continue")]
            tail += [f"diff[{v} - 1] += 1", f"if {v} < upper: diff[{v}] -= 1"]
            if cands is None and not checks:  # a difference array, as on the tree
                score = [f"diff[{'0' if a is None else f'v{a}'}] += 1"
                         + ("" if b is None else f"; diff[v{b} - 1] -= 1")]
                if a is not None:  # no letter lies above the top one, nor an entry of diff
                    bounds[a].append(f"v{a} >= upper")
            elif cands and len(cands) == 1:  # inside slot 0's loop at least, for `continue`
                score = [f"{v} = {cands[0]}"] + tail
            else:
                each = f"({', '.join(cands)})" if cands is not None else (
                    f"range({'1' if a is None else f'v{a} + 1'}, "
                    f"{'upper + 1' if b is None else f'v{b}'})")
                score = [f"for {v} in {each}:"] + ["    " + line for line in tail]
        if mode == _KILLS:
            cut = min(reads, default=-1)
            if all(not (x.odd or x.steps) and len(x.extra - {0}) <= 1 for x in pat.x[1:cut + 1]):
                cut = -1  # at most one completion, so a block call would stop nothing

    def args(top: int) -> str:
        """What the block whose highest slot is `top` takes after entries and
        before the placed slots: rank and diff where it scores children."""
        return "" if top <= cut else extra

    def hit(top: int, low: int) -> list[str]:
        """The innermost statements of the block that fills slots top - 1
        down to low: it calls block{low} unless low is 0."""
        call = f"block{low}(entries{args(low)}, {placed(low)})" if low else None
        if mode == _COUNT:
            return [f"total += {call or 1}"]
        if mode == _FIRST or top <= cut:
            return [f"if {call}: return 1" if call else "return 1"]
        if call and low > cut:
            return [call]
        if call:
            if len(score) == 1:
                return [f"if {call}: {score[0]}"]
            return [f"if {call}:"] + ["    " + line for line in score]
        if children:
            return score
        return ["found.append((%s,))" % ", ".join(f"q{k} + 1" for k in range(m))]

    def placed(k: int) -> str:
        """The indices of slots k..m-1 and the values read among them, which
        a chained block receives after entries (and rank and diff)."""
        return ", ".join([f"q{a}" for a in range(k, m)] + [f"v{a}" for a in range(k, live)])

    result = "return total" if mode == _COUNT else "return 0"
    blocks = []
    top = m - 1  # the block's highest slot, placed when the block starts
    while True:
        low = max(top - _LOOPS_PER_BLOCK, 0)
        if low < cut < top:
            low = cut
        if top == m - 1:
            head = [f"def search(entries, p{extra}):"]
            head += ["    " + line for cond in entry for line in guard(cond, "return 0")]
            head += [f"    q{top} = p - 1"] + [f"    v{top} = entries[q{top}]"] * (top < live)
            head += ["    " + line for cond in rejects(top) for line in guard(cond, "return 0")]
        else:
            head = [f"def block{top}(entries{args(top)}, {placed(top)}):"]
        body = ["total = 0"] if mode == _COUNT else []
        for depth, k in enumerate(range(top - 1, low - 1, -1)):
            pad = "    " * depth
            body += [pad + line for line in loop(k)]
            body.append(f"{pad}    v{k} = entries[q{k}]")
            body += [f"{pad}    {line}" for cond in rejects(k) for line in guard(cond, "continue")]
        body += ["    " * (top - low) + line for line in hit(top, low)] + [result]
        blocks.append(head + ["    " + line for line in body])
        if not low:
            break
        top = low
    lines = ["def make(n, upper, found):"] + ["    " + line for line in tables]
    for block in reversed(blocks):
        lines += ["    " + line for line in block]
    lines.append("    return search")
    exec(compile("\n".join(lines), f"<pdvp search, {mode}>", "exec"), namespace)
    return namespace["make"]


def _upper_sentinel(pat: Pdvp, seq) -> int:
    if pat.mode is Mode.PERMUTATION:
        if not isinstance(seq, PermSequence):
            raise ValueError("permutation pattern needs a PermSequence")
        return len(seq.values) + 1
    if not isinstance(seq, WordSequence):
        raise ValueError("word pattern needs a WordSequence")
    return seq.alphabet


def iter_occurrences(pat: Pdvp, seq) -> Iterator[Occurrence]:
    """Yield the occurrences in lexicographic order of their index tuples."""
    upper = _upper_sentinel(pat, seq)
    entries = seq.entries
    n = len(entries)
    found: list[tuple[int, ...]] = []
    listing = _generate(pat, _LIST)(n, upper, found)
    for p in range(1, n + 1):
        listing(entries, p)
    found.sort()
    for indices in found:
        yield Occurrence(indices)


def occurrences(pat: Pdvp, seq) -> list[Occurrence]:
    return list(iter_occurrences(pat, seq))


def count(pat: Pdvp, seq) -> int:
    return count_entries(pat, seq.entries, _upper_sentinel(pat, seq))


def avoids(pat: Pdvp, seq) -> bool:
    entries = seq.entries
    n = len(entries)
    ending_at = search_ending_at(pat, n, _upper_sentinel(pat, seq), first=True)
    return not any(ending_at(entries, p) for p in range(1, n + 1))


def search_ending_at(
    pat: Pdvp, n: int, upper: int, first: bool = False
) -> Callable[[Sequence[int], int], int]:
    """Compile `pat` for sequences of final length n with high sentinel `upper`.

    The result f(entries, p) counts the occurrences whose last index is p
    (1-based); with `first` it returns 1 if there is one and 0 otherwise.
    It reads only entries[:p], so a prefix walk can pass its buffer before
    the later entries are set.  f is the generated search itself.
    """
    return _generate(pat, _FIRST if first else _COUNT)(n, upper, None)


def search_children(
    pat: Pdvp, n: int, upper: int, first: bool = False
) -> Callable[[Sequence[int], int, Mapping[int, int] | Sequence[int] | None, list[int]], int]:
    """Compile `pat` to score, at once, every last entry that a prefix of a
    sequence of final length n with high sentinel `upper` can take.

    A permutation pattern must be order-only: every Z and Y set holds every
    positive integer, so its tests pass on distinct values below `upper`.
    Then the prefix is ordered, and the result f(entries, p, rank, diff)
    scores its p children, child r = 0..p-1 placing at p a value with
    exactly r prefix values below it.  `rank` maps 0 to 0 and each prefix
    value to the number of prefix values at most it, as a dict or as a list
    indexed by value.  f adds, for each way to fill the other slots, 1 at
    diff[r] for its least child r and -1 past its greatest child unless
    that is p - 1, so the prefix sums of diff (p entries) count the
    occurrences ending at p of each child.  A word pattern may have any
    sets: f scores the `upper` children of a word, child r placing the
    letter r + 1, reads no `rank`, and adds for each way to fill the other
    slots 1 at diff[r] and -1 at diff[r + 1] for each letter it admits, or
    for a run of them at its ends, so the prefix sums of diff (`upper`
    entries) count the occurrences ending at p of each child.  f reads only
    entries[:p - 1], and it visits each index tuple of slots 0..m-2 at most
    once, where the searches of `search_ending_at` on the children may each
    visit it.  f is the generated search itself.

    With `first` f only tells which children some occurrence ends at: the
    prefix sums are nonzero where they would be without it, and never larger.
    Then f fills the slots below those whose values decide what a partial
    occurrence admits (those with the base letters next below and next above
    the last slot's, and of a word pattern those its last slot's tests read)
    only until it finds one completion, as `search_ending_at` does with
    `first`.
    """
    return _generate(pat, _KILLS if first else _CHILDREN)(n, upper, None)


def count_entries(pat: Pdvp, entries: Sequence[int], upper: int) -> int:
    """Count occurrences on a bare entry tuple; `upper` is the high sentinel value."""
    n = len(entries)
    ending_at = search_ending_at(pat, n, upper)
    return sum(ending_at(entries, p) for p in range(1, n + 1))
