"""Occurrence enumeration for patterns in permutations and words.

An occurrence of a length-m pattern in a sequence of length n is a strictly
increasing index tuple (i_1, .., i_m) such that the chosen values realise the
base's order type, every gap i_{k+1} - i_k lies in X_k (with the sentinels
i_0 = 0 and i_{m+1} = n + 1), every Y triple is satisfied on absolute value
differences (sentinel values: 0 below; n + 1 above for permutations, the
alphabet size for words), and every chosen value lies in its Z set.

Patterns are compiled once into flat lookup tables, and two depth-first
searches run over them, pruning on gap feasibility, Z membership, order
consistency and Y triples as soon as both endpoints are known:

* `_ending_at` fixes the last index p and fills the other slots right to
  left, so it reads only the entries up to p and needs the final length n
  only for the closing gap.  Counting, avoidance and the prefix walks of the
  exhaustive scans all go through it: a prefix of length p already decides
  every occurrence that ends at p.
* `_search` enumerates whole occurrences left to right in lexicographic
  index order.  It lists occurrences and is the tests' cross-check of
  `_ending_at`.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Iterator, Sequence

from .pattern import Mode, Pdvp


@dataclass(frozen=True)
class PermSequence:
    values: tuple[int, ...]

    def __post_init__(self):
        n = len(self.values)
        if sorted(self.values) != list(range(1, n + 1)):
            raise ValueError(f"{self.values} is not a permutation of 1..{n}")

    @classmethod
    def of(cls, values: Iterable[int]) -> "PermSequence":
        return cls(tuple(values))

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

    @classmethod
    def of(cls, letters: Iterable[int], alphabet: int) -> "WordSequence":
        return cls(tuple(letters), alphabet)

    @property
    def entries(self) -> tuple[int, ...]:
        return self.letters


@dataclass(frozen=True)
class Occurrence:
    indices: tuple[int, ...]

    def values(self, seq) -> tuple[int, ...]:
        entries = seq.entries
        return tuple(entries[i - 1] for i in self.indices)


class _Prep:
    """Flattened pattern tables for the two searches.

    Slots are 0-based pattern indices.  A Y triple between two slots is
    checked at its upper slot left to right (`y_upper`) and at its lower
    slot right to left; a triple between a slot and a sentinel is a
    condition on that slot's value alone (`y_value`); a triple between the
    two sentinels depends on the high sentinel only (`y_global`).
    `rslots[j]` holds everything the right-to-left search checks when it
    fills slot j: the Z set (None for P), the order signs against the slots
    to its right, and the triples keyed by slot j.  Gap candidate tuples are
    memoised per (X set, room).
    """

    __slots__ = (
        "m", "x", "z", "x_first", "x_last", "order", "y_upper", "y_value", "y_global",
        "rslots", "gap_memo",
    )

    def __init__(self, pat: Pdvp):
        m = pat.m
        base = pat.base
        self.m = m
        self.x = pat.x
        self.z = pat.z
        # indices and values are always >= 1, so a set equal to P never rejects
        self.x_first = None if pat.x[0].is_positives else pat.x[0]
        self.x_last = None if pat.x[m].is_positives else pat.x[m]

        def signs(j: int, others: range) -> tuple:
            return tuple((a, (base[j] > base[a]) - (base[j] < base[a])) for a in others)

        self.order = tuple(signs(j, range(j)) for j in range(m))
        upper: list[list] = [[] for _ in range(m)]
        lower: list[list] = [[] for _ in range(m)]
        value: list[list] = [[] for _ in range(m)]
        glob = []
        for s, t, dset in pat.y:
            if s >= 1 and t <= m:
                upper[t - 1].append((s - 1, t - 1, dset))
                lower[s - 1].append((t - 1, dset))
            elif s >= 1:
                value[s - 1].append((True, dset))  # against the high sentinel
            elif t <= m:
                value[t - 1].append((False, dset))  # against the value 0
            else:
                glob.append(dset)
        self.y_upper = tuple(map(tuple, upper))
        self.y_value = tuple(map(tuple, value))
        self.y_global = tuple(glob)
        self.rslots = tuple(
            (
                None if pat.z[j].is_positives else pat.z[j],
                signs(j, range(j + 1, m)),
                tuple(lower[j]),
                self.y_value[j],
            )
            for j in range(m)
        )
        self.gap_memo: tuple[dict, ...] = tuple({} for _ in range(m))

    def gaps(self, k: int, limit: int) -> tuple[int, ...]:
        """Members of X_k in 1..limit, ascending."""
        memo = self.gap_memo[k]
        got = memo.get(limit)
        if got is None:
            members = self.x[k].members_up_to(limit)
            # index gaps are at least 1; drop a leading 0 from the evens
            got = members[1:] if members and members[0] == 0 else members
            memo[limit] = got
        return got

    def passes_global_y(self, upper: int) -> bool:
        return all(upper in dset for dset in self.y_global)


_PREP_CACHE_SIZE = 256
_PREP_CACHE: OrderedDict[Pdvp, _Prep] = OrderedDict()  # least recently used first


def _prepare(pat: Pdvp) -> _Prep:
    prep = _PREP_CACHE.get(pat)
    if prep is None:
        prep = _PREP_CACHE[pat] = _Prep(pat)
        if len(_PREP_CACHE) > _PREP_CACHE_SIZE:
            _PREP_CACHE.popitem(last=False)
    else:
        _PREP_CACHE.move_to_end(pat)
    return prep


def _ending_at(
    prep: _Prep, n: int, upper: int, first: bool, entries: Sequence[int], p: int
) -> int:
    """Count the occurrences whose last index is p in a sequence of final
    length n; with `first`, stop at the first one and return 1.

    Slot m-1 sits at p and the other slots are filled right to left, so only
    entries[:p] are read and the X sets prune from the fixed end.
    """
    m = prep.m
    if not m <= p <= n or not (prep.x_last is None or n + 1 - p in prep.x_last):
        return 0
    if prep.y_global and not prep.passes_global_y(upper):
        return 0
    return _fill(prep, entries, upper, first, [0] * m, m - 1, p + 1, (1,))


def _fill(
    prep: _Prep,
    entries: Sequence[int],
    upper: int,
    first: bool,
    vals: list[int],
    slot: int,
    j: int,
    deltas: tuple[int, ...],
) -> int:
    """Place `slot` at j - delta for each delta, then complete the slots below it."""
    zset, checks, pairs, bounds = prep.rslots[slot]
    total = 0
    for delta in deltas:
        i = j - delta
        v = entries[i - 1]
        if zset is not None and v not in zset:
            continue
        ok = True
        for a, sign in checks:
            d = v - vals[a]
            if (d > 0) - (d < 0) != sign:
                ok = False
                break
        if not ok:
            continue
        for b, dset in pairs:
            d = v - vals[b]
            if (d if d >= 0 else -d) not in dset:
                ok = False
                break
        if not ok:
            continue
        for hi, dset in bounds:
            if abs(upper - v if hi else v) not in dset:
                ok = False
                break
        if not ok:
            continue
        if slot:
            vals[slot] = v
            deltas_below = prep.gaps(slot, i - slot)
            got = _fill(prep, entries, upper, first, vals, slot - 1, i, deltas_below)
        else:
            got = prep.x_first is None or i in prep.x_first
        if got:
            if first:
                return 1
            total += got
    return total


def _search(pat: Pdvp, entries: tuple[int, ...], upper: int) -> Iterator[tuple[int, ...]]:
    """Yield occurrence index tuples in lexicographic order."""
    prep = _prepare(pat)
    n = len(entries)
    m = prep.m
    if m > n or not prep.passes_global_y(upper):
        return
    idx = [0] * m
    vals = [0] * m

    def rec(level: int, prev: int) -> Iterator[tuple[int, ...]]:
        for delta in prep.gaps(level, n - prev):
            i = prev + delta
            v = entries[i - 1]
            if v not in prep.z[level]:
                continue
            ok = True
            for a, sign in prep.order[level]:
                d = v - vals[a]
                if (d > 0) - (d < 0) != sign:
                    ok = False
                    break
            if not ok:
                continue
            idx[level] = i
            vals[level] = v
            for a, b, dset in prep.y_upper[level]:
                if abs(vals[a] - vals[b]) not in dset:
                    ok = False
                    break
            if ok:
                for hi, dset in prep.y_value[level]:
                    if abs(upper - v if hi else v) not in dset:
                        ok = False
                        break
            if not ok:
                continue
            if level + 1 == m:
                if (n + 1 - i) in prep.x[m]:
                    yield tuple(idx)
            else:
                yield from rec(level + 1, i)

    yield from rec(0, 0)


def _upper_sentinel(pat: Pdvp, seq) -> int:
    if pat.mode is Mode.PERMUTATION:
        if not isinstance(seq, PermSequence):
            raise ValueError("permutation pattern needs a PermSequence")
        return len(seq.values) + 1
    if not isinstance(seq, WordSequence):
        raise ValueError("word pattern needs a WordSequence")
    return seq.alphabet


def iter_occurrences(pat: Pdvp, seq) -> Iterator[Occurrence]:
    upper = _upper_sentinel(pat, seq)
    for indices in _search(pat, seq.entries, upper):
        yield Occurrence(indices)


def occurrences(pat: Pdvp, seq) -> list[Occurrence]:
    return list(iter_occurrences(pat, seq))


def count(pat: Pdvp, seq) -> int:
    return count_entries(pat, seq.entries, _upper_sentinel(pat, seq))


def avoids(pat: Pdvp, seq) -> bool:
    return avoids_entries(pat, seq.entries, _upper_sentinel(pat, seq))


def search_ending_at(
    pat: Pdvp, n: int, upper: int, first: bool = False
) -> Callable[[Sequence[int], int], int]:
    """Compile `pat` for sequences of final length n with high sentinel `upper`.

    The result f(entries, p) counts the occurrences whose last index is p
    (1-based); with `first` it returns 1 if there is one and 0 otherwise.
    It reads only entries[:p], so a prefix walk can pass its buffer before
    the later entries are set.
    """
    return partial(_ending_at, _prepare(pat), n, upper, first)


def count_entries(pat: Pdvp, entries: Sequence[int], upper: int) -> int:
    """Count occurrences on a bare entry tuple; `upper` is the high sentinel value."""
    n = len(entries)
    ending_at = search_ending_at(pat, n, upper)
    return sum(ending_at(entries, p) for p in range(1, n + 1))


def avoids_entries(pat: Pdvp, entries: Sequence[int], upper: int) -> bool:
    n = len(entries)
    ending_at = search_ending_at(pat, n, upper, first=True)
    return not any(ending_at(entries, p) for p in range(1, n + 1))


def count_entries_ending_at(pat: Pdvp, entries: Sequence[int], upper: int, last: int) -> int:
    """Count occurrences whose final index equals `last` (1-based)."""
    return _ending_at(_prepare(pat), len(entries), upper, False, entries, last)


def count_entries_starting_at(
    pat: Pdvp, entries: tuple[int, ...], upper: int, start: int
) -> int:
    """Count occurrences whose first index equals `start` (1-based)."""
    total = 0
    for ix in _search(pat, entries, upper):
        if ix[0] > start:
            break  # lexicographic order: no later occurrence starts at `start`
        total += ix[0] == start
    return total
