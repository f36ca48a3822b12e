"""Shared oracles, random generators and the work meter of the test suite.

`naive_occurrences` is the independent reference matcher: it filters every
index subsequence against the defining conditions directly, with none of the
search pruning used by the production matcher.

`WorkMeter` counts the steps of every budgeted computation a test runs and
checks them against the prediction the computation passed to
`budget.check_work`; the autouse fixture `work_meter` puts one around every
test.
"""

from __future__ import annotations

import random
import sys
from itertools import combinations
from types import SimpleNamespace

import pytest

from pdvp import budget, checks, exhaustive, matcher, problems, transfer
from pdvp.intset import EVENS, IntSet, ODDS, POSITIVES, finite, multiples
from pdvp.matcher import PermSequence, WordSequence
from pdvp.pattern import Mode, Pdvp, YTriple
from pdvp.transfer import ONE, Q, RationalGF


def naive_occurrences(pat: Pdvp, seq) -> list[tuple[int, ...]]:
    """Check all C(n, m) index tuples against the raw defining conditions."""
    entries = seq.entries
    n = len(entries)
    m = pat.m
    upper = n + 1 if pat.mode is Mode.PERMUTATION else seq.alphabet
    out = []
    for combo in combinations(range(1, n + 1), m):
        vals = [entries[i - 1] for i in combo]
        ok = True
        for a in range(m):
            for b in range(a + 1, m):
                da = vals[b] - vals[a]
                dp = pat.base[b] - pat.base[a]
                if ((da > 0) - (da < 0)) != ((dp > 0) - (dp < 0)):
                    ok = False
        if not ok:
            continue
        padded = (0,) + combo + (n + 1,)
        if any(padded[k + 1] - padded[k] not in pat.x[k] for k in range(m + 1)):
            continue

        def value(code: int) -> int:
            if code == 0:
                return 0
            if code == m + 1:
                return upper
            return vals[code - 1]

        if any(abs(value(s) - value(t)) not in d for s, t, d in pat.y):
            continue
        if any(vals[k] not in pat.z[k] for k in range(m)):
            continue
        out.append(combo)
    return out


def longest_printable(objects) -> int:
    """The largest n whose objects(n) converts to str, objects(n) increasing in n."""

    def prints(k: int) -> bool:
        try:
            str(objects(k))
        except ValueError:
            return False
        return True

    lo, hi = 0, 1
    while prints(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if prints(mid) else (lo, mid)
    return lo


def fib_series_gf() -> RationalGF:
    """(1+q)/(1-q-q^2): coefficients 1, 2, 3, 5, 8, .. = fib(n+2)."""
    return RationalGF(ONE + Q, ONE - Q - Q**2)


def random_set(rng: random.Random) -> IntSet:
    kind = rng.randrange(6)
    if kind == 0:
        return POSITIVES
    if kind == 1:
        return EVENS
    if kind == 2:
        return ODDS
    if kind == 3:
        return multiples(rng.randint(2, 4))
    if kind == 4:
        return finite(rng.sample(range(0, 7), rng.randint(1, 3)))
    return random_set(rng) | random_set(rng)


def random_gap(rng: random.Random) -> IntSet:
    """A gap set that many index tuples meet: P, or small gaps, or a parity."""
    return rng.choice([POSITIVES, POSITIVES, POSITIVES, finite([1]), finite([2]),
                       finite([1, 2]), ODDS, EVENS])


def random_pattern(rng: random.Random, mode: Mode, m_max: int = 4) -> Pdvp:
    m = rng.randint(1, m_max)
    if mode is Mode.PERMUTATION:
        base = list(range(1, m + 1))
        rng.shuffle(base)
    else:
        k = rng.randint(1, m)
        base = list(range(1, k + 1)) + [rng.randint(1, k) for _ in range(m - k)]
        rng.shuffle(base)
    x = tuple(random_set(rng) for _ in range(m + 1))
    z = tuple(random_set(rng) for _ in range(m))
    triples = []
    for _ in range(rng.randrange(3)):
        s = rng.randrange(0, m + 1)
        t = rng.randrange(s + 1, m + 2)
        triples.append(YTriple(s, t, random_set(rng)))
    return Pdvp(mode, tuple(base), x, tuple(triples), z)


def random_order_only(rng: random.Random, m_max: int = 4) -> Pdvp:
    """A random permutation pattern of at most m_max slots that
    `exhaustive.order_only` accepts: random gap sets, and Z and Y sets that
    hold every positive integer (some of them 0 too), Y triples on the
    sentinels included."""
    pat = random_pattern(rng, Mode.PERMUTATION, m_max)

    def full():
        return POSITIVES | random_set(rng) if rng.random() < 0.5 else POSITIVES

    y = tuple(YTriple(s, t, full()) for s, t, _ in pat.y)
    pat = Pdvp(Mode.PERMUTATION, pat.base, pat.x, y, tuple(full() for _ in pat.z))
    assert exhaustive.order_only(pat)
    return pat


def reversed_pattern(pat: Pdvp) -> Pdvp:
    """The pattern whose occurrences in the reverse of a sequence are those
    of `pat` in the sequence, read backwards: the base, the gap sets X and
    the value sets Z reversed, and each Y slot s mapped to m + 1 - s, while
    the sentinels 0 and m + 1 stay put, as they stand for values.  So a
    scan of it has the same occurrence distribution as one of `pat`."""
    m = pat.m

    def slot(s: int) -> int:
        return s if s in (0, m + 1) else m + 1 - s

    y = tuple(YTriple(*sorted((slot(s), slot(t))), diffs) for s, t, diffs in pat.y)
    return Pdvp(pat.mode, pat.base[::-1], pat.x[::-1], y, pat.z[::-1])


def random_sequence(rng: random.Random, mode: Mode, n_max: int = 8):
    n = rng.randint(1, n_max)
    if mode is Mode.PERMUTATION:
        values = list(range(1, n + 1))
        rng.shuffle(values)
        return PermSequence(tuple(values))
    t = rng.randint(1, 4)
    return WordSequence(tuple(rng.randint(1, t) for _ in range(n)), t)


@pytest.fixture
def rng() -> random.Random:
    """A fresh generator per test, so that a test draws the same cases
    whichever tests run before it."""
    return random.Random(20240911)


def loop_candidates(pat: Pdvp, p: int) -> int:
    """The candidates the loops of a generated search ending at index p try
    when no test rejects one, counted by a walk of its own over the gaps:
    slot m-1 sits at p, and from each placement of slots k+1..m-1 the loop
    of slot k tries every gap d in X_{k+1} that leaves slot k an index of
    at least k + 1, and, when X_{k+1} is finite with a larger member, the
    one that breaks the loop.  A test rejecting a candidate only skips the
    loops below it, so the search tries at most this many."""
    placed, tried = {p: 1}, 0  # each index of slot k + 1, with the placements reaching it
    for k in range(pat.m - 2, -1, -1):
        gaps, below = pat.x[k + 1], {}
        top = gaps.finite_bound()
        for index, ways in placed.items():
            fits = [d for d in range(1, index - k) if d in gaps]
            tried += ways * (len(fits) + (top is not None and top >= index - k))
            for d in fits:
                below[index - d] = below.get(index - d, 0) + ways
        placed = below
    return tried


def lumping_rounds(edges) -> int:
    """The rounds Moore refinement takes to find the partition of
    `transfer._lump` stable, counted by a loop of its own."""
    classes, count, rounds = [0] * len(edges), 1, 0
    while True:
        rounds += 1
        keys: dict = {}
        split = [keys.setdefault(tuple(sorted((e, classes[v]) for v, e in out)), len(keys))
                 for out in edges]
        if len(keys) == count:
            return rounds
        classes, count = split, len(keys)


class WorkMeter:
    """Counts the steps of each budgeted computation: walk nodes (each call
    of a walk's first stop or, with none, of its tally: one node per call of
    a `search_ending_at` search, one per child scored by a `search_children`
    one, a word node's t letters among them), windows counted by the
    automaton (its edges times its patterns), edges in each lumping round,
    dp edges (the targets of a class's groups, each one add) per CHUNK_BITS
    of the weight, rank dp transitions (each state's children, each one
    add) per CHUNK_BITS of the weight and the loop candidates of each
    child's search (`loop_candidates`), slots `_decode` reads,
    a solve's recurrence terms, interpolation entries and certificate
    products, and morphism letters built.

    Every admitted `budget.check_work` call that may raise opens a record
    for the nearest budgeted entry point on the stack (a call with `refuse`
    false only asks whether some work would fit, as the plan asks of a dp
    and of the walk it falls back to); the work done under that entry point
    is charged to its latest record, so a nested entry point keeps its own,
    and a scan that reads a dp's rows charges them to its plan's one record.
    Work outside any entry point, such as a test calling `prefix_walk` or
    `transfer.series_rows` itself, is not charged.
    """

    ENTRY_POINTS = [
        exhaustive.perm_distribution, exhaustive.perm_distributions,
        exhaustive.word_distribution, exhaustive.word_distributions,
        exhaustive.perm_multi_avoiders,
        exhaustive.word_multi_avoiders, exhaustive.word_avoider_counts,
        problems.two_stack_sortable_counts, problems.morphism_rises, checks._ank_scan,
        transfer.dp_series, transfer.solve_transfer_system,
    ]

    def __init__(self, monkeypatch):
        self.entries = {fn.__code__ for fn in self.ENTRY_POINTS}
        self.records: list[SimpleNamespace] = []
        self.current: dict[int, SimpleNamespace] = {}
        self.morphism = SimpleNamespace(counted=0)
        self.walk, self.walk_code = None, exhaustive.prefix_walk.__code__
        self.compiled: dict[object, Pdvp] = {}  # each search transfer compiled, with its pattern
        for module, name, wrap in (
            (budget, "check_work", self._check),
            (exhaustive, "matcher", lambda _: SimpleNamespace(
                search_ending_at=self._searcher(matcher.search_ending_at, lambda pat, t, p: 1),
                search_children=self._searcher(
                    matcher.search_children,
                    lambda pat, t, p: t if pat.mode is Mode.WORD else p))),
            (transfer, "matcher", lambda _: SimpleNamespace(
                search_ending_at=self._compiled_for_ranks)),
            (transfer, "_automaton", self._windows),
            (transfer, "_lump", self._lump),
            (transfer, "_step", self._step),
            (transfer, "_rank_step", self._rank_step),
            (transfer, "_decode", self._decode),
            (transfer, "_berlekamp_massey", self._recurrence),
            (transfer, "_interpolate", self._interpolation),
            (transfer, "_certify", self._certificate),
            (problems, "MORPHISM", self._letters),
        ):
            monkeypatch.setattr(module, name, wrap(getattr(module, name)))

    def record(self) -> SimpleNamespace | None:
        frame = sys._getframe(2)
        while frame is not None and frame.f_code not in self.entries:
            frame = frame.f_back
        return None if frame is None else self.current.get(id(frame))

    def over(self) -> list[SimpleNamespace]:
        return [rec for rec in self.records if rec.counted > rec.steps]

    def _check(self, check_work):
        def check(what, steps, bits, refuse=True):
            fits = check_work(what, steps, bits, refuse)
            frame = sys._getframe(1)
            while fits and refuse and frame is not None:
                if frame.f_code in self.entries:
                    rec = SimpleNamespace(what=what, steps=steps, bits=bits, counted=0)
                    self.records.append(rec)
                    self.current[id(frame)] = rec
                    if what == "morphism word":
                        self.morphism = rec
                    break
                frame = frame.f_back
            return fits

        return check

    def _searcher(self, compile_search, nodes):
        """`compile_search` for the walks, the first search of each walk
        counting nodes(pat, upper, p) per call at position p: a walk calls
        its first stop, or with none its tally, once per node, or once per
        node whose children it scores, p of them on the tree and the t
        letters (upper) over words.  A walk is its `prefix_walk` frame and
        its length n, since one frame walks each length of a plan that needs
        a walk per length."""

        def compiled(pat, n, upper, **flags):
            search = compile_search(pat, n, upper, **flags)
            frame, rec = sys._getframe(1), self.record()
            while frame.f_code is not self.walk_code:  # past a comprehension's frame
                frame = frame.f_back
            if rec is None or self.walk == (frame, n):
                return search
            self.walk = (frame, n)  # the frame held, so that no later walk reuses its id

            def counted(buf, p, *scores):
                rec.counted += nodes(pat, upper, p)
                return search(buf, p, *scores)

            return counted

        return compiled

    def _windows(self, automaton):
        def windows(sps, t, keep):
            rec, edges = self.record(), automaton(sps, t, keep)
            if rec is not None:  # each edge's window, counted once per pattern
                rec.counted += len(sps) * sum(map(len, edges))
            return edges

        return windows

    def _lump(self, lump):
        def lumped(edges, rounds):
            rec = self.record()
            if rec is not None:
                rec.counted += min(lumping_rounds(edges), rounds) * sum(map(len, edges))
            return lump(edges, rounds)

        return lumped

    def _step(self, step):
        def stepped(weights, groups):
            rec = self.record()
            if rec is not None:  # each edge, a target of a group, per chunk of the weight
                rec.counted += sum(sum(len(targets) for _, targets in out)
                                   * -(-w.bit_length() // budget.CHUNK_BITS)
                                   for w, out in zip(weights, groups) if w)
            return step(weights, groups)

        return stepped

    def _compiled_for_ranks(self, pat, n, upper, **flags):
        search = matcher.search_ending_at(pat, n, upper, **flags)
        self.compiled[search] = pat
        return search

    def _rank_step(self, rank_step):
        def stepped(weights, j, keep, search, *rest):
            rec = self.record()
            if rec is None:
                return rank_step(weights, j, keep, search, *rest)
            # the j children of each state, per chunk of its weight
            rec.counted += j * sum(-(-w.bit_length() // budget.CHUNK_BITS)
                                   for w in weights.values())
            pat, tried = self.compiled[search], {}

            def counted(entries, p):  # and the loop candidates of each child's search
                if p not in tried:
                    tried[p] = loop_candidates(pat, p)
                rec.counted += tried[p]
                return search(entries, p)

            return rank_step(weights, j, keep, counted, *rest)

        return stepped

    def _decode(self, decode):
        def decoded(x, width):
            rec = self.record()
            if rec is not None:
                rec.counted += abs(x).bit_length() // (8 * width) + 1
            return decode(x, width)

        return decoded

    def _recurrence(self, berlekamp_massey):
        def found(seq, p):
            rec, out = self.record(), berlekamp_massey(seq, p)
            if rec is not None:  # a discrepancy and an update per term
                rec.counted += len(seq) * len(out[1])
            return out

        return found

    def _interpolation(self, interpolate):
        def interpolated(xs, ys, p):
            rec = self.record()
            if rec is not None:  # the divided differences of each vector entry
                rec.counted += len(xs) ** 2 * len(ys[0])
            return interpolate(xs, ys, p)

        return interpolated

    def _certificate(self, certify):
        def certified(rows, den, length, t, held):
            out = certify(rows, den, length, t, held)
            rec = self.record()
            if rec is not None:  # at most one product per row of Q by row of the series
                rec.counted += len(den) * len(rows)
            return out

        return certified

    def _letters(self, rules):
        meter = self

        class Letters(dict):
            def __getitem__(self, letter):
                image = dict.__getitem__(self, letter)
                meter.morphism.counted += len(image)
                return image

        return Letters(rules)


@pytest.fixture(autouse=True)
def work_meter(monkeypatch):
    transfer._quotient.cache_clear()  # so that no test's counts depend on the tests before it
    meter = WorkMeter(monkeypatch)
    yield meter
    assert meter.over() == []
