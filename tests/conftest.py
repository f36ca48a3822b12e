"""Shared oracles and random generators for the test suite.

`naive_occurrences` is the independent reference matcher: it filters every
index subsequence against the defining conditions directly, with none of the
search pruning used by the production matcher.
"""

from __future__ import annotations

import random
from itertools import combinations

import pytest

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


def random_pattern(rng: random.Random, mode: Mode) -> Pdvp:
    m = rng.randint(1, 4)
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


def random_sequence(rng: random.Random, mode: Mode, n_max: int = 8):
    n = rng.randint(1, n_max)
    if mode is Mode.PERMUTATION:
        values = list(range(1, n + 1))
        rng.shuffle(values)
        return PermSequence(tuple(values))
    t = rng.randint(1, 4)
    return WordSequence(tuple(rng.randint(1, t) for _ in range(n)), t)


@pytest.fixture(scope="session")
def rng() -> random.Random:
    return random.Random(20240911)
