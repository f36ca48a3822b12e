"""The benchmark's workloads: fixed job lists plus a part drawn from the seed.

A job is a JSON-able dict with an `id`, a `kind` (how child.py runs it), its
inputs, and `objects`: how many objects of S_n or {1..t}^n the job settles.
A scan settles its whole space, however few objects it visits; a series
expanded to order N over t letters settles every word of length 0..N.

Seeded jobs carry an oracle spec (see oracle.py) and are checked against the
naive oracle, which re-counts every object of their space; fixed jobs are checked against the pinned digests in
expected.json.  Seeded jobs use short patterns of a fixed shape whose base or
gap and difference sets are drawn from the seed; they take a few percent of a
pass, so the seed changes the answers far more than the timings.
"""

from __future__ import annotations

import random
from itertools import permutations
from math import factorial

from oracle import render

PAIR_PATTERNS = ["12|P,{1},P|(1,2,{1})|P,P", "12|P,{2},P|(1,2,{2})|P,P"]
P_PATTERN = "12|P,{1,2},P|(1,2,{2})|P,P"
S_PATTERN = "12|P,{2},P|(1,2,{2})|P,P"
W4_PATTERN = "12|P,{1,2,3},P|(1,2,{2})|P,P"

GF_ORDER = 60
NAIVE_SERIES_N = 6  # seeded series rows checked against a naive word scan

VERIFY_CHECKS = ("eq1", "k4n", "ank", "a3", "a4", "b3", "b4", "d3", "d4", "e4", "words123",
                 "fib-bij")
# The objects each check settles by exhaustive scans.  Series-based claims
# are not counted here: they cost under 5% of `pdvp verify`.
VERIFY_OBJECTS = dict.fromkeys(VERIFY_CHECKS, 0) | {
    # S_0..S_3 for three bases, then S_2, S_4, S_6 five times
    "eq1": 3 * sum(factorial(k) for k in range(4)) + 5 * (2 + 24 + 720),
    "k4n": factorial(4) + factorial(8),
    "ank": sum(factorial(k) for k in range(1, 10)),
    "a3": sum(3**k for k in range(10)),
    "words123": sum(3**k for k in range(1, 13)),
}
VERIFY_FAILS = {"k4n", "ank", "d4"}  # reference values contradicted by enumeration

WORKLOADS = ("scan_dist", "scan_avoid", "gf", "verify")  # why each: BENCHMARK.json


def _perm_dist(pattern, n, **extra):
    return {"kind": "perm_dist", "pattern": pattern, "n": n, "objects": factorial(n), **extra}


def _word_dist(pattern, t, n, **extra):
    return {"kind": "word_dist", "pattern": pattern, "t": t, "n": n, "objects": t**n, **extra}


def _perm_avoid(patterns, n, **extra):
    return {"kind": "perm_avoid", "patterns": patterns, "n": n, "objects": factorial(n), **extra}


def _word_avoid(patterns, t, n, **extra):
    return {"kind": "word_avoid", "patterns": patterns, "t": t, "n": n, "objects": t**n,
            **extra}


def _series_objects(t, order):
    return sum(t**k for k in range(order + 1))


def _solve(pattern, t, **extra):
    return {"kind": "solve", "pattern": pattern, "t": t, "order": GF_ORDER,
            "objects": _series_objects(t, GF_ORDER), **extra}


def _spec(mode, base, x, y=()):
    return {"mode": mode, "base": list(base), "x": list(x), "y": [list(v) for v in y],
            "z": ["P"] * len(base)}


def _base(rng):
    base = [1, 2, 3]
    rng.shuffle(base)
    return base


def fixed_jobs(workload: str) -> list[dict]:
    if workload == "scan_dist":
        return [
            _perm_dist("123|P,P,P,P|-|P,P,P", 7, id="dist_123_S7"),
            _perm_dist("gp:2-31", 8, id="dist_gp2-31_S8"),
            _word_dist(P_PATTERN, 4, 8, id="dist_P_t4n8"),
            _word_dist(S_PATTERN, 4, 8, id="dist_S_t4n8"),
        ]
    if workload == "scan_avoid":
        return [
            _word_avoid(PAIR_PATTERNS, 3, 10, id="avoid_pair_t3n10"),
            _perm_avoid(["gp:231", "gp:132"], 8, id="avoid_gp231_gp132_S8"),
            _perm_avoid(["1234|P,P,P,P,P|-|P,P,P,P"], 8, id="avoid_1234_S8"),
            {"id": "problem4_max8", "kind": "problem", "which": 4, "max_size": 8,
             "objects": sum(factorial(k) for k in range(1, 9))},
        ]
    if workload == "gf":
        return [
            _solve(P_PATTERN, 5, id="solve_P_t5"),
            _solve(S_PATTERN, 4, id="solve_S_t4"),
            _solve(W4_PATTERN, 3, id="solve_W4_t3"),
            {"id": "dp_W4_t6", "kind": "dp", "pattern": W4_PATTERN, "t": 6,
             "order": GF_ORDER, "objects": _series_objects(6, GF_ORDER)},
        ]
    if workload == "verify":
        return [{"id": f"verify_{c}", "kind": "verify", "check_id": c,
                 "objects": VERIFY_OBJECTS[c]} for c in VERIFY_CHECKS]
    raise KeyError(workload)


def seeded_jobs(workload: str, seed: int) -> list[dict]:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "scan_dist":
        # dashed shape a-bc; a word pattern with one gap of at most 2
        perm = _spec("perm", _base(rng), ["P", "P", [1], "P"])
        word = _spec("word", _base(rng), ["P", [1, 2], "P", "P"])
        return [
            _perm_dist(render(perm), 7, id="seeded_dist_perm_S7", spec=perm),
            _word_dist(render(word), 3, 8, id="seeded_dist_word_t3n8", spec=word),
        ]
    if workload == "scan_avoid":
        # two consecutive patterns; two rises-by-d at a gap of 1 or 2
        first, second = rng.sample(list(permutations((1, 2, 3))), 2)
        perms = [_spec("perm", b, ["P", [1], [1], "P"]) for b in (first, second)]
        words = [
            _spec("word", [1, 2], ["P", [g], "P"], [(1, 2, [rng.randint(1, 2)])])
            for g in (1, 2)
        ]
        return [
            _perm_avoid([render(s) for s in perms], 7, id="seeded_avoid_perm_S7", specs=perms),
            _word_avoid([render(s) for s in words], 3, 7, id="seeded_avoid_word_t3n7", specs=words),
        ]
    if workload == "gf":
        base = rng.choice([[1, 2], [2, 1]])
        spec = _spec("word", base, ["P", [rng.randint(1, 2)], "P"],
                     [(1, 2, [rng.randint(1, 2)])])
        return [_solve(render(spec), 3, id="seeded_solve_t3", spec=spec,
                       naive_n=NAIVE_SERIES_N)]
    if workload == "verify":
        return []  # the command takes no input
    raise KeyError(workload)


def jobs(workload: str, seed: int) -> list[dict]:
    return fixed_jobs(workload) + seeded_jobs(workload, seed)
