import time
from dataclasses import replace
from itertools import accumulate, permutations
from math import comb

import pytest

from conftest import (
    naive_occurrences,
    random_gap,
    random_order_only,
    random_pattern,
    random_sequence,
)

from pdvp.intset import ODDS, POSITIVES, IntSet, finite

from pdvp import matcher
from pdvp.dsl import parse_gp, parse_pattern
from pdvp.matcher import (
    Occurrence,
    PermSequence,
    WordSequence,
    avoids,
    count,
    iter_occurrences,
    occurrences,
    search_children,
    search_ending_at,
)
from pdvp.pattern import Mode, Pdvp, YTriple, make_classical


def test_worked_example():
    pat = parse_pattern("12|{1},{3,4},{1,2,3}|(1,2,E)|E,P")
    seq = PermSequence((2, 3, 1, 5, 4))
    occ = occurrences(pat, seq)
    assert [o.indices for o in occ] == [(1, 5)]
    assert occ[0].values(seq) == (2, 4)


def test_gp_counts():
    seq = PermSequence((5, 1, 6, 4, 2, 3))
    assert count(parse_gp("2-31"), seq) == 1
    assert count(parse_gp("2-3-1"), seq) == 3
    assert [o.values(seq) for o in occurrences(parse_gp("2-3-1"), seq)] == [
        (5, 6, 4),
        (5, 6, 2),
        (5, 6, 3),
    ]


def test_place_and_value_adjacency_pattern():
    pat = parse_pattern("231|P,{1},P,P|(1,3,{1})|P,P,P")
    assert not avoids(make_classical((2, 3, 1)), PermSequence((3, 1, 5, 2, 4)))
    assert avoids(pat, PermSequence((3, 1, 5, 2, 4)))
    assert not avoids(pat, PermSequence((3, 2, 5, 4, 1)))


def test_identity_rise_count():
    for n in range(2, 8):
        seq = PermSequence(tuple(range(1, n + 1)))
        assert count(make_classical((1, 2)), seq) == n * (n - 1) // 2


def test_pattern_longer_than_sequence():
    assert count(make_classical((1, 2, 3)), PermSequence((2, 1))) == 0


def test_des_k_scan():
    from pdvp.pattern import make_des_k

    seq = PermSequence((6, 1, 5, 2, 4, 3))
    got = [o.indices for o in occurrences(make_des_k(5), seq)]
    assert got == [(1, 2)]
    assert count(make_des_k(1), PermSequence((2, 1))) == 1


def test_sentinel_position_pin():
    for j in range(1, 6):
        pat = parse_pattern(f"1|{{{j}}},P|-|P")
        for pi in permutations(range(1, 6)):
            got = [o.indices for o in occurrences(pat, PermSequence(pi))]
            assert got == [(j,)]


def test_sentinel_only_y_triple_filters_by_length():
    # |0 - (n+1)| must equal 4, so only length-3 permutations match
    pat = parse_pattern("1|P,P|(0,2,{4})|P")
    assert count(pat, PermSequence((2, 1, 3))) == 3
    assert count(pat, PermSequence((2, 1, 3, 4))) == 0


def test_word_mode_equalities_respected():
    pat = parse_pattern("11|P,{1},P|-|P,P", Mode.WORD)
    seq = WordSequence((1, 1, 2, 2, 2, 1), 2)
    assert [o.indices for o in occurrences(pat, seq)] == [(1, 2), (3, 4), (4, 5)]


def test_word_upper_sentinel_uses_declared_alphabet():
    # difference to the upper sentinel value t
    pat = parse_pattern("1|P,P|(1,2,{0})|P", Mode.WORD)
    assert count(pat, WordSequence((1, 3, 2, 3), 3)) == 2
    assert count(pat, WordSequence((1, 3, 2, 3), 5)) == 0


def test_distance_two_rise_word_count_is_zero():
    pat = parse_pattern("12|P,{2},P|(1,2,{2})|P,P", Mode.WORD)
    assert count(pat, WordSequence((1, 3, 2, 3, 1), 3)) == 0


def test_lower_sentinel_parity_triple():
    # |0 - value| even means the chosen value itself must be even
    pat = parse_pattern("1|P,P|(0,1,E)|P")
    seq = PermSequence((3, 2, 4, 1))
    assert [o.values(seq) for o in occurrences(pat, seq)] == [(2,), (4,)]


def test_word_zero_difference_triple_matches_equal_letters():
    pat = parse_pattern("11|P,P,P|(1,2,{0})|P,P", Mode.WORD)
    seq = WordSequence((2, 1, 2, 2), 2)
    assert [o.indices for o in occurrences(pat, seq)] == [(1, 3), (1, 4), (3, 4)]


def test_zero_descent_never_matches_word_base_21():
    from pdvp.pattern import make_des_k

    pat = make_des_k(0, mode=Mode.WORD)
    assert avoids(pat, WordSequence((2, 2, 1, 1), 2))


def test_word_degenerates_to_permutation(rng):
    # alphabet n+1 makes the word's upper sentinel value coincide with the
    # permutation convention, so the two modes must agree exactly
    for _ in range(60):
        pat = random_pattern(rng, Mode.PERMUTATION)
        word_pat = Pdvp(Mode.WORD, pat.base, pat.x, pat.y, pat.z)
        n = rng.randint(1, 7)
        values = list(range(1, n + 1))
        rng.shuffle(values)
        c_perm = count(pat, PermSequence(tuple(values)))
        c_word = count(word_pat, WordSequence(tuple(values), n + 1))
        assert c_perm == c_word


def _reverse_complement(pi):
    n = len(pi)
    return tuple(n + 1 - v for v in reversed(pi))


def test_classical_symmetry_under_reverse_complement():
    bases = [(1, 2), (2, 1), (1, 3, 2), (2, 3, 1), (1, 2, 3)]
    for n in range(1, 7):
        for pi in permutations(range(1, n + 1)):
            for base in bases:
                lhs = count(make_classical(base), PermSequence(pi))
                rhs = count(
                    make_classical(_reverse_complement(base)),
                    PermSequence(_reverse_complement(pi)),
                )
                assert lhs == rhs


def test_mode_mismatch_rejected():
    pat = make_classical((1, 2))
    with pytest.raises(ValueError):
        count(pat, WordSequence((1, 2), 2))
    wpat = make_classical((1, 2), mode=Mode.WORD)
    with pytest.raises(ValueError):
        count(wpat, PermSequence((1, 2)))


def test_sequence_validation():
    with pytest.raises(ValueError):
        PermSequence((1, 3))
    with pytest.raises(ValueError):
        WordSequence((1, 4), 3)
    with pytest.raises(ValueError):
        WordSequence((1, 2), 0)


def test_occurrences_sorted_lexicographically(rng):
    for _ in range(80):
        mode = Mode.PERMUTATION if rng.random() < 0.5 else Mode.WORD
        pat = random_pattern(rng, mode)
        seq = random_sequence(rng, mode)
        got = [o.indices for o in occurrences(pat, seq)]
        assert got == sorted(got)


def test_count_and_avoids_consistent_with_occurrences(rng):
    for _ in range(80):
        mode = Mode.PERMUTATION if rng.random() < 0.5 else Mode.WORD
        pat = random_pattern(rng, mode)
        seq = random_sequence(rng, mode)
        occ = occurrences(pat, seq)
        assert count(pat, seq) == len(occ)
        assert avoids(pat, seq) == (not occ)
        assert list(iter_occurrences(pat, seq)) == occ


def test_matches_naive_filter(rng):
    for _ in range(300):
        mode = Mode.PERMUTATION if rng.random() < 0.5 else Mode.WORD
        pat = random_pattern(rng, mode)
        seq = random_sequence(rng, mode)
        got = [o.indices for o in occurrences(pat, seq)]
        assert got == naive_occurrences(pat, seq)


def test_occurrence_values_helper():
    occ = Occurrence((2, 4))
    assert occ.values(PermSequence((3, 1, 4, 2))) == (1, 2)


def _upper(pat, seq):
    return len(seq.entries) + 1 if pat.mode is Mode.PERMUTATION else seq.alphabet


def test_ending_at_matches_naive_and_search(rng):
    # the core, per last index, against naive_occurrences and the sorted listing
    for _ in range(150):
        mode = Mode.PERMUTATION if rng.random() < 0.5 else Mode.WORD
        pat = random_pattern(rng, mode)
        seq = random_sequence(rng, mode, n_max=6)
        entries, upper = seq.entries, _upper(pat, seq)
        naive = naive_occurrences(pat, seq)
        listed = [o.indices for o in occurrences(pat, seq)]
        n = len(entries)
        ending_at = search_ending_at(pat, n, upper)
        exists_at = search_ending_at(pat, n, upper, first=True)
        for p in range(1, n + 1):
            want = sum(1 for ix in naive if ix[-1] == p)
            assert sum(1 for ix in listed if ix[-1] == p) == want
            assert ending_at(entries, p) == want
            assert exists_at(entries, p) == min(want, 1)
            # only entries[:p] may be read
            assert ending_at(list(entries[:p]) + [0] * (n - p), p) == want


def test_prep_cache_is_bounded():
    # one more distinct pattern than the cache holds evicts the probe's search
    probe = make_classical((2, 1))
    seq = PermSequence((3, 1, 4, 2))
    maxsize = matcher._generate.cache_info().maxsize
    before = count(probe, seq)
    for k in range(maxsize + 1):
        count(parse_pattern(f"1|P,P|-|{{{k}}}"), seq)
    assert matcher._generate.cache_info().currsize <= maxsize
    misses = matcher._generate.cache_info().misses
    assert count(probe, seq) == before == 3
    assert matcher._generate.cache_info().misses == misses + 1  # evicted, compiled again
    assert not avoids(probe, seq)
    assert [o.indices for o in occurrences(probe, seq)] == naive_occurrences(probe, seq)


@pytest.fixture(params=[1, 2, 16])
def block(request, monkeypatch):
    """The slots per generated block function for one test.  The search
    cache is cleared before and after, so that no search compiled with
    other blocks is reused, nor outlives the test."""
    monkeypatch.setattr(matcher, "_LOOPS_PER_BLOCK", request.param)
    matcher._generate.cache_clear()
    yield request.param
    matcher._generate.cache_clear()


def test_generated_search_matches_naive_in_every_mode(rng, block):
    # with blocks of one or two slots every random pattern runs through the
    # chained block functions as well
    for _ in range(150):
        mode = Mode.PERMUTATION if rng.random() < 0.5 else Mode.WORD
        pat = random_pattern(rng, mode)
        seq = random_sequence(rng, mode, n_max=6)
        entries, upper = seq.entries, _upper(pat, seq)
        naive = naive_occurrences(pat, seq)
        n = len(entries)
        count_at = search_ending_at(pat, n, upper)
        first_at = search_ending_at(pat, n, upper, first=True)
        for p in range(1, n + 1):
            want = sum(1 for ix in naive if ix[-1] == p)
            assert count_at(entries, p) == want
            assert first_at(entries, p) == min(want, 1)
        assert [o.indices for o in iter_occurrences(pat, seq)] == naive


def test_thirty_slot_classical_pattern_chains_blocks():
    pat = make_classical(range(1, 31))
    s30 = PermSequence(tuple(range(1, 31)))
    s32 = PermSequence(tuple(range(1, 33)))
    assert count(pat, s30) == 1
    assert count(pat, s32) == 496
    assert [o.indices for o in occurrences(pat, s30)] == [tuple(range(1, 31))]
    assert len(occurrences(pat, s32)) == 496
    assert not avoids(pat, s32)
    assert avoids(pat, PermSequence(tuple(range(32, 0, -1))))


def _children_scores(pat, prefix, n, upper, first=False):
    """What `search_children` gives each child of `prefix`: the prefix sums
    of its difference array."""
    ends = [0, *sorted(prefix)]
    diff = [0] * len(ends)
    search_children(pat, n, upper, first)(list(prefix) + [0] * (n - len(prefix)), len(ends),
                                          dict(zip(ends, range(len(ends)))), diff)
    return list(accumulate(diff))


def _per_child(search, prefix, n):
    """What `search` gives at the last position of each child of `prefix`,
    child r placing the odd value 2r + 1 between the even prefix values."""
    d = len(prefix)
    return [search(list(prefix) + [2 * r + 1] + [0] * (n - d - 1), d + 1) for r in range(d + 1)]


def test_children_search_scores_each_child_as_the_per_child_searches(rng, block):
    # the prefix holds 2, 4, .., 2d in random order, and the sentinel 2d + 2
    # tops the children's odd values; with blocks of one or two slots the
    # rank map and the difference array pass through the chained blocks
    for _ in range(150):
        pat = random_order_only(rng)
        d = rng.randint(0, 6)
        prefix = [2 * v for v in rng.sample(range(1, d + 1), d)]
        n, upper = d + 1 + rng.randint(0, 2), 2 * d + 2
        counts = _per_child(search_ending_at(pat, n, upper), prefix, n)
        assert _children_scores(pat, prefix, n, upper) == counts, (pat, prefix, n)
        firsts = _per_child(search_ending_at(pat, n, upper, first=True), prefix, n)
        assert firsts == [min(c, 1) for c in counts], (pat, prefix, n)


def _letter_scores(pat, prefix, n, t, first=False):
    """What `search_children` gives each letter 1..t placed after the word
    `prefix`: the prefix sums of its difference array."""
    diff = [0] * t
    search_children(pat, n, t, first)(list(prefix) + [0] * (n - len(prefix)), len(prefix) + 1,
                                      None, diff)
    return list(accumulate(diff))


def _per_letter(search, prefix, n, t):
    """What `search` gives at the last position of each child of the word
    `prefix`, child c - 1 placing the letter c."""
    d = len(prefix)
    return [search(list(prefix) + [c] + [0] * (n - d - 1), d + 1) for c in range(1, t + 1)]


def test_word_children_search_scores_each_letter_as_the_per_letter_searches(rng, block):
    # random word patterns with repeated base letters, Z sets and Y triples,
    # on the sentinels too, and half the time a Y pair of a slot with the
    # last one whose D set is finite, so that a partial admits the letters
    # v_s +- d; with `first` each letter scores at least 1 exactly where the
    # full search scores it, and never more
    scored = stopped = 0
    for case in range(400):
        pat = random_pattern(rng, Mode.WORD, m_max=5 - case % 2)
        t, d = rng.randint(1, 4), rng.randint(0, 6)
        if case % 2:  # sets that let it occur often, in a longer prefix over more letters
            x = (POSITIVES, *(random_gap(rng) for _ in pat.x[2:]), POSITIVES)
            y = tuple(YTriple(tri.s, tri.t, rng.choice([POSITIVES | finite([0]), tri.diffs]))
                      for tri in pat.y)
            z = tuple(rng.choice([POSITIVES, POSITIVES, zset]) for zset in pat.z)
            pat = replace(pat, x=x, y=y, z=z)
            t, d = rng.randint(2, 4), 6
        if pat.m > 1 and rng.random() < 0.5:
            diffs = finite(rng.sample(range(4), rng.randint(1, 2)))
            tie = YTriple(rng.randrange(1, pat.m), pat.m, diffs)
            pat = replace(pat, y=(*pat.y, tie))
        prefix = [rng.randint(1, t) for _ in range(d)]
        n = d + 1 + rng.randint(0, 2)
        counts = _per_letter(search_ending_at(pat, n, t), prefix, n, t)
        assert _letter_scores(pat, prefix, n, t) == counts, (pat, prefix, n)
        firsts = _per_letter(search_ending_at(pat, n, t, first=True), prefix, n, t)
        assert firsts == [min(c, 1) for c in counts], (pat, prefix, n)
        kills = _letter_scores(pat, prefix, n, t, first=True)
        assert [min(k, 1) for k in kills] == firsts, (pat, prefix, n)
        assert all(0 <= k <= c for k, c in zip(kills, counts)), (pat, prefix, n)
        scored += any(counts)
        stopped += kills != counts
    assert scored >= 80 and stopped >= 3, (scored, stopped)


def test_early_stopping_kill_flags_are_the_nonzero_children_scores(rng, block):
    # with `first` the loops below the slots that bound a child's rank stop
    # at their first completion, so each child scores at least 1 exactly
    # where the full search scores it, and never more; with blocks of one or
    # two slots the stopping loops are chained blocks of their own
    stopped = 0
    for case in range(300):
        pat = random_order_only(rng, m_max=5)
        d = rng.randint(0, 7)
        if case % 2:  # gap sets that let it occur often, in a longer prefix
            pat = replace(pat, x=(POSITIVES, *(random_gap(rng) for _ in pat.x[2:]), POSITIVES))
            d = rng.randint(4, 7)
        prefix = [2 * v for v in rng.sample(range(1, d + 1), d)]
        n, upper = d + 1 + rng.randint(0, 2), 2 * d + 2
        full = _children_scores(pat, prefix, n, upper)
        kills = _children_scores(pat, prefix, n, upper, first=True)
        assert [bool(c) for c in kills] == [bool(c) for c in full], (pat, prefix, n)
        assert all(0 <= k <= c for k, c in zip(kills, full)), (pat, prefix, n)
        stopped += kills != full
    assert stopped >= 10


def test_kill_search_of_a_classical_pattern_stops_at_one_completion():
    # 1234 on 2, 4, .., 14: the loops below slot 2 (letter 3, which bounds
    # the child from below) stop at one completion, so child r scores the
    # r - 2 places of slot 2 below it that have one, where the full search
    # scores C(r, 3)
    pat = make_classical((1, 2, 3, 4))
    prefix = [2 * v for v in range(1, 8)]
    assert _children_scores(pat, prefix, 8, 16) == [comb(r, 3) for r in range(8)]
    assert _children_scores(pat, prefix, 8, 16, first=True) == [max(r - 2, 0) for r in range(8)]


def test_thirty_slot_children_search_chains_blocks():
    # child r of 2, 4, .., 62 has r prefix values below it, so C(r, 29)
    # occurrences of 1..30 end at it
    pat = make_classical(range(1, 31))
    prefix = [2 * v for v in range(1, 32)]
    want = [comb(r, 29) for r in range(32)]
    assert _children_scores(pat, prefix, 32, 64) == want
    assert _per_child(search_ending_at(pat, 32, 64), prefix, 32) == want


@pytest.mark.parametrize(
    "text",
    [
        "12|P,{1000000000000},P|-|P,P",
        "12|P,1000000007P,P|-|P,P",
        "12|P,P,P|(1,2,{1000000000000})|P,P",
        "12|P,P,P|(1,2,1000000007P)|P,P",
        "12|P,P,P|-|{1000000000000},P",
        "12|P,P,P|-|1000000007P,P",
        "12|P,{1}+1000000007P,P|(1,2,{1}+1000000007P)|{2}+1000000007P,P",
        "21|P,{2}+{1000000000000},P|(0,1,{3}+1000000007P)|P,{1}+{1000000000000}",
    ],
)
def test_huge_set_members_compile_and_answer_fast(text):
    start = time.perf_counter()
    for mode in Mode:
        pat = parse_pattern(text, mode)
        for pi in permutations(range(1, 6)):
            seq = PermSequence(pi) if mode is Mode.PERMUTATION else WordSequence(pi, 5)
            assert [o.indices for o in occurrences(pat, seq)] == naive_occurrences(pat, seq)
            assert count(pat, seq) == len(naive_occurrences(pat, seq))
    assert time.perf_counter() - start < 5


def test_gap_tuples_are_built_for_each_length(rng):
    # a gap set that is neither finite nor one progression is looped over as
    # the tuple of its members up to n, which each call builds for its own n;
    # each pattern is compiled once per mode (count, first, list), whatever n
    matcher._generate.cache_clear()
    pats = [
        parse_pattern("123|P,O+{2},2P+3P,P|-|P,P,P"),
        parse_pattern("12|P,O,P|-|P,P"),
        parse_pattern("12|P,3P+{1},P|(1,2,{0,1})|P,P", Mode.WORD),
        parse_pattern("11|P,E+{1},P|-|P,P", Mode.WORD),  # 0 is a member, not a gap
    ]
    for n in range(1, 10):
        perms = [tuple(range(1, n + 1))]
        perms += [tuple(rng.sample(range(1, n + 1), n)) for _ in range(15)]
        words = [(1,) * n] + [tuple(rng.randint(1, 3) for _ in range(n)) for _ in range(15)]
        for pat in pats:
            if pat.mode is Mode.PERMUTATION:
                seqs = [PermSequence(pi) for pi in perms]
            else:
                seqs = [WordSequence(w, 3) for w in words]
            for seq in seqs:
                naive = naive_occurrences(pat, seq)
                assert count(pat, seq) == len(naive), (pat, seq)
                assert avoids(pat, seq) == (not naive), (pat, seq)
                assert [o.indices for o in occurrences(pat, seq)] == naive, (pat, seq)
    assert matcher._generate.cache_info().misses == 3 * len(pats)


def _random_odd_set(rng):
    """O, alone or with a few even members (0 among them or not)."""
    return ODDS | finite(rng.sample(range(0, 9, 2), rng.randrange(3)))


def test_odd_sets_are_tested_by_parity(rng, monkeypatch):
    # every X, Y and Z set is odd-only, so the generated searches test them
    # by parity and their finite members and never call IntSet.__contains__
    for _ in range(150):
        mode = Mode.PERMUTATION if rng.random() < 0.5 else Mode.WORD
        shape = random_pattern(rng, mode)
        pat = Pdvp(
            mode,
            shape.base,
            tuple(_random_odd_set(rng) for _ in shape.x),
            tuple(YTriple(y.s, y.t, _random_odd_set(rng)) for y in shape.y),
            tuple(_random_odd_set(rng) for _ in shape.z),
        )
        seq = random_sequence(rng, mode)
        naive = naive_occurrences(pat, seq)
        with monkeypatch.context() as patched:
            patched.setattr(IntSet, "__contains__", None)  # `in` now raises TypeError
            assert [o.indices for o in occurrences(pat, seq)] == naive, pat
            assert count(pat, seq) == len(naive), pat
            assert avoids(pat, seq) == (not naive), pat
