from itertools import permutations

import pytest

from conftest import naive_occurrences, random_pattern, random_sequence

from pdvp import matcher
from pdvp.dsl import parse_gp, parse_pattern
from pdvp.matcher import (
    Occurrence,
    PermSequence,
    WordSequence,
    avoids,
    count,
    count_entries_ending_at,
    count_entries_starting_at,
    iter_occurrences,
    occurrences,
    search_ending_at,
)
from pdvp.pattern import Mode, Pdvp, make_classical


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
    # the right-to-left core, per last index, against both left-to-right oracles
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
            assert count_entries_ending_at(pat, entries, upper, p) == want
            assert sum(1 for ix in listed if ix[-1] == p) == want
            assert ending_at(entries, p) == want
            assert exists_at(entries, p) == min(want, 1)
            # only entries[:p] may be read
            assert ending_at(list(entries[:p]) + [0] * (n - p), p) == want
            start = sum(1 for ix in naive if ix[0] == p)
            assert count_entries_starting_at(pat, entries, upper, p) == start


def test_prep_cache_is_bounded():
    probe = make_classical((2, 1))
    seq = PermSequence((3, 1, 4, 2))
    before = count(probe, seq)
    for k in range(1000):
        count(parse_pattern(f"1|P,P|-|{{{k}}}"), seq)
    assert len(matcher._PREP_CACHE) <= matcher._PREP_CACHE_SIZE
    assert probe not in matcher._PREP_CACHE
    assert count(probe, seq) == before == 3
