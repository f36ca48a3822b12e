from collections import Counter
from itertools import permutations, product
from math import comb, factorial

import pytest

from conftest import naive_occurrences, random_pattern

from pdvp.checks import STAT_ALPHABETS, _ank_scan, _shifted_rise_pattern
from pdvp.dsl import parse_gp, parse_pattern
from pdvp.exhaustive import (
    EnumerationLimitError,
    perm_distribution,
    perm_multi_avoiders,
    prefix_walk,
    word_distribution,
    word_multi_avoiders,
)
from pdvp.matcher import PermSequence, WordSequence
from pdvp.pattern import Mode, make_classical


def test_distribution_partitions_the_symmetric_group():
    for n in range(6):
        table = perm_distribution(make_classical((1, 3, 2)), n)
        assert table.total() == factorial(n)


def test_classical_123_avoiders_are_catalan():
    assert perm_distribution(make_classical((1, 2, 3)), 4)[0] == 14
    assert perm_distribution(make_classical((1, 2, 3)), 5)[0] == 42


def test_parity_position_pattern_avoiders():
    pat = parse_pattern("12|O,E,E|-|E,E")
    table = perm_distribution(pat, 4)
    # matches the transfer formula with a constant classical row
    assert table[0] == sum(
        factorial(2) * factorial(2 - k) * comb(2, k) ** 3 for k in range(3)
    )


def test_zero_entry_at_m0_equals_single_avoider_count():
    pat = parse_gp("2-31")
    for n in range(6):
        assert perm_distribution(pat, n)[0] == perm_multi_avoiders([pat], n)


def test_perm_limit_error_names_limit():
    with pytest.raises(EnumerationLimitError, match="limit 10"):
        perm_distribution(make_classical((1, 2)), 11)
    with pytest.raises(EnumerationLimitError, match="limit 3"):
        perm_distribution(make_classical((1, 2)), 4, limit=3)


def test_word_budget_error():
    pat = parse_pattern("12|P,{2},P|(1,2,{2})|P,P", Mode.WORD)
    with pytest.raises(EnumerationLimitError, match="budget"):
        word_distribution(pat, 3, 9, budget=3**8)


def test_word_distribution_examples():
    pat = parse_pattern("12|P,{2},P|(1,2,{2})|P,P", Mode.WORD)
    assert word_distribution(pat, 3, 2)[0] == 9
    assert word_distribution(pat, 4, 4)[0] == 196
    assert word_distribution(pat, 3, 4).total() == 81


def test_mode_checks():
    wpat = parse_pattern("12|P,{2},P|(1,2,{2})|P,P", Mode.WORD)
    with pytest.raises(ValueError):
        perm_distribution(wpat, 3)
    with pytest.raises(ValueError):
        word_distribution(make_classical((1, 2)), 3, 3)


def test_consecutive_pair_avoiders_double():
    pats = [parse_gp("231"), parse_gp("132")]
    for n in range(1, 8):
        assert perm_multi_avoiders(pats, n) == 2 ** (n - 1)


def test_triple_avoidance_example():
    pats = [parse_gp("231"), parse_gp("132"), parse_pattern("12|P,{2},P|(1,2,{1})|P,P")]
    assert perm_multi_avoiders(pats, 5) == 12


def test_empty_pattern_lists():
    assert perm_multi_avoiders([], 5) == 120
    assert word_multi_avoiders([], 3, 4) == 81


def test_word_pair_avoiders_small():
    pats = [
        parse_pattern("12|P,{1},P|(1,2,{1})|P,P", Mode.WORD),
        parse_pattern("12|P,{2},P|(1,2,{2})|P,P", Mode.WORD),
    ]
    assert word_multi_avoiders(pats, 3, 1) == 3
    assert word_multi_avoiders(pats, 3, 2) == 7
    assert word_multi_avoiders(pats, 3, 5) == 46


def _objects(mode, n, t):
    if mode is Mode.PERMUTATION:
        return [PermSequence(pi) for pi in permutations(range(1, n + 1))]
    return [WordSequence(w, t) for w in product(range(1, t + 1), repeat=n)]


def _naive_histogram(pat, seqs):
    return dict(Counter(len(naive_occurrences(pat, s)) for s in seqs))


def test_scans_equal_per_object_recount_on_fixtures():
    for text in sorted({text for text, _ in STAT_ALPHABETS.values()}):
        for n in range(7):
            pat = parse_pattern(text)
            hist = _naive_histogram(pat, _objects(Mode.PERMUTATION, n, None))
            assert dict(perm_distribution(pat, n).counts) == hist, (text, n)
            assert perm_multi_avoiders([pat], n) == hist.get(0, 0), (text, n)
            pat = parse_pattern(text, Mode.WORD)
            for t in range(1, 4):
                hist = _naive_histogram(pat, _objects(Mode.WORD, n, t))
                assert dict(word_distribution(pat, t, n).counts) == hist, (text, t, n)
                assert word_multi_avoiders([pat], t, n) == hist.get(0, 0), (text, t, n)


def test_prefix_walk_equals_per_object_filter(rng):
    for _ in range(40):
        mode = Mode.PERMUTATION if rng.random() < 0.5 else Mode.WORD
        avoid = [random_pattern(rng, mode) for _ in range(rng.randrange(3))]
        counted = [random_pattern(rng, mode) for _ in range(rng.randrange(3))]
        cap = rng.choice([None, 0, 1, 2])
        n = rng.randint(0, 5)
        t = None if mode is Mode.PERMUTATION else rng.randint(1, 3)
        want = []
        for seq in _objects(mode, n, t):
            if any(naive_occurrences(p, seq) for p in avoid):
                continue
            counts = tuple(len(naive_occurrences(p, seq)) for p in counted)
            if cap is not None and any(c > cap for c in counts):
                continue
            want.append((seq.entries, counts))
        got = [(tuple(e), c) for e, c in prefix_walk(n, t, avoid, counted, cap)]
        assert got == want


def test_long_one_letter_words():
    # one object of length 3000: the walk must not recurse once per position
    adjacent_equal = parse_pattern("11|P,{1},P|-|P,P", Mode.WORD)
    rise = parse_pattern("12|P,{2},P|(1,2,{2})|P,P", Mode.WORD)
    assert dict(word_distribution(adjacent_equal, 1, 3000).counts) == {2999: 1}
    assert dict(word_distribution(rise, 1, 3000).counts) == {0: 1}
    assert word_multi_avoiders([rise], 1, 3000) == 1
    assert word_multi_avoiders([adjacent_equal], 1, 3000) == 0


def test_ank_scan_equals_per_object_recount():
    blocks = [parse_gp("231"), parse_gp("132")]
    for n in range(1, 8):
        want = {k: [0, 0] for k in (1, 2, 3)}
        for seq in _objects(Mode.PERMUTATION, n, None):
            if any(naive_occurrences(b, seq) for b in blocks):
                continue
            for k in (1, 2, 3):
                c = len(naive_occurrences(_shifted_rise_pattern(k), seq))
                if c <= 1:
                    want[k][c] += 1
        assert _ank_scan(n) == {k: tuple(v) for k, v in want.items()}, n
