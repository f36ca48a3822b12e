import time
from collections import Counter
from itertools import permutations, product
from math import comb, factorial

import pytest

from conftest import naive_occurrences, random_pattern, random_set

from pdvp import exhaustive
from pdvp.checks import STAT_ALPHABETS, _ank_scan, _shifted_rise_pattern
from pdvp.cli import main
from pdvp.dsl import parse_gp, parse_pattern, render_pattern
from pdvp.exhaustive import (
    DEFAULT_SCAN_BUDGET,
    EnumerationLimitError,
    check_scan,
    perm_distribution,
    perm_multi_avoiders,
    prefix_walk,
    word_avoider_counts,
    word_distribution,
    word_distributions,
    word_multi_avoiders,
)
from pdvp.intset import EVENS, POSITIVES, finite
from pdvp.matcher import PermSequence, WordSequence
from pdvp.pattern import Mode, Pdvp, YTriple, make_classical
from pdvp.problems import problem_report, two_stack_sortable_count
from pdvp.transfer import SeriesBudgetError, StatPattern, series_row


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


def test_perm_limit_error_names_limit(monkeypatch):
    monkeypatch.delenv("PDVP_BUDGET", raising=False)
    with pytest.raises(EnumerationLimitError,
                       match=r"^scan of 108505111 walk nodes exceeds the budget 100000000$"):
        perm_distribution(make_classical((1, 2)), 11)
    monkeypatch.setenv("PDVP_BUDGET", "63")
    with pytest.raises(EnumerationLimitError,
                       match=r"^scan of 64 walk nodes exceeds the budget 63$"):
        perm_distribution(make_classical((1, 2)), 4)


def test_word_budget_error(monkeypatch):
    pat = parse_pattern("12|P,{2},P|(1,2,{2})|P,P", Mode.WORD)
    monkeypatch.setenv("PDVP_BUDGET", str(3**8))
    # 3 + 9 + ... + 3^9 prefixes
    with pytest.raises(EnumerationLimitError,
                       match=r"^scan of 29523 walk nodes exceeds the budget 6561$"):
        word_distribution(pat, 3, 9)


def test_negative_lengths_rejected():
    perm, word = make_classical((1, 2)), parse_pattern("12|P,P,P|-|P,P", Mode.WORD)
    for scan in (
        lambda: perm_distribution(perm, -1),
        lambda: perm_multi_avoiders([perm], -1),
        lambda: word_distribution(word, 2, -1),
        lambda: word_multi_avoiders([word], 2, -1),
    ):
        with pytest.raises(ValueError, match="non-negative"):
            scan()


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
    # one counted pattern or none, with and without a cap
    for counted, capped in [(False, False), (False, True), (True, False), (True, True)] * 30:
        mode = Mode.PERMUTATION if rng.random() < 0.5 else Mode.WORD
        avoid = [random_pattern(rng, mode) for _ in range(rng.randrange(3))]
        count = random_pattern(rng, mode) if counted else None
        cap = rng.choice([0, 1, 2]) if capped else None
        n = rng.randint(0, 5)
        t = None if mode is Mode.PERMUTATION else rng.randint(1, 3)
        want = []
        for seq in _objects(mode, n, t):
            if any(naive_occurrences(p, seq) for p in avoid):
                continue
            c = len(naive_occurrences(count, seq)) if counted else 0
            if cap is not None and c > cap:
                continue
            want.append((seq.entries, c))
        got = [(tuple(e), c) for e, c in prefix_walk(n, t, avoid, count, cap)]
        assert got == want


def test_every_length_from_one_walk_equals_a_walk_per_length(rng):
    pats = [parse_pattern(text, Mode.WORD) for text in sorted(
        {text for text, _ in STAT_ALPHABETS.values()})]
    for _ in range(40):
        pat = random_pattern(rng, Mode.WORD)
        # half of them with a closing gap set of P, which takes the one walk
        x = pat.x[:-1] + (POSITIVES,) if rng.random() < 0.5 else pat.x
        pats.append(Pdvp(Mode.WORD, pat.base, x, pat.y, pat.z))
    for pat in pats:
        for t in range(1, 4):
            tables = word_distributions(pat, t, 6)
            assert [table.length for table in tables] == list(range(7))
            for n, table in enumerate(tables):
                assert table.counts == word_distribution(pat, t, n).counts, (pat, t, n)
            others = [random_pattern(rng, Mode.WORD) for _ in range(rng.randrange(2))]
            assert word_avoider_counts([pat] + others, t, 6) == [
                word_multi_avoiders([pat] + others, t, n) for n in range(7)
            ], (pat, others, t)


def test_every_length_scans_keep_the_budget(monkeypatch):
    pat = parse_pattern(STAT_ALPHABETS["d4"][0], Mode.WORD)
    monkeypatch.setenv("PDVP_BUDGET", str(4**9))
    with pytest.raises(EnumerationLimitError):
        word_distributions(pat, 4, 10)
    with pytest.raises(EnumerationLimitError):
        word_avoider_counts([pat], 4, 10)
    assert word_avoider_counts([pat], 4, 3) == [1, 4, 14, 44]


def _prefixes(n, t):
    """The nonempty prefixes of the objects itertools enumerates: S_n (t None)
    or {1..t}^n."""
    objects = permutations(range(n)) if t is None else product(range(t), repeat=n)
    return {obj[:d] for obj in objects for d in range(1, n + 1)}


def _refusal(nodes, budget):
    return rf"^scan of {nodes} walk nodes exceeds the budget {budget}$"


def test_walk_nodes_are_the_prefixes_itertools_enumerates(monkeypatch):
    for t in (None, 1, 2, 3, 4):
        total = 0  # the nodes of one walk of each length 0..n
        for n in range(7):
            nodes = len(_prefixes(n, t))
            total += nodes
            for each_length, want in ((False, nodes), (True, total)):
                monkeypatch.setenv("PDVP_BUDGET", str(want))
                check_scan((), t, n, each_length)
                if want:
                    monkeypatch.setenv("PDVP_BUDGET", str(want - 1))
                    with pytest.raises(EnumerationLimitError, match=_refusal(want, want - 1)):
                        check_scan((), t, n, each_length)


def test_scan_budget_boundaries(monkeypatch):
    monkeypatch.delenv("PDVP_BUDGET", raising=False)
    assert DEFAULT_SCAN_BUDGET == 10**8
    start = time.perf_counter()
    check_scan((), None, 10)
    check_scan((), 2, 25)
    for t, n, nodes in ((None, 11, 108505111), (2, 26, 2**27 - 2), (10, 8, 111111110)):
        with pytest.raises(EnumerationLimitError, match=_refusal(nodes, 10**8)):
            check_scan((), t, n)
    # inputs far past the budget are refused as fast; a count too long to
    # print is named by its lower bound
    for t, n in ((None, 10**12), (3, 10**9), (10**50, 10**9)):
        with pytest.raises(EnumerationLimitError, match=r"^scan of at least 8\^\d+ walk nodes"):
            check_scan((), t, n, each_length=True)
    with pytest.raises(EnumerationLimitError, match=_refusal(10**9 * (10**9 + 1) // 2, 10**8)):
        check_scan((), 1, 10**9, each_length=True)
    assert time.perf_counter() - start < 1
    # a word space whose node count equals the budget runs; one node more does not
    pat = parse_pattern("12|P,{1},P|(1,2,{1})|P,P", Mode.WORD)
    monkeypatch.setenv("PDVP_BUDGET", str(3 + 9 + 27 + 81 + 243))
    assert word_multi_avoiders([pat], 3, 5) == sum(
        1 for w in product((1, 2, 3), repeat=5) if not naive_occurrences(pat, WordSequence(w, 3))
    )
    monkeypatch.setenv("PDVP_BUDGET", str(3 + 9 + 27 + 81 + 243 - 1))
    with pytest.raises(EnumerationLimitError, match=_refusal(363, 362)):
        word_multi_avoiders([pat], 3, 5)


# A closing gap set of P lets one walk settle every length; {1} does not.
_FREE = "12|P,{2},P|(1,2,{2})|P,P"
_ANCHORED = "12|P,{2},{1}|(1,2,{2})|P,P"


@pytest.mark.parametrize(
    "scan, nodes",
    [
        (lambda: perm_distribution(make_classical((1, 2)), 5), 325),
        (lambda: perm_multi_avoiders([make_classical((1, 2))], 5), 325),
        (lambda: word_distribution(parse_pattern(_FREE, Mode.WORD), 3, 4), 120),
        (lambda: word_multi_avoiders([parse_pattern(_FREE, Mode.WORD)], 3, 4), 120),
        (lambda: word_distributions(parse_pattern(_FREE, Mode.WORD), 3, 4), 120),
        (lambda: word_avoider_counts([parse_pattern(_FREE, Mode.WORD)], 3, 4), 120),
        # one walk of each length 1..4: 3 + 12 + 39 + 120
        (lambda: word_distributions(parse_pattern(_ANCHORED, Mode.WORD), 3, 4), 174),
        (lambda: word_avoider_counts([parse_pattern(_ANCHORED, Mode.WORD)], 3, 4), 174),
        (lambda: two_stack_sortable_count(5, True, True), 325),
        # problem 4 scans S_1..S_5: 1 + 4 + 15 + 64 + 325
        (lambda: problem_report(4, 5), 409),
    ],
)
def test_every_scan_entry_point_checks_the_budget(monkeypatch, scan, nodes):
    monkeypatch.setenv("PDVP_BUDGET", str(nodes - 1))
    with pytest.raises(EnumerationLimitError, match=_refusal(nodes, nodes - 1)):
        scan()
    monkeypatch.setenv("PDVP_BUDGET", str(nodes))
    scan()


def test_long_one_letter_words():
    # one object of length 3000: the walk must not recurse once per position
    adjacent_equal = parse_pattern("11|P,{1},P|-|P,P", Mode.WORD)
    rise = parse_pattern("12|P,{2},P|(1,2,{2})|P,P", Mode.WORD)
    assert dict(word_distribution(adjacent_equal, 1, 3000).counts) == {2999: 1}
    assert dict(word_distribution(rise, 1, 3000).counts) == {0: 1}
    assert word_multi_avoiders([rise], 1, 3000) == 1
    assert word_multi_avoiders([adjacent_equal], 1, 3000) == 0
    # the window automaton decodes only the last row: 10000 slots, not 10000 rows
    start = time.perf_counter()
    assert dict(word_distribution(adjacent_equal, 1, 10000).counts) == {9999: 1}
    assert word_multi_avoiders([adjacent_equal], 1, 10000) == 0
    assert time.perf_counter() - start < 1


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


# Word scans of bounded-window patterns read the window automaton; the
# every-length scans still walk, and are its oracle here, beside the
# per-word naive recount.


def _random_window_pattern(rng):
    """A random word pattern that transfer.StatPattern accepts: boundary gap
    sets P (sometimes written P+E), finite interior gap sets and Y triples on
    pattern indices only."""
    m = rng.randint(1, 3)
    k = rng.randint(1, m)
    base = list(range(1, k + 1)) + [rng.randint(1, k) for _ in range(m - k)]
    rng.shuffle(base)
    ends = [rng.choice([POSITIVES, POSITIVES | EVENS]) for _ in range(2)]
    inner = [finite(rng.sample(range(1, 4), rng.randint(1, 2))) for _ in range(m - 1)]
    y = []
    for _ in range(rng.randrange(3) if m > 1 else 0):
        s = rng.randint(1, m - 1)
        y.append(YTriple(s, rng.randint(s + 1, m), random_set(rng)))
    z = tuple(random_set(rng) for _ in range(m))
    pat = Pdvp(Mode.WORD, tuple(base), (ends[0], *inner, ends[1]), tuple(y), z)
    StatPattern(pat)  # admissible
    return pat


def _no_walk(*args, **kwargs):
    raise AssertionError("the window automaton should have answered")


def test_long_one_letter_words_read_one_row(monkeypatch):
    # series_row keeps one row, so its bits budget charges one row, not 12001
    adjacent_equal = parse_pattern("11|P,{1},P|-|P,P", Mode.WORD)
    monkeypatch.setattr(exhaustive, "prefix_walk", _no_walk)
    start = time.perf_counter()
    assert dict(word_distribution(adjacent_equal, 1, 12000).counts) == {11999: 1}
    assert time.perf_counter() - start < 1


def test_window_pattern_scans_equal_the_walks_and_the_naive_recount(rng, monkeypatch):
    for _ in range(40):
        pat = _random_window_pattern(rng)
        t, n = rng.randint(1, 3), rng.randint(0, 7)
        hist = _naive_histogram(pat, _objects(Mode.WORD, n, t))
        walked = word_distributions(pat, t, n)[n]
        avoiders = word_avoider_counts([pat], t, n)[n]
        with monkeypatch.context() as patched:
            patched.setattr(exhaustive, "prefix_walk", _no_walk)
            got = word_distribution(pat, t, n)
            assert word_multi_avoiders([pat], t, n) == avoiders == hist.get(0, 0), (pat, t, n)
        assert got.length == n
        assert list(got.counts.items()) == list(walked.counts.items()) == sorted(hist.items())


def _random_avoid_sets(rng):
    """The empty set, then sets of one to three window patterns."""
    sets = [[]] + [[_random_window_pattern(rng) for _ in range(rng.randint(1, 3))]
                   for _ in range(30)]
    widths = [{StatPattern(p).window_width for p in pats} for pats in sets]
    assert sum(len(w) > 1 for w in widths) >= 5  # mixed window widths
    return sets


def test_window_avoid_sets_equal_the_walks_and_the_naive_recount(rng, monkeypatch):
    for pats in _random_avoid_sets(rng):
        t, n = rng.randint(1, 3), rng.randint(0, 7)
        naive = sum(
            1 for seq in _objects(Mode.WORD, n, t)
            if not any(naive_occurrences(p, seq) for p in pats)
        )
        walked = word_avoider_counts(pats, t, n)[n]
        with monkeypatch.context() as patched:
            patched.setattr(exhaustive, "prefix_walk", _no_walk)
            assert word_multi_avoiders(pats, t, n) == walked == naive, (pats, t, n)


def test_series_refusals_fall_back_to_the_walk(monkeypatch):
    pat = parse_pattern("12|P,{1},P|(1,2,{1})|P,P", Mode.WORD)
    start = time.perf_counter()
    with pytest.raises(SeriesBudgetError, match=r"^alphabet size 4097 exceeds the budget 4096$"):
        series_row([StatPattern(pat)], 4097, 1)
    assert time.perf_counter() - start < 1
    walks = []
    walk = exhaustive.prefix_walk
    monkeypatch.setattr(
        exhaustive, "prefix_walk", lambda *a, **k: walks.append(a) or walk(*a, **k)
    )
    assert dict(word_distribution(pat, 4097, 1).counts) == {0: 4097}
    assert word_multi_avoiders([pat], 4097, 1) == 4097
    assert len(walks) == 2
    # a pattern StatPattern refuses (an infinite interior gap set) walks too
    wide = parse_pattern("12|P,P,P|-|P,P", Mode.WORD)
    assert dict(word_distribution(wide, 2, 3).counts) == {0: 4, 1: 2, 2: 2}
    assert word_multi_avoiders([pat, wide], 2, 3) == 4
    assert len(walks) == 4


def _cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_word_scans_print_what_the_walk_prints(rng, capsys, monkeypatch):
    runs = []
    for _ in range(15):
        pat = _random_window_pattern(rng)
        t, n = rng.randint(1, 3), rng.randint(0, 7)
        runs.append(["dist", "--pattern", render_pattern(pat),
                      "--word-n", str(n), "--alphabet", str(t)])
    for pats in _random_avoid_sets(rng)[:15]:
        t, n = rng.randint(1, 3), rng.randint(0, 7)
        flags = [arg for p in pats for arg in ("--pattern", render_pattern(p))]
        runs.append(["avoid", *flags, "--word-n", str(n), "--alphabet", str(t)])
    for argv in runs:
        for fmt in ("text", "json"):
            with monkeypatch.context() as patched:
                patched.setattr(exhaustive, "prefix_walk", _no_walk)
                routed = _cli(capsys, ["--format", fmt, *argv])
            with monkeypatch.context() as patched:
                patched.setattr(exhaustive, "_series_row", lambda pats, t, n: None)
                walked = _cli(capsys, ["--format", fmt, *argv])
            assert routed == walked, argv
            assert routed[0] == 0 and routed[2] == "", argv
