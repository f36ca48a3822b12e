"""Acceptance suite: one test per numbered criterion, exact assertions only.

Three recorded reference values in this family are contradicted by exhaustive
recomputation: the mod-4 closed form (criterion 5), the exactly-one identity
for V-shaped avoiders at k = 1 (criterion 6) and the d4 series with both of
its closed-form displays (criterion 9).  Those tests assert the values that a
`naive_occurrences` recount establishes, and pin that the matching
`pdvp verify` check reports exactly the recorded discrepancies as MISMATCH
lines: a check that stops reporting one, or reports a new one, fails them.
"""

from collections import Counter
from itertools import combinations, permutations, product
from math import comb

import pytest

from conftest import naive_occurrences, random_pattern, random_sequence

from pdvp import checks, exhaustive, formulas
from pdvp.dsl import parse_gp, parse_pattern
from pdvp.exhaustive import perm_distribution, word_distributions
from pdvp.matcher import PermSequence, WordSequence, avoids, count, occurrences
from pdvp.pattern import Mode, make_classical, make_gp
from pdvp.problems import problem_report
from pdvp.transfer import expand_rational


@pytest.fixture(scope="module")
def check():
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = checks.run_check(name)
        return cache[name]

    return get


def _assert_ok(result):
    detail = [line.strip() for line in result.lines if not line.strip().startswith("ok:")]
    assert result.ok, "\n".join([f"check {result.name}:"] + detail)


def _mismatch_labels(result):
    """Labels of the MISMATCH lines of a check result."""
    return {
        line.strip().removeprefix("MISMATCH: ").rpartition(": computed ")[0]
        for line in result.lines
        if line.strip().startswith("MISMATCH: ")
    }


def _naive_avoiders(pat, seqs):
    return sum(1 for seq in seqs if not naive_occurrences(pat, seq))


def _v_permutations(n):
    """The 2^(n-1) permutations of 1..n that descend to 1, then ascend."""
    rest = range(2, n + 1)
    for r in range(n):
        for down in combinations(rest, r):
            up = tuple(v for v in rest if v not in down)
            yield down[::-1] + (1,) + up


def test_criterion_01_worked_example():
    """One occurrence, values (2, 4), in 23154."""
    pat = parse_pattern("12|{1},{3,4},{1,2,3}|(1,2,E)|E,P")
    seq = PermSequence((2, 3, 1, 5, 4))
    occ = occurrences(pat, seq)
    assert [(o.indices, o.values(seq)) for o in occ] == [((1, 5), (2, 4))]


def test_criterion_02_dashed_and_adjacency_examples():
    """Dashed counts in 516423; plain and doubly-constrained 231 membership."""
    seq = PermSequence((5, 1, 6, 4, 2, 3))
    assert count(parse_gp("2-31"), seq) == 1
    assert count(parse_gp("2-3-1"), seq) == 3
    assert not avoids(make_classical((2, 3, 1)), PermSequence((3, 1, 5, 2, 4)))
    fig = parse_pattern("231|P,{1},P,P|(1,3,{1})|P,P,P")
    assert avoids(fig, PermSequence((3, 1, 5, 2, 4)))
    assert not avoids(fig, PermSequence((3, 2, 5, 4, 1)))


def test_criterion_03_distribution_transfer(check):
    """b_even from brute-forced rows equals parity-pattern distributions on
    S_2, S_4, S_6 for bases 12, 21, 123, at every occurrence count."""
    _assert_ok(check("eq1"))


def test_criterion_04_avoidance_specialisations():
    """Catalan and monotone specialisations match brute force for n <= 3."""
    mono = {k: {0: 1} for k in range(4)}
    cat = {k: {0: formulas.catalan(k)} for k in range(4)}
    for n in (1, 2, 3):
        assert formulas.b_even(mono, n, 0) == perm_distribution(
            checks.parity_position_pattern((1, 2)), 2 * n
        )[0]
        assert formulas.b_even(cat, n, 0) == perm_distribution(
            checks.parity_position_pattern((1, 2, 3)), 2 * n
        )[0]


def test_eq1_walks_each_parity_table_once(monkeypatch):
    # the specialisations read the per-base tables: one value walk per base
    # and length, beside the one tree walk of each base's classical rows
    walk, paths = exhaustive.prefix_walk, []
    monkeypatch.setattr(exhaustive, "prefix_walk",
                        lambda plan, *a, **k: paths.append(plan.path) or walk(plan, *a, **k))
    result = checks.check_eq1()
    assert Counter(paths) == {"values": 9, "tree": 3}
    assert result.ok


def test_criterion_05_mod4_closed_form(check):
    """S_4 and S_8 hold 24 and 37488 avoiders of the mod-4 rise: a
    naive_occurrences recount, the exhaustive scan and the regrouped closed
    form k4n_exact agree.  (In S_4 no two positions differ by a positive
    multiple of 4, so every permutation avoids it.)

    The recorded closed form k4n gives 18 and 6144, and the k4n check
    reports exactly those two values as mismatches.
    """
    pat = checks.mod4_pattern()
    naive = [
        _naive_avoiders(pat, map(PermSequence, permutations(range(1, 4 * n + 1))))
        for n in (1, 2)
    ]
    assert naive == [24, 37488]
    assert [checks._k4n_brute(n) for n in (1, 2)] == naive
    assert [formulas.k4n_exact(n) for n in (1, 2)] == naive
    assert [formulas.k4n(n) for n in (1, 2)] == [18, 6144]
    assert _mismatch_labels(check("k4n")) == {
        "closed form at n=1 vs S_4 scan",
        "closed form at n=2 vs S_8 scan",
    }


def test_criterion_06_v_shaped_avoiders(check):
    """a_nk equals the avoider count over V-permutations for n <= 9, k <= 3;
    the k=2 slice is 3, 6, .., 192; exactly-one counts equal 2^(n-1) - a_nk
    for k = 2, 3.  Every count is recounted with naive_occurrences over the
    directly built V-permutations and compared with the check's scan.

    For k = 1 the identity is false, since a V-permutation can hold several
    adjacent rises by 1 (123 holds two).  The exactly-one counts there are
    0,1,1,3,5,10,18,33,59, and the ank check reports exactly the identity
    lines for k = 1, n = 3..9 as mismatches.
    """
    v_shape = (make_gp("231"), make_gp("132"))
    for n in range(1, 7):
        defined = {
            p for p in permutations(range(1, n + 1))
            if not any(naive_occurrences(b, PermSequence(p)) for b in v_shape)
        }
        assert defined == set(_v_permutations(n))
    exactly_one_k1 = []
    for n in range(1, 10):
        seqs = [PermSequence(p) for p in _v_permutations(n)]
        assert len(seqs) == 2 ** (n - 1)
        for k in (1, 2, 3):
            pat = checks._shifted_rise_pattern(k)
            occ = [len(naive_occurrences(pat, seq)) for seq in seqs]
            naive = (occ.count(0), occ.count(1))
            assert checks._ank_scan(9)[n][k] == naive
            assert naive[0] == formulas.a_nk(n, k)
            if k == 1:
                exactly_one_k1.append(naive[1])
            else:
                assert naive[1] == 2 ** (n - 1) - formulas.a_nk(n, k)
    assert exactly_one_k1 == [0, 1, 1, 3, 5, 10, 18, 33, 59]
    assert [formulas.a_nk(n, 2) for n in range(3, 10)] == checks.ANK_K2_REFERENCE
    assert _mismatch_labels(check("ank")) == {
        f"exactly-one count at n={n}, k=1 vs 2^(n-1) - a(n,1)" for n in range(3, 10)
    }


def test_criterion_07_three_letter_distance_two_series(check):
    """dp equals scans (n <= 9) and the closed form (n <= 14); avoidance slice
    matches the Fibonacci product forms; coefficient double sums agree."""
    _assert_ok(check("a3"))


def test_criterion_08_a4_b3_b4(check):
    """Solver and dp agree; avoidance series are 1,4,16,56,..., 1,3,8,21,...
    and 1,4,14,48,...."""
    _assert_ok(check("a4"))
    _assert_ok(check("b3"))
    _assert_ok(check("b4"))


def test_criterion_09_d3(check):
    """Solver expansion equals dp and yields 1,3,8,20,49,119,288."""
    _assert_ok(check("d3"))


def test_criterion_09_d4(check):
    """Solver expansion equals dp, and the dp avoidance series equals a
    naive_occurrences recount over {1..4}^n, n <= 6: 1,4,14,44,134,400,1184.

    The recorded series 1,4,14,46,156,528,1800 and both recorded closed-form
    displays disagree with the recount (the z=0 display gives 18 words of
    length 2 out of 16; the bivariate one gives z^0 coefficients
    1,4,10,6,-52,..), and the d4 check reports exactly the series and the
    display count as mismatches.
    """
    text, t = checks.STAT_ALPHABETS["d4"]
    pat = parse_pattern(text, Mode.WORD)
    naive = [
        _naive_avoiders(
            pat, (WordSequence(w, t) for w in product(range(1, t + 1), repeat=n))
        )
        for n in range(7)
    ]
    assert naive == [1, 4, 14, 44, 134, 400, 1184]
    dp = checks._dp_table("d4")
    assert dp.z0_series()[:7] == naive
    assert expand_rational(checks._solver_gf("d4"), 14) == dp
    assert checks.REFERENCE_Z0["d4"][:7] != naive
    for display in (checks.d4_display_bivariate(), checks.d4_display_z0()):
        assert expand_rational(display, 6).z0_series() != naive
    assert _mismatch_labels(check("d4")) == {
        "d4 avoidance series",
        "exactly one display matches the dp oracle",
    }


def test_d4_scan_note_follows_the_scans(check, monkeypatch):
    """The d4 check says the series is confirmed by word scans only after
    running them; scans that disagree give a MISMATCH line instead."""
    note = "  the computed series is confirmed by exhaustive word scans"
    assert note in check("d4").lines
    monkeypatch.setattr(
        checks.exhaustive, "word_avoider_counts", lambda pats, t, n_max: [0] * (n_max + 1)
    )
    result = checks.run_check("d4")
    assert note not in result.lines
    assert _mismatch_labels(result) == _mismatch_labels(check("d4")) | {
        "d4 avoidance series vs word scans, n <= 7"
    }


def test_criterion_10_e4(check):
    """Solver expansion equals dp; avoidance series 1,4,15,54,193,688."""
    _assert_ok(check("e4"))


def test_criterion_11_pair_avoidance(check):
    """Scans match the recursion values for n <= 12 and the closed form
    fib(n+5)-n-4; recursion equals closed form for n <= 40."""
    _assert_ok(check("words123"))


def test_criterion_12_fibonacci_bijection_counts(check):
    """Three-letter words with no 13 factor vs binary words with no 11."""
    _assert_ok(check("fib-bij"))


def test_criterion_13_walk_alignments():
    """Problems 2 and 3: a constant offset aligns walk counts with the
    avoidance series over at least 6 consecutive entries."""
    rep2 = problem_report(2, 9)
    assert rep2.offset is not None
    assert sum(rep2.matched) >= 6
    rep3 = problem_report(3, 9)
    assert rep3.offset is not None
    assert sum(rep3.matched) >= 6


def test_criterion_14_two_stack_report():
    """Problem 4: both sequences computed for n <= 9, shifts searched in
    [-3, 3], verdict documented."""
    rep = problem_report(4, 9)
    assert len(rep.a_values) == 9 and len(rep.b_values) == 9
    assert rep.notes
    # computed verdict: the sides align at shift 3
    assert rep.offset == 3
    assert rep.b_values == (0, 0, 1, 3, 7, 14, 26, 46, 79)


def test_criterion_15a_matcher_against_naive_filter(rng):
    """1000 random (pattern, sequence) pairs with n <= 8."""
    for _ in range(1000):
        mode = Mode.PERMUTATION if rng.random() < 0.5 else Mode.WORD
        pat = random_pattern(rng, mode)
        seq = random_sequence(rng, mode, n_max=8)
        assert [o.indices for o in occurrences(pat, seq)] == naive_occurrences(pat, seq)


def test_criterion_15b_dp_equals_word_scans():
    """Every statistic fixture, t <= 4, n <= 10: dp rows equal scan rows."""
    from pdvp.transfer import StatPattern, dp_series

    fixtures = {checks.STAT_ALPHABETS[name][0] for name in checks.STAT_ALPHABETS}
    for text in sorted(fixtures):
        pat = parse_pattern(text, Mode.WORD)
        sp = StatPattern(pat)
        for t in range(1, 5):
            dp = dp_series(sp, t, 10)
            for n, table in enumerate(word_distributions(pat, t, 10)):
                assert dp.z_poly(n) == dict(table.counts), (text, t, n)


def test_criterion_15c_solver_equals_dp(check):
    """All seven named systems: solver expansion equals dp to order 14."""
    for name in checks.STAT_ALPHABETS:
        assert expand_rational(checks._solver_gf(name), 14) == checks._dp_table(name)


def test_criterion_15d_totals_normalisation():
    """Every dp table row sums to t^n (the z = 1 slice)."""
    for name, (_, t) in checks.STAT_ALPHABETS.items():
        table = checks._dp_table(name)
        assert table.totals() == [t**n for n in range(15)]


# The two results the paper's abstract cites, stated as PDVPs.


def _times(a: list[int], b: list[int], n_max: int) -> list[int]:
    """The product of two coefficient lists, through x^n_max."""
    out = [0] * (n_max + 1)
    for i, x in enumerate(a[:n_max + 1]):
        for j, y in enumerate(b[:n_max + 1 - i]):
            out[i + j] += x * y
    return out


def test_cited_bcdk_avoiders_are_the_fishburn_numbers():
    """Bousquet-Mélou, Claesson, Dukes and Kitaev: the permutations avoiding
    the bivincular 231 whose 2 and 3 are adjacent in place and whose 1 and 2
    are adjacent in value are counted by sum_k prod_{i<=k} (1 - (1 - x)^i)."""
    fishburn = parse_pattern("231|P,{1},P,P|(1,3,{1})|P,P,P")
    n_max = 8
    series, term = [0] * (n_max + 1), [1] + [0] * n_max
    for k in range(n_max + 1):  # term k starts at x^k, so later ones add nothing
        series = [a + b for a, b in zip(series, term)]
        factor = [0] + [(-1) ** (j + 1) * comb(k + 1, j) for j in range(1, k + 2)]
        term = _times(term, factor, n_max)
    assert series == [1, 1, 2, 5, 15, 53, 217, 1014, 5335]
    assert [exhaustive.perm_multi_avoiders([fishburn], n) for n in range(n_max + 1)] == series
    for n in range(7):
        avoiders = sum(not naive_occurrences(fishburn, PermSequence(p))
                       for p in permutations(range(1, n + 1)))
        assert avoiders == series[n], n


def test_cited_maj_is_a_sum_of_dashed_pattern_counts():
    """Babson and Steingrímsson: maj = (1-32) + (2-31) + (3-21) + (21) on
    every permutation, so its distribution over S_n is [n]_q!."""
    pats = [parse_gp(text) for text in ("1-32", "2-31", "3-21", "21")]
    q_factorial = [1]  # [n]_q! = [1]_q [2]_q .. [n]_q, with [i]_q = 1 + q + .. + q^(i-1)
    for n in range(7):
        if n:
            q_factorial = _times(q_factorial, [1] * n, n * (n - 1) // 2)
        row = Counter()
        for p in permutations(range(1, n + 1)):
            seq = PermSequence(p)
            counts = [count(pat, seq) for pat in pats]
            if n <= 5:
                assert counts == [len(naive_occurrences(pat, seq)) for pat in pats], p
            maj = sum(counts)
            assert maj == sum(i for i in range(1, n) if p[i - 1] > p[i]), p
            row[maj] += 1
        assert [row[k] for k in range(len(q_factorial))] == q_factorial, n
