import random
import time
from collections import Counter
from itertools import product

import pytest

from conftest import fib_series_gf, naive_occurrences

from pdvp import checks
from pdvp.dsl import parse_pattern
from pdvp.exhaustive import word_distributions
from pdvp.matcher import WordSequence
from pdvp.pattern import Mode
from pdvp.transfer import (
    DEFAULT_STATE_BUDGET,
    ONE,
    Q,
    RationalGF,
    StatPattern,
    Z,
    ZERO,
    ZSeriesTable,
    BivarPoly,
    _automaton,
    _bareiss,
    _decode,
    _lump,
    _mul_acc,
    dp_series,
    expand_rational,
    gf_equal_series,
    series_row,
    solve_transfer_system,
)


# The elimination over BivarPoly that the solver ran before it carried z as an
# integer: the oracle for the packed `_bareiss`, sharing no packing code.


def _zpoly_exact_div(num, den):
    """Exact division in Z[z]; raises ArithmeticError if not exact."""
    num = dict(num)
    dd = max(den)
    dl = den[dd]
    out = {}
    while num:
        nd = max(num)
        if nd < dd or num[nd] % dl:
            raise ArithmeticError("inexact polynomial division")
        out[nd - dd] = num[nd] // dl
        _mul_acc(num, {nd - dd: out[nd - dd]}, den, -1)
    return out


def exact_div(num, den):
    """Exact division in Z[q, z]: long division in q over Z[z], row by row."""
    if not den:
        raise ArithmeticError("division by zero polynomial")
    rest = {i: dict(row) for i, row in num._rows.items()}
    dd = max(den._rows)
    out = {}
    while rest:
        nd = max(rest)
        if nd < dd:
            raise ArithmeticError("inexact polynomial division")
        c = out[nd - dd] = _zpoly_exact_div(rest[nd], den._rows[dd])
        for i, row in den._rows.items():
            acc = rest.setdefault(nd - dd + i, {})
            _mul_acc(acc, c, row, -1)
            if not acc:
                del rest[nd - dd + i]
    return BivarPoly._of(out)


def _bivar_bareiss(m):
    """Fraction-free elimination of a square BivarPoly matrix, in place:
    det(m) and the last pivot before it, with the pivot and skip rules of
    the packed `_bareiss`."""
    n = len(m)
    prev = ONE
    for k in range(n - 1):
        pivot_row = m[k]
        pivot = pivot_row[k]
        if not pivot:
            raise ArithmeticError("zero pivot")
        same = pivot == prev
        for i in range(k + 1, n):
            row_i = m[i]
            lead = row_i[k]
            if same and not lead:
                continue
            for j in range(k + 1, n):
                if row_i[j] or pivot_row[j]:
                    row_i[j] = exact_div(pivot * row_i[j] - lead * pivot_row[j], prev)
            row_i[k] = ZERO
        prev = pivot
    return m[n - 1][n - 1], prev


def test_ring_basics():
    assert (ONE + Q) * (ONE - Q) == ONE - Q**2
    p = 3 * Q * Z - Q**2
    assert p + ZERO == p
    assert p - p == ZERO
    assert (Q + Z) ** 2 == Q**2 + 2 * Q * Z + Z**2


def _random_poly(rng):
    terms = {}
    for _ in range(rng.randint(1, 6)):
        terms[(rng.randrange(4), rng.randrange(4))] = rng.randint(-5, 5)
    return BivarPoly(terms)


def test_exact_division_inverts_multiplication():
    rng = random.Random(7)
    for _ in range(200):
        a = _random_poly(rng)
        b = _random_poly(rng)
        if not b:
            continue
        assert exact_div(a * b, b) == a


def _naive_product(a_terms, b_terms, order=None):
    """Convolution of two term lists keyed by (q-degree, z-degree), through
    q^order if an order is given: sorted triples, zeros left out."""
    out = Counter()
    for i1, j1, c1 in a_terms:
        for i2, j2, c2 in b_terms:
            if order is None or i1 + i2 <= order:
                out[(i1 + i2, j1 + j2)] += c1 * c2
    return sorted((i, j, c) for (i, j), c in out.items() if c)


def test_product_matches_naive_convolution():
    rng = random.Random(13)
    for _ in range(200):
        a, b = _random_poly(rng), _random_poly(rng)
        assert (a * b).terms() == _naive_product(a.terms(), b.terms())


def test_cancellation_leaves_no_zero_coefficient_or_empty_row():
    assert ((Q + Z) - Z).terms() == [(1, 0, 1)]
    assert (Q + Z) - Z == Q
    assert not (Q * Z - Z * Q)
    assert (ONE + Q) * (ONE - Q) + Q**2 == ONE


def test_operations_leave_their_operands_unchanged():
    rng = random.Random(17)
    for _ in range(50):
        a, b = _random_poly(rng), _random_poly(rng)
        if not b:
            continue
        before = (a.terms(), b.terms())
        results = [a + b, a - b, -a, a * b, exact_div(a * b, b)]
        assert (a.terms(), b.terms()) == before
        assert results[-1] == a


def test_equal_polynomials_hash_alike():
    built = [
        (Q + Z) ** 2,
        Q**2 + 2 * Q * Z + Z**2,
        BivarPoly({(0, 2): 1, (1, 1): 2, (2, 0): 1}),
        exact_div((Q + Z) ** 3, Q + Z),
        (Q + Z) ** 2 + Q**3 - Q**3,
        Z**2 + (Q * Z + Q**2) + Q * Z,
    ]
    assert len(set(built)) == 1
    assert len({hash(p) for p in built}) == 1


def test_exact_division_rejects_inexact():
    with pytest.raises(ArithmeticError):
        exact_div(Q + ONE, Q * 2)


def _naive_det(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = ZERO
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = rows[0][j] * _naive_det(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


def _pack(p, width):
    """p as a polynomial in q whose coefficients are its z-polynomials at
    z = 2^(8 width)."""
    return {i: sum(c << (8 * width * j) for j, c in row.items()) for i, row in p._rows.items()}


def _unpack(p, width):
    return BivarPoly._of({i: _decode(x, width) for i, x in p.items()})


def test_decode_round_trip():
    width = 3
    top = 2 ** (8 * width - 1) - 1
    for coeffs in ({}, {0: 1}, {0: -1}, {0: top}, {0: -top},
                   {0: 1, 2: -1, 5: top, 9: -top}, {1: -top, 4: top, 7: -1},
                   {3: top, 4: -top, 6: 1}, {0: -1, 1: 1, 8: 0}):
        poly = {j: c for j, c in coeffs.items() if c}
        assert _decode(sum(c << (8 * width * j) for j, c in poly.items()), width) == poly


def test_bareiss_matches_cofactor_expansion():
    # I - qR with a free last row: every leading minor is 1 at q = 0, as in
    # the solver's bordered matrix, so no pivot is zero.  Entries have at
    # most 6 terms of size at most 5, so by Hadamard no minor's coefficient
    # reaches 2^24, well within 8-byte slots.
    rng = random.Random(11)
    cases = []
    for size in (2, 3, 4):
        for _ in range(15):
            rows = [
                [(ONE if i == j else ZERO) - Q * _random_poly(rng) for j in range(size)]
                for i in range(size - 1)
            ]
            rows.append([_random_poly(rng) for _ in range(size)])
            cases.append(rows)
    # pivots equal to the one before them over zero leads, as the short-word
    # rows of the solver have: the rows that are skipped
    cases.append([
        [ONE, -Q, ZERO, ONE],
        [ZERO, ONE, -Q * Z, ONE],
        [ZERO, ZERO, ONE - Q * Z**2, ONE],
        [-ONE, ZERO, ZERO, ZERO],
    ])
    for rows in cases:
        det, last_pivot = _bareiss([[_pack(p, 8) for p in row] for row in rows])
        assert _unpack(det, 8) == _naive_det(rows)
        assert _unpack(last_pivot, 8) == _naive_det([row[:-1] for row in rows[:-1]])


def test_bareiss_zero_column():
    # a zero pivot is an error, never a row swap
    with pytest.raises(ArithmeticError, match="zero pivot"):
        _bareiss([[{}, {0: 1}], [{}, {1: 1}]])
    with pytest.raises(ArithmeticError, match="zero pivot"):
        _bareiss([[{0: 1}, {0: 1}, {}], [{0: 1}, {0: 1}, {1: 1}], [{1: 1}, {}, {0: 1}]])


def test_expand_rational_fixtures():
    fib_even = expand_rational(checks.fib_even_gf(), 6)
    assert fib_even.z0_series() == [1, 3, 8, 21, 55, 144, 377]
    fib = expand_rational(fib_series_gf(), 5)
    assert fib.z0_series() == [1, 2, 3, 5, 8, 13]
    trivial = expand_rational(RationalGF(ONE, ONE), 4)
    assert trivial.z0_series() == [1, 0, 0, 0, 0]


def test_expand_requires_unit_constant():
    with pytest.raises(ValueError):
        RationalGF(ONE, 2 * ONE)
    gf = RationalGF(-ONE, -ONE + Q)
    assert gf.den.constant_term() == 1
    assert gf.num == ONE


def test_expansion_times_denominator_is_the_numerator():
    order = 12
    for name in checks.STAT_ALPHABETS:
        gf = checks._solver_gf(name)
        table = expand_rational(gf, order)
        series = [(n, j, c) for n in range(order + 1) for j, c in table.z_poly(n).items()]
        num = [(i, j, c) for i, j, c in gf.num.terms() if i <= order]
        assert _naive_product(series, gf.den.terms(), order) == num, name


def _reference_expand(gf, n_max):
    """The expansion over z-polynomial dicts that `expand_rational` ran before
    it carried z as an integer: the oracle for the packed one."""
    num_q, den_q = gf.num._rows, gf.den._rows
    rows = []
    for n in range(n_max + 1):
        acc = dict(num_q.get(n, {}))
        for k in range(1, n + 1):
            if k in den_q:
                _mul_acc(acc, den_q[k], rows[n - k], -1)
        rows.append(acc)
    return ZSeriesTable(rows)


def _checks_gfs():
    gfs = [checks.reference_gf(name) for name in ("a3", "a4", "b3", "b4", "e4")]
    gfs += [checks.d4_display_bivariate(), checks.d4_display_z0(), checks.fib_even_gf()]
    return gfs + [checks._solver_gf(name) for name in checks.STAT_ALPHABETS]


def test_expansion_matches_the_dict_reference():
    rng = random.Random(23)
    cases = [(gf, 20) for gf in _checks_gfs()]
    for _ in range(150):
        # negative coefficients and z-terms in every q >= 1 row of both parts
        num = _random_poly(rng)
        den = ONE + Q * _random_poly(rng) + Q**2 * _random_poly(rng) * rng.randint(-3, 3)
        cases.append((RationalGF(num, den), rng.randint(0, 16)))
    cases.append((RationalGF(ONE + Q * Z, ONE - Q * Z), 12))
    cases.append((RationalGF(ZERO, ONE - Q), 5))
    for gf, order in cases:
        assert expand_rational(gf, order) == _reference_expand(gf, order), gf


def test_expansion_rejects_z_in_the_constant_row():
    # 1/(1 - z) and 1/(1 - z - zq) are not series in q over Z[z]
    for den in (ONE - Z, ONE - Z - Z * Q, ONE + Z**2 - 3 * Q):
        gf = RationalGF(ONE, den)
        with pytest.raises(ValueError, match="q\\^0 row must be 1"):
            expand_rational(gf, 2)
        with pytest.raises(ValueError, match="q\\^0 row must be 1"):
            gf_equal_series(gf, gf, 2)
    for gf in _checks_gfs():
        assert gf.den._rows[0] == {0: 1}


def test_gf_equal_series():
    a = RationalGF(ONE, ONE - Q)
    b = RationalGF(ONE + Q, ONE - Q**2)
    assert gf_equal_series(a, b, 20)
    c = RationalGF(ONE, ONE - 2 * Q)
    assert not gf_equal_series(a, c, 20)
    assert gf_equal_series(a, a, 5)


def test_stat_pattern_validation():
    with pytest.raises(ValueError):
        StatPattern(parse_pattern("12|{1},{2},P|-|P,P", Mode.WORD))
    with pytest.raises(ValueError):
        StatPattern(parse_pattern("12|P,P,P|-|P,P", Mode.WORD))
    with pytest.raises(ValueError):
        StatPattern(parse_pattern("12|P,{2},P|(0,1,{2})|P,P", Mode.WORD))
    with pytest.raises(ValueError):
        StatPattern(parse_pattern("12|P,{2},P|(1,2,{2})|P,P", Mode.PERMUTATION))
    sp = StatPattern(parse_pattern("12|P,{1,2},P|(1,2,{2})|P,P", Mode.WORD))
    assert sp.window_width == 3


def test_boundary_sets_written_unusually_are_p():
    # gaps are >= 1, so P+E and O+P put no limit on the boundary gaps
    plain = StatPattern(parse_pattern("12|P,{1},P|(1,2,{2})|P,P", Mode.WORD))
    for text in ("12|P+E,{1},P|(1,2,{2})|P,P", "12|P,{1},O+P+{0}|(1,2,{2})|P,P"):
        sp = StatPattern(parse_pattern(text, Mode.WORD))
        assert dp_series(sp, 3, 10) == dp_series(plain, 3, 10)
        assert solve_transfer_system(sp, 3) == solve_transfer_system(plain, 3)
    with pytest.raises(ValueError, match="boundary"):
        StatPattern(parse_pattern("12|P+{0}+2P,{1},E|(1,2,{2})|P,P", Mode.WORD))


def test_dp_series_published_slices():
    assert checks._dp_table("a3", 4).coefficient(4, 0) == 64
    assert checks._dp_table("a4", 6).coefficient(6, 0) == 2304
    assert checks._dp_table("d3", 6).coefficient(6, 0) == 288
    assert checks._dp_table("e4", 5).coefficient(5, 0) == 688


def test_dp_matches_word_scan_bivariately():
    # word_distributions walks every word; word_distribution would read the dp
    sp = checks.stat_pattern("d4")
    dp = dp_series(sp, 4, 5)
    for n, brute in enumerate(word_distributions(sp.pattern, 4, 5)):
        assert dp.z_poly(n) == dict(brute.counts)


def test_dp_state_budget():
    sp = checks.stat_pattern("a4")
    with pytest.raises(ValueError, match=r"state count 65\^2 exceeds the budget 4096$"):
        dp_series(sp, 65, 5)


@pytest.mark.parametrize(
    "text, t, method, message",
    [
        # one state, so only the alphabet decides the work of a step
        ("1|P,P|-|{2}", 10**9, "dp", r"alphabet size 1000000000 exceeds the budget 4096$"),
        ("1|P,P|-|{2}", 4097, "solve", r"alphabet size 4097 exceeds the budget 4096$"),
        # 4000 states pass the state budget but not the solve budget
        ("12|P,{1},P|(1,2,{2})|P,P", 4000, "solve",
         r"solved state count 4000\^1 = 4000 exceeds the solve budget 64$"),
        ("12|P,{1},P|(1,2,{2})|P,P", 65, "solve",
         r"solved state count 65\^1 = 65 exceeds the solve budget 64$"),
        ("12|P,{1,2,3},P|(1,2,{2})|P,P", 5, "solve",
         r"solved state count 5\^3 = 125 exceeds the solve budget 64$"),
    ],
)
def test_gf_budgets_fail_before_the_work(text, t, method, message):
    sp = StatPattern(parse_pattern(text, Mode.WORD))
    start = time.perf_counter()
    with pytest.raises(ValueError, match=message):
        if method == "dp":
            dp_series(sp, t, 1)
        else:
            solve_transfer_system(sp, t)
    assert time.perf_counter() - start < 1


def test_alphabet_budget_admits_its_limit():
    single = StatPattern(parse_pattern("1|P,P|-|{2}", Mode.WORD))
    assert dp_series(single, DEFAULT_STATE_BUDGET, 1).totals() == [1, DEFAULT_STATE_BUDGET]


def test_dp_series_budget_fails_before_the_work():
    sp = checks.stat_pattern("b3")
    single = StatPattern(parse_pattern("1|P,P|-|{2}", Mode.WORD))
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"3\^1 states x 3 letters x 100000001 orders = "
                       r"900000009 edges exceeds the budget 100000$"):
        dp_series(sp, 3, 10**8)
    # one state, but every step walks its 4096 edges
    with pytest.raises(ValueError, match=r"4096\^0 states x 4096 letters x 100000 orders = "
                       r"409600000 edges exceeds the budget 100000$"):
        dp_series(single, 4096, 99999)
    # 12002 edges, but the rows would hold about 6000^3 bits
    with pytest.raises(ValueError, match=r"series memory \(1 states \+ 6001 orders\) x 6001 slots"
                       r" x 6008 bits = 216396156016 bits exceeds the budget 1073741824$"):
        dp_series(single, 2, 6000)
    assert time.perf_counter() - start < 1
    assert len(dp_series(sp, 3, 300).z0_series()) == 301


def test_dp_rejects_negative_order():
    sp = checks.stat_pattern("b3")
    with pytest.raises(ValueError, match="non-negative"):
        dp_series(sp, 3, -1)
    assert dp_series(sp, 3, 0).z0_series() == [1]


def test_totals_conserved():
    for name in ("a3", "b4", "d3", "e4"):
        _, t = checks.STAT_ALPHABETS[name]
        table = checks._dp_table(name, 9)
        assert table.totals() == [t**n for n in range(10)]


def test_solver_matches_reference_forms():
    for name in ("a3", "b3", "e4"):
        assert gf_equal_series(checks._solver_gf(name), checks.reference_gf(name), 34)


def test_solver_equals_reference_forms_exactly():
    # cross-multiplied in Z[q, z]: equal as rational functions, not only to an order
    for name in ("a3", "a4", "b3", "b4", "e4"):
        solved, ref = checks._solver_gf(name), checks.reference_gf(name)
        assert solved.num * ref.den == ref.num * solved.den


def _random_stat_pattern(rng):
    base = rng.choice(["12", "21", "11"])
    gaps = rng.choice(["{1}", "{2}", "{1,2}"])
    y = rng.choice(["-", f"(1,2,{{{rng.randint(0, 2)}}})"])
    z = ",".join(rng.choice(["P", "O", "{1,2}"]) for _ in range(2))
    return StatPattern(parse_pattern(f"{base}|P,{gaps},P|{y}|{z}", Mode.WORD))


def test_solver_matches_naive_recount(rng):
    # the solver reads the dp's window counts, so check it against an oracle
    # that shares nothing with either: per-word naive_occurrences histograms
    for _ in range(12):
        sp = _random_stat_pattern(rng)
        t = rng.randint(1, 3)
        expanded = expand_rational(solve_transfer_system(sp, t), 6)
        for n in range(7):
            hist = Counter(
                len(naive_occurrences(sp.pattern, WordSequence(w, t)))
                for w in product(range(1, t + 1), repeat=n)
            )
            assert expanded.z_poly(n) == dict(hist), (sp.pattern, t, n)


W4_PATTERN = "12|P,{1,2,3},P|(1,2,{2})|P,P"


def _oracle_cases():
    """The 7 fixtures, the W = 4 rise at t = 3 and 20 random StatPatterns."""
    rng = random.Random(5)
    cases = [(checks.stat_pattern(name), t) for name, (_, t) in checks.STAT_ALPHABETS.items()]
    cases.append((StatPattern(parse_pattern(W4_PATTERN, Mode.WORD)), 3))
    cases += [(_random_stat_pattern(rng), rng.randint(1, 3)) for _ in range(20)]
    return cases


def _naive_ending_at_last(sp, word, t):
    seq = WordSequence(word, t)
    return sum(1 for occ in naive_occurrences(sp.pattern, seq) if occ[-1] == len(word))


def test_automaton_edges_are_the_naive_window_counts():
    for sp, t in _oracle_cases():
        keep = sp.window_width - 1
        letters = range(1, t + 1)
        states = [u for k in range(keep + 1) for u in product(letters, repeat=k)]
        edges = _automaton((sp,), t, keep)
        assert len(edges) == sum(t**k for k in range(keep + 1))
        for u, out in zip(states, edges):
            assert len(out) == t
            for c, (target, e) in zip(letters, out):
                word = u + (c,)
                assert states[target] == word[max(len(word) - keep, 0):]
                assert e == _naive_ending_at_last(sp, word, t), (sp.pattern, t, word)


def _reference_solve(sp, t):
    """The bordered solve over the raw suffix states, with naive window counts.

    One unknown per (W-1)-letter word v, M = I - qT with T[u][tail(u)c]
    summing z^e, b_v = q^(W-1) z^occ(v), and shorts summing the words shorter
    than W - 1.  The series is shorts + b M^-1 1, which is
    det [[M, 1], [-b, shorts]] / det M.
    """
    keep = sp.window_width - 1
    letters = range(1, t + 1)

    def occ(word):
        return len(naive_occurrences(sp.pattern, WordSequence(word, t)))

    shorts = ZERO
    for length in range(keep):
        for word in product(letters, repeat=length):
            shorts = shorts + BivarPoly.mono(1, length, occ(word))
    states = list(product(letters, repeat=keep))
    index = {u: i for i, u in enumerate(states)}
    m = [[ZERO] * len(states) + [ONE] for _ in states]
    for i, u in enumerate(states):
        m[i][i] = ONE
        for c in letters:
            word = u + (c,)
            j = index[word[1:]]
            m[i][j] = m[i][j] - Q * Z ** _naive_ending_at_last(sp, word, t)
    m.append([-BivarPoly.mono(1, keep, occ(v)) for v in states] + [shorts])
    num, den = _bivar_bareiss(m)
    return RationalGF(num, den)


def test_solver_equals_the_suffix_state_reference():
    for sp, t in _oracle_cases():
        solved, ref = solve_transfer_system(sp, t), _reference_solve(sp, t)
        assert (solved.num, solved.den) == (ref.num, ref.den), (sp.pattern, t)


def test_solver_equals_the_bivariate_elimination():
    # the automaton's own bordered matrix [[I - qA, 1], [-alpha, 0]] over
    # BivarPoly, eliminated without packing; the W = 4 rise at t = 3 is
    # among the oracle cases
    for sp, t in _oracle_cases():
        edges = _automaton((sp,), t, sp.window_width - 1)
        size = len(edges)
        m = [[ZERO] * size + [ONE] for _ in range(size)]
        for i, out in enumerate(edges):
            m[i][i] = ONE
            for j, e in out:
                m[i][j] = m[i][j] - Q * Z**e
        m.append([-ONE] + [ZERO] * size)
        assert solve_transfer_system(sp, t) == RationalGF(*_bivar_bareiss(m)), (sp.pattern, t)


def _full_state_rows(sps, t, n_max):
    """Every row of the series of `sps` by a dp over the full states of
    `_automaton`, unlumped and unpacked: one z-polynomial per state."""
    edges = _automaton(tuple(sps), t, max(sp.window_width for sp in sps) - 1)
    weights = [Counter({0: 1})] + [Counter() for _ in edges[1:]]
    rows = []
    for n in range(n_max + 1):
        if n:
            nxt = [Counter() for _ in edges]
            for w, out in zip(weights, edges):
                for target, e in out:
                    for j, c in w.items():
                        nxt[target][j + e] += c
            weights = nxt
        total = Counter()
        for w in weights:
            total.update(w)
        rows.append({j: c for j, c in total.items() if c})
    return rows


def test_lumped_dp_equals_the_full_state_dp():
    rng = random.Random(29)
    for _ in range(30):
        sp = _random_stat_pattern(rng)
        t, order = rng.randint(1, 4), rng.randint(0, 12)
        assert dp_series(sp, t, order) == ZSeriesTable(_full_state_rows([sp], t, order)), (
            sp.pattern, t, order)
    w4 = StatPattern(parse_pattern(W4_PATTERN, Mode.WORD))
    for t in (2, 3, 4):
        assert dp_series(w4, t, 10) == ZSeriesTable(_full_state_rows([w4], t, 10))


def test_lumped_series_row_equals_the_full_state_dp():
    rng = random.Random(31)
    mixed = 0
    for _ in range(30):
        sps = [_random_stat_pattern(rng) for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.3:
            sps.append(StatPattern(parse_pattern(W4_PATTERN, Mode.WORD)))
        mixed += len({sp.window_width for sp in sps}) > 1
        t, n = rng.randint(1, 4), rng.randint(0, 12)
        assert series_row(sps, t, n) == _full_state_rows(sps, t, n)[n], (sps, t, n)
    assert mixed >= 10


def _lump_cases():
    cases = [((sp,), t) for sp, t in _oracle_cases()]
    w4 = StatPattern(parse_pattern(W4_PATTERN, Mode.WORD))
    cases += [((w4,), t) for t in (1, 2, 4, 6)]
    cases.append(((checks.stat_pattern("b3"), w4), 3))
    return cases


def test_lumped_partition_is_stable():
    for sps, t in _lump_cases():
        edges = _automaton(sps, t, max(sp.window_width for sp in sps) - 1)
        classes = _lump(edges)
        assert classes[0] == 0
        # numbered by first appearance in state order
        seen = []
        for c in classes:
            if c not in seen:
                seen.append(c)
        assert seen == list(range(len(seen)))
        # states of one class have equal multisets of (e, class of target)
        futures = {}
        for c, out in zip(classes, edges):
            future = Counter((e, classes[v]) for v, e in out)
            assert futures.setdefault(c, future) == future, (sps, t)


@pytest.mark.parametrize(
    "text, t, states, count",
    [
        (W4_PATTERN, 3, 40, 8),
        (W4_PATTERN, 4, 85, 13),
        (W4_PATTERN, 6, 259, 58),
        ("12|P,{1,2},P|(1,2,{2})|P,P", 5, 31, 11),
    ],
)
def test_lumped_class_counts(text, t, states, count):
    sp = StatPattern(parse_pattern(text, Mode.WORD))
    edges = _automaton((sp,), t, sp.window_width - 1)
    assert (len(edges), max(_lump(edges)) + 1) == (states, count)


def test_series_row_budget_charges_one_row():
    # dp_series keeps every row, series_row only the weights and the last row
    single = StatPattern(parse_pattern("1|P,P|-|{2}", Mode.WORD))
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"series memory \(1 states \+ 50000 orders\) x 50000 slots"
                       r" x 50008 bits = 125022500400000 bits exceeds the budget 1073741824$"):
        dp_series(single, 2, 49999)
    with pytest.raises(ValueError, match=r"series memory \(1 states \+ 1 orders\) x 50000 slots"
                       r" x 50008 bits = 5000800000 bits exceeds the budget 1073741824$"):
        series_row([single], 2, 49999)
    assert time.perf_counter() - start < 1


def test_solver_matches_dp_for_all_fixtures():
    for name in checks.STAT_ALPHABETS:
        assert expand_rational(checks._solver_gf(name), 14) == checks._dp_table(name, 14)


def test_single_letter_statistic_window():
    # degenerate window: statistic counts letters equal to 2
    sp = StatPattern(parse_pattern("1|P,P|-|{2}", Mode.WORD))
    assert sp.window_width == 1
    table = dp_series(sp, 2, 6)
    assert table.coefficient(6, 2) == 15  # C(6,2) words with exactly two 2s
    gf = solve_transfer_system(sp, 2)
    assert expand_rational(gf, 8) == dp_series(sp, 2, 8)


def test_rational_gf_json_terms():
    gf = checks.fib_even_gf()
    obj = gf.to_json_obj()
    assert obj["numerator"] == [["1", 0, 0]]
    assert ["-3", 1, 0] in obj["denominator"]
