import random
import time
from collections import Counter
from fractions import Fraction
from itertools import islice, product
from math import gcd

import pytest

from conftest import fib_series_gf, naive_occurrences

from pdvp import checks, transfer
from pdvp.budget import EnumerationLimitError
from pdvp.dsl import parse_pattern
from pdvp.exhaustive import word_distributions
from pdvp.matcher import WordSequence
from pdvp.pattern import Mode
from pdvp.transfer import (
    ONE,
    Q,
    RationalGF,
    StatPattern,
    Z,
    ZERO,
    ZSeriesTable,
    BivarPoly,
    _automaton,
    _certify,
    _decode,
    _lump,
    _mul_acc,
    _quotient,
    _shape,
    _slot_bytes,
    dp_series,
    expand_rational,
    gf_equal_series,
    series_row,
    series_work,
    solve_transfer_system,
)


# The eliminations the solver ran before it read the lumped series: the
# bordered matrix [[I - qA, 1], [-alpha, 0]] solved by one fraction-free
# elimination, first over BivarPoly and then with z carried as an integer.
# They share no code with the solver, so they are its oracles.


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


def _bareiss(m):
    """Fraction-free elimination of the square matrix m, in place; its
    entries are integer polynomials {degree: coefficient}, in q over z
    carried as an integer.

    Returns det(m) and the last pivot before it, the leading principal minor
    of order n - 1.  Every interior division is exact.  Rows are never
    swapped: a zero pivot raises ArithmeticError.  A row whose entry under
    the pivot is 0 is left as it is when the pivot equals the one before,
    and an entry that would stay 0 is not recomputed.
    """
    n = len(m)
    prev = {0: 1}
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
                    acc = {}
                    _mul_acc(acc, pivot, row_i[j])
                    _mul_acc(acc, lead, pivot_row[j], -1)
                    row_i[j] = _zpoly_exact_div(acc, prev)
            row_i[k] = {}
        prev = pivot
    return m[n - 1][n - 1], prev


def _bordered_solve(sp, t):
    """The automaton's bordered matrix, eliminated by the packed `_bareiss`:
    det [[I - qA, 1], [-alpha, 0]] / det(I - qA), a pair that need not be
    in lowest terms.

    Every entry the elimination keeps is a minor of the bordered matrix.
    On |q| = |z| = 1, Hadamard's inequality bounds a minor, and so each of
    its coefficients, by the product over the rows of sqrt(sum_j
    |m_ij|_1^2), where |m_ij|_1 is [i = j] plus the edges i -> j, and the
    border adds 1 to the sum.  2^(B-1) exceeds that bound, so a minor
    decodes exactly.
    """
    edges = _automaton((sp,), t, sp.window_width - 1)
    size = len(edges)
    square = 1  # the square of the Hadamard bound; the last row adds a factor 1
    for i, out in enumerate(edges):
        norms = Counter(j for j, _ in out)
        norms[i] += 1
        square *= 1 + sum(c * c for c in norms.values())
    width = _slot_bytes((square.bit_length() + 1) // 2)
    bits = 8 * width
    m = [[{} for _ in range(size)] + [{0: 1}] for _ in range(size)]
    for i, out in enumerate(edges):
        m[i][i] = {0: 1}
        for j, e in out:
            m[i][j][1] = m[i][j].get(1, 0) - (1 << (bits * e))
    m.append([{0: -1}] + [{} for _ in range(size)])
    num, den = (BivarPoly._of({i: _decode(x, width) for i, x in p.items()}) for p in _bareiss(m))
    return RationalGF(num, den)


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
    assert checks._dp_table("a3").coefficient(4, 0) == 64
    assert checks._dp_table("a4").coefficient(6, 0) == 2304
    assert checks._dp_table("d3").coefficient(6, 0) == 288
    assert checks._dp_table("e4").coefficient(5, 0) == 688


def test_dp_matches_word_scan_bivariately():
    # word_distributions walks every word; word_distribution would read the dp
    sp = checks.stat_pattern("d4")
    dp = dp_series(sp, 4, 5)
    for n, brute in enumerate(word_distributions(sp.pattern, 4, 5)):
        assert dp.z_poly(n) == dict(brute.counts)


def test_dp_state_budget():
    # the full states set the predicted work: 90301 states at t = 300, each
    # with 300 edges and up to 602 lumping rounds
    sp = checks.stat_pattern("a4")
    start = time.perf_counter()
    with pytest.raises(EnumerationLimitError, match=r"^series of \d+ steps exceeds the budget 100000000$"):
        dp_series(sp, 300, 5)
    assert time.perf_counter() - start < 1


_HUGE_GAP = "12|P,{1000000000000},P|-|P,P"
W4_PATTERN = "12|P,{1,2,3},P|(1,2,{2})|P,P"


@pytest.mark.parametrize(
    "text, t, method, budget, message",
    [
        # one state, but 10^9 windows
        ("1|P,P|-|{2}", 10**9, "dp", None,
         r"^series of \d+ steps exceeds the budget 100000000$"),
        # 4098 states of 4097 edges, each lumped in up to 4098 rounds
        ("12|P,{1},P|(1,2,{2})|P,P", 4097, "dp", None,
         r"^series of \d+ steps exceeds the budget 100000000$"),
        # the automaton: 4001 states of 4000 edges, each lumped in up to 4001 rounds
        ("12|P,{1},P|(1,2,{2})|P,P", 4000, "solve", None,
         r"^solve of 64048008000 steps exceeds the budget 100000000$"),
        # the dp to order 2c: 1111 states lump into c = 338 classes
        (W4_PATTERN, 10, "solve", None,
         r"^solve of 1273909495 steps exceeds the budget 100000000$"),
        (W4_PATTERN, 10, "solve", "10000000000",
         r"^solve of 3821105876 bits exceeds the bound 1073741824$"),
        # the recurrences of the first prime, once the dp to order 116 ran
        (W4_PATTERN, 6, "solve", "1000000",
         r"^solve of 1851820 steps exceeds the budget 1000000$"),
        # 2^(10^12) states: counted only up to the ceiling, never computed
        (_HUGE_GAP, 2, "dp", None,
         r"^series of at least 2\^\d+ steps exceeds the budget 100000000$"),
        (_HUGE_GAP, 2, "solve", None,
         r"^solve of at least 2\^\d+ steps exceeds the budget 100000000$"),
    ],
    ids=["dp-one-state-t1e9", "dp-t4097", "solve-4000", "solve-dp-t10", "solve-dp-bits-t10",
         "solve-recurrences-t6", "dp-huge-gap", "solve-huge-gap"],
)
def test_gf_budgets_fail_before_the_work(monkeypatch, text, t, method, budget, message):
    if budget is not None:
        monkeypatch.setenv("PDVP_BUDGET", budget)
    sp = StatPattern(parse_pattern(text, Mode.WORD))
    start = time.perf_counter()
    with pytest.raises(EnumerationLimitError, match=message):
        if method == "dp":
            dp_series(sp, t, 1)
        else:
            solve_transfer_system(sp, t)
    assert time.perf_counter() - start < 1


def test_alphabet_budget_admits_its_limit():
    # no limit on the alphabet itself: a one-state automaton at 4097 letters
    # (refused by an alphabet limit of 4096 before the one work budget) has
    # 4097 windows
    single = StatPattern(parse_pattern("1|P,P|-|{2}", Mode.WORD))
    assert dp_series(single, 4097, 1).totals() == [1, 4097]
    gf = solve_transfer_system(single, 4097)
    assert expand_rational(gf, 3) == dp_series(single, 4097, 3)


def test_dp_series_budget_fails_before_the_work():
    sp = checks.stat_pattern("b3")
    single = StatPattern(parse_pattern("1|P,P|-|{2}", Mode.WORD))
    start = time.perf_counter()
    with pytest.raises(EnumerationLimitError, match=r"^series of \d+ steps exceeds the budget 100000000$"):
        dp_series(sp, 3, 10**8)
    # one state, but every step walks its 4096 edges
    with pytest.raises(EnumerationLimitError, match=r"^series of \d+ steps exceeds the budget 100000000$"):
        dp_series(single, 4096, 99999)
    # 12002 edges, but the rows would hold about 6000^3 bits
    with pytest.raises(EnumerationLimitError,
                       match=r"^series of \d+ bits exceeds the bound 1073741824$"):
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
        table = checks._dp_table(name)
        assert table.totals() == [t**n for n in range(15)]


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


def _at(p, z):
    """p(q, z) at an integer z, as Fraction coefficients in q, lowest first,
    without trailing zeros."""
    out = [Fraction(0)] * (max(p._rows, default=-1) + 1)
    for i, j, c in p.terms():
        out[i] += c * z**j
    while out and not out[-1]:
        out.pop()
    return out


def _gcd_degree(a, b):
    """The degree of gcd(a, b) in Q[q], by Euclid's algorithm."""
    while b:
        a = list(a)
        while len(a) >= len(b):
            f, shift = a[-1] / b[-1], len(a) - len(b)
            for k, x in enumerate(b):
                a[shift + k] -= f * x
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    return len(a) - 1


def _assert_lowest_terms(sp, t, solved, ref):
    """solved is the pair ref in lowest terms, with its denominator's
    constant term 1: equal to it by cross-multiplication, with a denominator
    that divides ref's; coprime in Q(z)[q], seen at an integer z that keeps
    the denominator's q-degree, where Euclid over Fraction finds a constant
    gcd; content 1, the denominator's q^0 row being 1; and expanding to the
    dp's rows well past the 2c + 1 the solver reads."""
    why = (sp.pattern, t)
    assert solved.num * ref.den == ref.num * solved.den, why
    exact_div(ref.den, solved.den)  # raises if it does not divide
    top = max(solved.den._rows)
    assert any(len(_at(solved.den, z)) == top + 1
               and _gcd_degree(_at(solved.num, z), _at(solved.den, z)) == 0
               for z in (2, 3, 5, 7, 11)), why
    assert solved.den._rows[0] == {0: 1}
    assert gcd(*(c for *_, c in solved.num.terms() + solved.den.terms())) == 1
    order = 2 * len(_automaton((sp,), t, sp.window_width - 1)) + 12  # classes <= states
    assert expand_rational(solved, order) == dp_series(sp, t, order), why


def _lowest_terms_cases():
    """The oracle cases, 10 random StatPatterns of three adjacent letters
    (W = 3), and two whose eliminations are not in lowest terms."""
    rng = random.Random(41)
    cases = _oracle_cases()
    for _ in range(10):
        base = rng.choice(["123", "121", "112", "111", "132", "212"])
        y = rng.choice(["-", f"(1,3,{{{rng.randint(0, 2)}}})"])
        z = ",".join(rng.choice(["P", "O", "{1,2}", "{2}"]) for _ in range(3))
        cases.append((StatPattern(parse_pattern(f"{base}|P,{{1}},{{1}},P|{y}|{z}", Mode.WORD)),
                      rng.randint(1, 3)))
    for text, t in (("11|P,{1,2},P|-|P,O", 3), ("11|P,{1},P|-|{1,2},{1,2}", 2)):
        cases.append((StatPattern(parse_pattern(text, Mode.WORD)), t))
    return cases


def test_solver_equals_the_suffix_state_reference():
    reduced = 0
    for sp, t in _lowest_terms_cases():
        solved, ref = solve_transfer_system(sp, t), _reference_solve(sp, t)
        _assert_lowest_terms(sp, t, solved, ref)
        reduced += solved.den != ref.den
    assert reduced >= 2  # some references are not in lowest terms


def test_solver_equals_the_bivariate_elimination():
    # the automaton's own bordered matrix [[I - qA, 1], [-alpha, 0]] over
    # BivarPoly, eliminated without packing, equals the packed elimination
    # pair for pair; the solver prints it in lowest terms.  The W = 4 rise
    # at t = 3 is among the oracle cases
    reduced = 0
    for sp, t in _lowest_terms_cases():
        edges = _automaton((sp,), t, sp.window_width - 1)
        size = len(edges)
        m = [[ZERO] * size + [ONE] for _ in range(size)]
        for i, out in enumerate(edges):
            m[i][i] = ONE
            for j, e in out:
                m[i][j] = m[i][j] - Q * Z**e
        m.append([-ONE] + [ZERO] * size)
        ref = RationalGF(*_bivar_bareiss(m))
        assert _bordered_solve(sp, t) == ref, (sp.pattern, t)
        solved = solve_transfer_system(sp, t)
        _assert_lowest_terms(sp, t, solved, ref)
        reduced += solved.den != ref.den
    assert reduced >= 2


def test_w4_at_t4_prints_in_lowest_terms():
    # the elimination printed a denominator of q-degree 10 here
    sp = StatPattern(parse_pattern(W4_PATTERN, Mode.WORD))
    gf = solve_transfer_system(sp, 4)
    assert max(gf.den._rows) == 8
    assert expand_rational(gf, 60) == dp_series(sp, 4, 60)


def test_repeat_within_distance_three_prints_in_lowest_terms():
    # the elimination printed a denominator of q-degree 27 here
    sp = StatPattern(parse_pattern("11|P,{1,3},P|-|{1,2},P", Mode.WORD))
    gf = solve_transfer_system(sp, 3)
    assert max(gf.den._rows) == 14
    ref = _bordered_solve(sp, 3)
    assert max(ref.den._rows) == 27
    _assert_lowest_terms(sp, 3, gf, ref)


def _dense_rows(sp, t, order):
    table = dp_series(sp, t, order)
    return [[table.coefficient(n, j) for j in range(max(table.z_poly(n)) + 1)]
            for n in range(order + 1)]


def test_the_certificate_rejects_a_perturbed_denominator():
    sp = StatPattern(parse_pattern("12|P,{1,2},P|(1,2,{2})|P,P", Mode.WORD))
    gf = solve_transfer_system(sp, 4)
    order = 2 * len(_quotient((sp,), 4))
    rows = _dense_rows(sp, 4, order)
    length = max(max(gf.den._rows), max(gf.num._rows) + 1)
    den = [dict(gf.den._rows.get(i, {})) for i in range(length + 1)]
    assert _certify(rows, den, length, 4, 0) == gf
    perturbed = 0
    for i in range(1, length + 1):
        for j in range(3):
            for delta in (1, -1):
                bad = [dict(row) for row in den]
                bad[i][j] = bad[i].get(j, 0) + delta
                if not bad[i][j]:
                    del bad[i][j]
                assert _certify(rows, bad, length, 4, 0) is None, (i, j, delta)
                perturbed += 1
    assert perturbed == 6 * length
    # a recurrence one shorter than the series' is refused as well
    assert _certify(rows, den[:-1], length - 1, 4, 0) is None


def test_berlekamp_massey_finds_the_shortest_recurrence():
    rng = random.Random(43)
    p = 1000003
    assert transfer._berlekamp_massey([1, 1, 2, 3, 5, 8], p) == (2, [1, p - 1, p - 1])
    for _ in range(100):
        length = rng.randint(1, 6)
        rec = [rng.randrange(p) for _ in range(length)]
        seq = [rng.randrange(p) for _ in range(length)]
        while len(seq) < 2 * length + rng.randint(0, 3):
            seq.append(sum(r * x for r, x in zip(rec, reversed(seq))) % p)
        found, c = transfer._berlekamp_massey(seq, p)
        assert found <= length and c[0] == 1 and len(c) <= found + 1
        for n in range(found, len(seq)):
            assert sum(ci * seq[n - i] for i, ci in enumerate(c)) % p == 0
        assert found == 0 or not _has_recurrence(seq, found - 1, p)


def _has_recurrence(seq, length, p):
    """Is there c_1..c_length with seq[n] + sum_i c_i seq[n - i] = 0 mod p
    for length <= n < len(seq)?  Gaussian elimination on the augmented
    system: it is solvable unless a row reduces to 0 = nonzero."""
    rows = [[seq[n - i] for i in range(1, length + 1)] + [-seq[n] % p]
            for n in range(length, len(seq))]
    rank = 0
    for col in range(length):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] % p), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] % p:
                f = rows[r][col]
                rows[r] = [(x - f * y) % p for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return all(row[-1] % p == 0 for row in rows[rank:])


def test_the_primes_come_largest_first():
    # 2^61 - 1 is prime; the odd numbers between the primes below it are
    # composites the Miller-Rabin bases rule out
    first = list(islice(transfer._primes(), 6))
    assert [(1 << 61) - p for p in first] == [1, 31, 45, 229, 259, 283]


def test_primes_too_small_for_the_coefficients_are_combined(monkeypatch):
    # below 2^7 one prime cannot tell the coefficient -126 of this
    # denominator from 1: the certificate rejects the first candidate, and
    # the CRT of two primes is proved
    sp = StatPattern(parse_pattern("11|P,{1,3},P|-|{1,2},P", Mode.WORD))
    want = solve_transfer_system(sp, 3)
    assert -126 in [c for *_, c in want.den.terms()]
    verdicts = []
    certify = transfer._certify

    def small_primes():
        yield from (n for n in range(127, 12, -1) if all(n % d for d in range(2, 12)))

    def spy(*args):
        out = certify(*args)
        verdicts.append(out is not None)
        return out

    monkeypatch.setattr(transfer, "_primes", small_primes)
    monkeypatch.setattr(transfer, "_certify", spy)
    assert solve_transfer_system(sp, 3) == want
    assert verdicts == [False, True]


def test_a_point_with_a_shorter_recurrence_is_dropped(monkeypatch):
    # at z = 1 the series is 1/(1 - 3q), a recurrence of length 1, and at
    # z = 0 the avoiders' series; neither may feed the interpolation
    sp = StatPattern(parse_pattern(W4_PATTERN, Mode.WORD))
    lengths, used = [], []
    bm, interpolate = transfer._berlekamp_massey, transfer._interpolate

    def spy_bm(seq, p):
        found = bm(seq, p)
        lengths.append(found[0])
        return found

    def spy_interpolate(xs, ys, p):
        used.append(xs)
        return interpolate(xs, ys, p)

    monkeypatch.setattr(transfer, "_berlekamp_massey", spy_bm)
    monkeypatch.setattr(transfer, "_interpolate", spy_interpolate)
    gf = solve_transfer_system(sp, 3)
    top = max(lengths)
    assert lengths[1] == 1 < top
    (xs,) = used  # one prime was enough
    need = sum(max(e for _, e in out) for out in _quotient((sp,), 3)) + 1
    assert len(xs) == need and 1 not in xs
    assert [lengths[z] for z in xs] == [top] * need
    assert xs == [z for z, length in enumerate(lengths) if length == top]
    assert expand_rational(gf, 40) == dp_series(sp, 3, 40)


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
    # at t = 5 and 6 a class of W4 shifts one weight into several targets
    # for one e, and e reaches 3
    for t in (5, 6):
        lumped = _quotient((w4,), t)
        assert max(e for out in lumped for _, e in out) == 3
        assert any(Counter(e for _, e in out)[k] > 1 for out in lumped for k in (1, 2))
    for t, order in ((1, 10), (2, 10), (3, 10), (4, 10), (5, 16), (6, 16)):
        assert dp_series(w4, t, order) == ZSeriesTable(_full_state_rows([w4], t, order)), t
    one = StatPattern(parse_pattern("1|P,P|-|{2}", Mode.WORD))  # W = 1: keep = 0, one state
    for t in (1, 3):
        assert dp_series(one, t, 12) == ZSeriesTable(_full_state_rows([one], t, 12)), t


def test_lumped_series_row_equals_the_full_state_dp():
    rng = random.Random(31)
    mixed = 0
    for _ in range(30):
        sps = [_random_stat_pattern(rng) for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.3:
            sps.append(StatPattern(parse_pattern(W4_PATTERN, Mode.WORD)))
        mixed += len({sp.window_width for sp in sps}) > 1
        t, n = rng.randint(1, 6), rng.randint(0, 12)
        assert series_row(sps, t, n) == _full_state_rows(sps, t, n)[n], (sps, t, n)
    assert mixed >= 10
    w4 = StatPattern(parse_pattern(W4_PATTERN, Mode.WORD))
    one = StatPattern(parse_pattern("1|P,P|-|{2}", Mode.WORD))
    for sps, t, n in (([w4], 6, 12), ([w4], 1, 9), ([one], 1, 9), ([one], 4, 9)):
        assert series_row(sps, t, n) == _full_state_rows(sps, t, n)[n], (sps, t, n)


def _lump_cases():
    cases = [((sp,), t) for sp, t in _oracle_cases()]
    w4 = StatPattern(parse_pattern(W4_PATTERN, Mode.WORD))
    cases += [((w4,), t) for t in (1, 2, 4, 6)]
    cases.append(((checks.stat_pattern("b3"), w4), 3))
    return cases


def test_lumped_partition_is_stable():
    for sps, t in _lump_cases():
        keep = max(sp.window_width for sp in sps) - 1
        edges = _automaton(sps, t, keep)
        classes = _lump(edges, _shape(sps, t)[2])
        assert classes == _lump(edges, len(edges))  # stable within the rounds allowed
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
    assert (len(edges), max(_lump(edges, _shape((sp,), t)[2])) + 1) == (states, count)


def test_lumping_past_its_rounds_keeps_every_state():
    # W4 at t = 4 needs more than one round; cut short, the trivial
    # partition is as exact, and the dp still sums the same series
    sp = StatPattern(parse_pattern(W4_PATTERN, Mode.WORD))
    edges = _automaton((sp,), 4, 3)
    assert _lump(edges, 1) == list(range(85))


def test_series_row_budget_charges_one_row():
    # dp_series keeps every row, series_row only the weights and the last row
    single = StatPattern(parse_pattern("1|P,P|-|{2}", Mode.WORD))
    start = time.perf_counter()
    rows = series_work((single,), 2, 49999, 50000)[1]
    one_row = series_work((single,), 2, 49999, 1)[1]
    assert rows > 1000 * one_row
    with pytest.raises(EnumerationLimitError, match=r"^series of \d+ steps exceeds the budget 100000000$"):
        dp_series(single, 2, 49999)
    with pytest.raises(EnumerationLimitError, match=r"^series of \d+ steps exceeds the budget 100000000$"):
        series_row([single], 2, 49999)
    assert time.perf_counter() - start < 1


def test_solver_matches_dp_for_all_fixtures():
    for name in checks.STAT_ALPHABETS:
        assert expand_rational(checks._solver_gf(name), 14) == checks._dp_table(name)


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
