from math import comb, factorial

import pytest

from conftest import fib_series_gf

from pdvp import checks, formulas
from pdvp.dsl import parse_pattern
from pdvp.exhaustive import perm_distribution, word_multi_avoiders
from pdvp.pattern import Mode, Pdvp, make_classical
from pdvp.transfer import expand_rational


def test_standard_sequences():
    assert [formulas.fib(n) for n in range(9)] == [0, 1, 1, 2, 3, 5, 8, 13, 21]
    assert [formulas.catalan(n) for n in range(6)] == [1, 1, 2, 5, 14, 42]
    assert formulas.catalan(4) == 14
    assert formulas.fib(6) == 8


def test_fib_conventions():
    shifted = formulas.FibConvention.SERIES_SHIFTED
    series = expand_rational(fib_series_gf(), 10).z0_series()
    assert [shifted.value_at(n) for n in range(11)] == series
    assert shifted.value_at(4) == formulas.fib(6) == 8
    assert formulas.FibConvention.STANDARD.value_at(5) == 5


@pytest.fixture(scope="module")
def classical_rows():
    bases = {(1, 2): 4, (2, 1): 4, (1, 2, 3): 4}
    return {
        base: {
            k: dict(perm_distribution(make_classical(base), k).counts)
            for k in range(kmax)
        }
        for base, kmax in bases.items()
    }


def test_b_even_spot_values(classical_rows):
    row12 = classical_rows[(1, 2)]
    assert formulas.b_even(row12, 1, 0) == 2
    # impossible occurrence counts transfer to zero
    assert formulas.b_even(row12, 2, 9) == 0
    row123 = classical_rows[(1, 2, 3)]
    # Catalan specialisation: classical avoidance rows coincide with catalan(k)
    assert all(row123[k].get(0, 0) == formulas.catalan(k) for k in range(4))


def test_b_even_missing_row_errors():
    with pytest.raises(KeyError):
        formulas.b_even({0: {0: 1}}, 2, 0)


def _odd_parity_pattern(base) -> Pdvp:
    # odd positions, even values; the final boundary gap left unconstrained
    from pdvp.intset import EVENS, ODDS, POSITIVES

    b = make_classical(base).base
    m = len(b)
    return Pdvp(
        Mode.PERMUTATION, b, (ODDS,) + (EVENS,) * (m - 1) + (POSITIVES,), (), (EVENS,) * m
    )


def b_odd(a_row, n: int, m: int) -> int:
    """The S_{2n+1} analog of formulas.b_even: n+1 odd positions but only n
    even values, giving sum_k n! (n+1-k)! C(n,k) C(n+1,k)^2 A_{k,m}."""
    total = 0
    for k in range(n + 1):
        if k not in a_row:
            raise KeyError(f"missing distribution for k = {k}")
        akm = a_row[k].get(m, 0)
        total += (
            factorial(n)
            * factorial(n + 1 - k)
            * comb(n, k)
            * comb(n + 1, k) ** 2
            * akm
        )
    return total


@pytest.mark.parametrize("base", [(1, 2), (2, 1)])
def test_b_odd_validated_against_scans(classical_rows, base):
    a_row = classical_rows[base]
    pat = _odd_parity_pattern(base)
    for length in (1, 3, 5, 7):
        n = (length - 1) // 2
        table = perm_distribution(pat, length)
        for m in range(4):
            assert b_odd(a_row, n, m) == table[m], (base, length, m)


def test_b_odd_trivial_case(classical_rows):
    assert b_odd(classical_rows[(1, 2)], 0, 0) == 1


def test_k4n_base_case_and_exact_form():
    assert formulas.k4n(0) == 1
    assert formulas.k4n_exact(0) == 1
    # the two forms disagree from n = 1 on; enumeration sides with k4n_exact
    assert formulas.k4n(1) == 18
    assert formulas.k4n_exact(1) == 24
    assert checks._k4n_brute(1) == formulas.k4n_exact(1)


def test_a_nk_values():
    assert formulas.a_nk(5, 2) == 12
    assert formulas.a_nk(3, 1) == 2
    assert formulas.a_nk(4, 4) == 8
    assert [formulas.a_nk(n, 2) for n in range(3, 10)] == checks.ANK_K2_REFERENCE
    with pytest.raises(ValueError):
        formulas.a_nk(0, 1)


def test_a3_coefficients():
    assert formulas.a3_coefficient_even(1, 0) == 9
    for n in range(5):
        assert sum(formulas.a3_coefficient_even(n, s) for s in range(n + 1)) == 3 ** (
            2 * n
        )
        shifted = formulas.FibConvention.SERIES_SHIFTED
        assert formulas.a3_coefficient_odd(n, 0) == shifted.value_at(
            2 * n
        ) * shifted.value_at(2 * n + 2)


def test_words123_closed_form_and_recurrence():
    assert formulas.words123_avoiders(1) == 3
    assert formulas.words123_avoiders(2) == 7
    assert formulas.words123_avoiders(7) == 133
    for n in range(1, 41):
        assert formulas.words123_avoiders(n) == formulas.words123_recurrence(n)
    pats = [parse_pattern(p, Mode.WORD) for p in checks.PAIR_PATTERNS]
    assert formulas.words123_avoiders(5) == word_multi_avoiders(pats, 3, 5) == 46


def test_words123_recurrence_runs_far_past_the_recursion_limit():
    assert formulas.words123_recurrence(2000) == formulas.words123_avoiders(2000)


def test_bijection_count_helpers():
    for n in range(13):
        lhs = formulas.words3_avoiding_13_count(n)
        assert lhs == formulas.binary_avoiding_11_count(2 * n)
        assert lhs == formulas.fib(2 * n + 2)
