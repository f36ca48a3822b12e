"""Closed-form counting formulas, each validated elsewhere against brute force.

Two Fibonacci index conventions coexist in this domain: the standard one
(fib(1) = fib(2) = 1) and the shifted one read off the series of
(1+q)/(1-q-q^2), whose n-th coefficient is fib(n+2).  Callers pick a
convention explicitly; nothing here guesses.
"""

from __future__ import annotations

from enum import Enum
from math import comb, factorial
from typing import Mapping


def fib(n: int) -> int:
    """Standard Fibonacci: fib(0) = 0, fib(1) = fib(2) = 1."""
    if n < 0:
        raise ValueError("fib needs n >= 0")
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def catalan(n: int) -> int:
    if n < 0:
        raise ValueError("catalan needs n >= 0")
    return comb(2 * n, n) // (n + 1)


class FibConvention(Enum):
    """Offset against the standard indexing."""

    STANDARD = 0
    # Indexing of the series (1+q)/(1-q-q^2) = 1 + 2q + 3q^2 + 5q^3 + ...
    SERIES_SHIFTED = 2

    def value_at(self, n: int) -> int:
        return fib(n + self.value)


ARow = Mapping[int, Mapping[int, int]]


def b_even(a_row: ARow, n: int, m: int) -> int:
    """Occurrence count transfer to S_2n for patterns pinned to odd positions
    and even values: sum_k n! (n-k)! C(n,k)^3 A_{k,m}.

    `a_row` maps k to the occurrence distribution of the classical base
    pattern over S_k (k -> {m: count}).
    """
    total = 0
    for k in range(n + 1):
        if k not in a_row:
            raise KeyError(f"missing distribution for k = {k}")
        akm = a_row[k].get(m, 0)
        total += factorial(n) * factorial(n - k) * comb(n, k) ** 3 * akm
    return total


def k4n(n: int) -> int:
    """Candidate closed form for avoiders in S_4n of the rise pattern pinned to
    positions and values congruent mod 4:

        (2n)! * sum (n!)^4 / ((k1!)^2 (k2!)^2 (l1!)^2 (l2!)^2
                              (n-k1-k2)! (n-l1-l2)!)

    over k1+k2 <= n, l1+l2 <= n.  Exhaustive enumeration disagrees with this
    expression from n = 1 on (see k4n_exact and the `k4n` verify check).
    """
    total = 0
    for k1 in range(n + 1):
        for k2 in range(n + 1 - k1):
            for l1 in range(n + 1):
                for l2 in range(n + 1 - l1):
                    total += factorial(n) ** 4 // (
                        factorial(k1) ** 2
                        * factorial(k2) ** 2
                        * factorial(l1) ** 2
                        * factorial(l2) ** 2
                        * factorial(n - k1 - k2)
                        * factorial(n - l1 - l2)
                    )
    return factorial(2 * n) * total


def _trinomial(n: int, a: int, b: int) -> int:
    if a + b > n:
        return 0
    return factorial(n) // (factorial(a) * factorial(b) * factorial(n - a - b))


def k4n_exact(n: int) -> int:
    """Corrected closed form for the same count, from the four-group structure:
    choose which class-A/class-B values land on class-A/class-B positions
    (each group forced decreasing), drop the leftover class values into the
    2n free positions, then arrange the unconstrained values.

    Matches exhaustive enumeration over S_4 and S_8.
    """
    total = 0
    for k1 in range(n + 1):
        for k2 in range(n + 1 - k1):
            for l1 in range(n + 1):
                for l2 in range(n + 1 - l1):
                    ways = (
                        _trinomial(n, k1, k2)
                        * _trinomial(n, l1, l2)
                        * _trinomial(n, k1, l1)
                        * _trinomial(n, k2, l2)
                    )
                    if not ways:
                        continue
                    sigma = k1 + k2 + l1 + l2
                    total += ways * (factorial(2 * n) // factorial(sigma)) * factorial(2 * n)
    return total


def a_nk(n: int, k: int) -> int:
    """V-shaped permutations of length n (avoiding consecutive 231 and 132)
    that also avoid a rise by exactly 1 between positions exactly k apart.
    """
    if n < 1 or k < 1:
        raise ValueError("a_nk needs n >= 1 and k >= 1")
    if k == 1:
        return fib(n)
    if n <= k:
        return 2 ** (n - 1)
    return 3 * 2 ** (n - 3)


def a3_coefficient_even(n: int, s: int) -> int:
    """Coefficient of q^2n z^s in the three-letter distance-2 rise series:
    sum_r sum_m (-1)^(m+r+s) C(m+r, 2m) C(n-m, s) 9^m.
    """
    total = 0
    for r in range(n + 1):
        for m in range(r + 1):
            total += (-1) ** (m + r + s) * comb(m + r, 2 * m) * comb(n - m, s) * 9**m
    return total


def a3_coefficient_odd(n: int, s: int) -> int:
    """Coefficient of q^(2n+1) z^s:
    sum_r sum_m (-1)^(m+r+s) C(m+r+1, 2m+1) C(n-m, s) 3^(2m+1).
    """
    total = 0
    for r in range(n + 1):
        for m in range(r + 1):
            total += (
                (-1) ** (m + r + s)
                * comb(m + r + 1, 2 * m + 1)
                * comb(n - m, s)
                * 3 ** (2 * m + 1)
            )
    return total


def words123_avoiders(n: int) -> int:
    """Words over {1,2,3} avoiding both the adjacent rise by 1 and the
    distance-2 rise by 2, in closed form: fib(n+5) - n - 4 (standard indexing).
    """
    if n < 1:
        raise ValueError("words123_avoiders needs n >= 1")
    return fib(n + 5) - n - 4


def words123_recurrence(n: int) -> int:
    """Same count by the recursion a_n = a_{n-1} + a_{n-2} + n + 1, a_1 = 3, a_2 = 7."""
    if n < 1:
        raise ValueError("words123_recurrence needs n >= 1")
    prev, cur = 1, 3  # a_0 = 1 continues the recursion: a_2 = 3 + 1 + 3 = 7
    for k in range(2, n + 1):
        prev, cur = cur, cur + prev + k + 1
    return cur


def words3_avoiding_13_count(n: int) -> int:
    """Words over {1,2,3} of length n with no adjacent factor 13 (direct DP)."""
    if n == 0:
        return 1
    cur = {1: 1, 2: 1, 3: 1}
    for _ in range(n - 1):
        nxt = {}
        for v, c in cur.items():
            for u in (1, 2, 3):
                if u - v == 2:
                    continue
                nxt[u] = nxt.get(u, 0) + c
        cur = nxt
    return sum(cur.values())


def binary_avoiding_11_count(length: int) -> int:
    """Binary words of the given length with no adjacent factor 11 (direct DP)."""
    if length == 0:
        return 1
    zero, one = 1, 1
    for _ in range(length - 1):
        zero, one = zero + one, zero
    return zero + one
