"""Exact generating-function machinery for word statistics.

A statistic here is "number of occurrences of a fixed bounded-window pattern"
in a word over {1..t}.  The bivariate series sum_w q^|w| z^stat(w) is computed
two ways over the same suffix states and window counts: a forward dynamic
program, and a symbolic linear system (one unknown per suffix state) solved
exactly over integer polynomials in q and z by one fraction-free elimination.
Everything is arbitrary-precision integer arithmetic; there is no floating
point here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from . import matcher
from .pattern import Mode, Pdvp

ZPoly = dict[int, int]


# ---------------------------------------------------------------------------
# bivariate integer polynomials


class BivarPoly:
    """Polynomial in q and z with integer coefficients, stored sparsely."""

    __slots__ = ("_c",)

    def __init__(self, coeffs: Mapping[tuple[int, int], int] | None = None):
        self._c = {k: v for k, v in (coeffs or {}).items() if v}

    @classmethod
    def const(cls, c: int) -> "BivarPoly":
        return cls({(0, 0): c})

    @classmethod
    def mono(cls, c: int, qdeg: int, zdeg: int) -> "BivarPoly":
        return cls({(qdeg, zdeg): c})

    def terms(self) -> list[tuple[int, int, int]]:
        """Sorted (q-degree, z-degree, coefficient) triples."""
        return [(i, j, self._c[(i, j)]) for i, j in sorted(self._c)]

    def __bool__(self) -> bool:
        return bool(self._c)

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        return other is not None and self._c == other._c

    def __hash__(self):
        return hash(frozenset(self._c.items()))

    def __neg__(self) -> "BivarPoly":
        return BivarPoly({k: -v for k, v in self._c.items()})

    def __add__(self, other) -> "BivarPoly":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self._c)
        for k, v in other._c.items():
            w = out.get(k, 0) + v
            if w:
                out[k] = w
            else:
                out.pop(k, None)
        return BivarPoly(out)

    __radd__ = __add__

    def __sub__(self, other) -> "BivarPoly":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "BivarPoly":
        return _coerce(other) - self

    def __mul__(self, other) -> "BivarPoly":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        a, b = self._c, other._c
        if len(a) > len(b):
            a, b = b, a
        out: dict[tuple[int, int], int] = {}
        for (i1, j1), c1 in a.items():
            for (i2, j2), c2 in b.items():
                k = (i1 + i2, j1 + j2)
                w = out.get(k, 0) + c1 * c2
                if w:
                    out[k] = w
                else:
                    del out[k]
        return BivarPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "BivarPoly":
        out = ONE
        for _ in range(n):
            out = out * self
        return out

    def q_coefficients(self) -> dict[int, ZPoly]:
        """Group terms by q-degree; each value is a polynomial in z."""
        out: dict[int, ZPoly] = {}
        for (i, j), c in self._c.items():
            out.setdefault(i, {})[j] = c
        return out

    def constant_term(self) -> int:
        return self._c.get((0, 0), 0)

    def __repr__(self) -> str:
        if not self._c:
            return "0"
        out = ""
        for i, j, c in self.terms():
            mono = ""
            if i:
                mono += f"q^{i}" if i > 1 else "q"
            if j:
                mono += f"z^{j}" if j > 1 else "z"
            mag = abs(c)
            piece = mono if mag == 1 and mono else f"{mag}{mono}"
            if not out:
                out = piece if c > 0 else f"-{piece}"
            else:
                out += f" + {piece}" if c > 0 else f" - {piece}"
        return out


def _coerce(value) -> BivarPoly | None:
    if isinstance(value, BivarPoly):
        return value
    if isinstance(value, int):
        return BivarPoly.const(value)
    return None


ZERO = BivarPoly()
ONE = BivarPoly.const(1)
Q = BivarPoly.mono(1, 1, 0)
Z = BivarPoly.mono(1, 0, 1)


def _zpoly_exact_div(num: ZPoly, den: ZPoly) -> ZPoly:
    """Exact division in Z[z]; raises ArithmeticError if not exact."""
    num = dict(num)
    if not den:
        raise ArithmeticError("division by zero polynomial")
    dd = max(den)
    dl = den[dd]
    out: ZPoly = {}
    while num:
        nd = max(num)
        if nd < dd:
            raise ArithmeticError("inexact polynomial division")
        lead = num[nd]
        if lead % dl:
            raise ArithmeticError("inexact polynomial division")
        c = lead // dl
        out[nd - dd] = c
        for j, v in den.items():
            k = nd - dd + j
            w = num.get(k, 0) - c * v
            if w:
                num[k] = w
            else:
                num.pop(k, None)
    return out


def exact_div(num: BivarPoly, den: BivarPoly) -> BivarPoly:
    """Exact division in Z[q, z] (long division in q with Z[z] coefficients)."""
    if not den:
        raise ArithmeticError("division by zero polynomial")
    if not num:
        return ZERO
    nq = num.q_coefficients()
    dq = den.q_coefficients()
    dd = max(dq)
    dl = dq[dd]
    out: dict[tuple[int, int], int] = {}
    while nq:
        nd = max(nq)
        if nd < dd:
            raise ArithmeticError("inexact polynomial division")
        c = _zpoly_exact_div(nq[nd], dl)
        for j, v in c.items():
            out[(nd - dd, j)] = v
        for i, zp in dq.items():
            tgt = nq.setdefault(nd - dd + i, {})
            for j1, v1 in c.items():
                for j2, v2 in zp.items():
                    k = j1 + j2
                    w = tgt.get(k, 0) - v1 * v2
                    if w:
                        tgt[k] = w
                    else:
                        tgt.pop(k, None)
            if not tgt:
                del nq[nd - dd + i]
    return BivarPoly(out)


def _bareiss(m: list[list[BivarPoly]]) -> tuple[BivarPoly, BivarPoly]:
    """Fraction-free elimination of the square matrix m, in place.

    Returns det(m) and the last pivot before it.  When every pivot was found
    on the diagonal (no row swap), that pivot is the leading principal minor
    of order n - 1.  Every interior division is exact.
    """
    n = len(m)
    sign = 1
    prev = ONE
    for k in range(n - 1):
        if not m[k][k]:
            for r in range(k + 1, n):
                if m[r][k]:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return ZERO, ZERO
        pivot = m[k][k]
        for i in range(k + 1, n):
            row_i = m[i]
            lead = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = exact_div(pivot * row_i[j] - lead * m[k][j], prev)
            row_i[k] = ZERO
        prev = pivot
    det = m[n - 1][n - 1]
    return (det if sign == 1 else -det), prev


def det_bareiss(matrix: list[list[BivarPoly]]) -> BivarPoly:
    """Fraction-free determinant; every interior division is exact."""
    return _bareiss([row[:] for row in matrix])[0]


# ---------------------------------------------------------------------------
# rational generating functions and their expansions


@dataclass(frozen=True)
class RationalGF:
    """numerator / denominator, both integer polynomials in q and z.

    Normalised so the denominator's constant term is +1.
    """

    num: BivarPoly
    den: BivarPoly

    def __post_init__(self):
        c = self.den.constant_term()
        if c == 1:
            return
        if c == -1:
            object.__setattr__(self, "num", -self.num)
            object.__setattr__(self, "den", -self.den)
            return
        raise ValueError(f"denominator constant term must be +-1, got {c}")

    def to_json_obj(self) -> dict:
        def termlist(p: BivarPoly) -> list[list]:
            return [[str(c), i, j] for i, j, c in p.terms()]

        return {"numerator": termlist(self.num), "denominator": termlist(self.den)}


class ZSeriesTable:
    """For n = 0..n_max, the z-polynomial coefficient of q^n."""

    def __init__(self, rows: Iterable[ZPoly]):
        self._rows = tuple({j: c for j, c in row.items() if c} for row in rows)

    @property
    def n_max(self) -> int:
        return len(self._rows) - 1

    def z_poly(self, n: int) -> ZPoly:
        return dict(self._rows[n])

    def coefficient(self, n: int, s: int) -> int:
        return self._rows[n].get(s, 0)

    def z0_series(self) -> list[int]:
        """The avoidance slice: coefficient of z^0 for each n."""
        return [row.get(0, 0) for row in self._rows]

    def totals(self) -> list[int]:
        """Row sums, i.e. the series evaluated at z = 1."""
        return [sum(row.values()) for row in self._rows]

    def __eq__(self, other) -> bool:
        return isinstance(other, ZSeriesTable) and self._rows == other._rows

    def __repr__(self) -> str:
        return f"ZSeriesTable(n_max={self.n_max})"

    def to_json_obj(self) -> dict:
        entries = []
        for n, row in enumerate(self._rows):
            entries.append(
                {"q": n, "coeffs": {str(j): str(row[j]) for j in sorted(row)}}
            )
        return {"n": self.n_max, "entries": entries}


def expand_rational(gf: RationalGF, n_max: int) -> ZSeriesTable:
    """Power-series expansion of num/den to order q^n_max, exact in z
    (RationalGF makes the denominator's constant term +1)."""
    num_q = gf.num.q_coefficients()
    den_q = gf.den.q_coefficients()
    rows: list[ZPoly] = []
    for n in range(n_max + 1):
        acc: ZPoly = dict(num_q.get(n, {}))
        for k in range(1, n + 1):
            dk = den_q.get(k)
            if not dk:
                continue
            ck = rows[n - k]
            for j1, v1 in dk.items():
                for j2, v2 in ck.items():
                    j = j1 + j2
                    w = acc.get(j, 0) - v1 * v2
                    if w:
                        acc[j] = w
                    else:
                        acc.pop(j, None)
        rows.append(acc)
    return ZSeriesTable(rows)


def gf_equal_series(a: RationalGF, b: RationalGF, order: int) -> bool:
    """Do the two expansions agree through q^order?"""
    return expand_rational(a, order) == expand_rational(b, order)


# ---------------------------------------------------------------------------
# the statistic patterns and their series


DEFAULT_STATE_BUDGET = 4096
DEFAULT_SERIES_BUDGET = 10**5  # states x (order + 1) of one dp_series


@dataclass(frozen=True)
class StatPattern:
    """A word pattern usable as a bounded-window statistic.

    Requires boundary sets X_0 and X_m that hold every positive integer
    (P, however written), finite interior X sets, and Y triples on pattern
    indices only (no sentinels), so that occurrence checks are translation
    invariant.  The window width W = 1 + sum of interior gap maxima bounds
    the span of any occurrence.
    """

    pattern: Pdvp

    def __post_init__(self):
        pat = self.pattern
        if pat.mode is not Mode.WORD:
            raise ValueError("statistic patterns are word patterns")
        # gaps are >= 1, so a boundary set holding every positive integer is P
        if not (pat.x[0].steps == (1,) and pat.x[-1].steps == (1,)):
            raise ValueError("boundary gap sets must both be P")
        for xs in pat.x[1:-1]:
            if xs.finite_bound() is None:
                raise ValueError("interior gap sets must be finite")
        for s, t, _ in pat.y:
            if not (1 <= s and t <= pat.m):
                raise ValueError("difference triples may not reference sentinels")

    @property
    def window_width(self) -> int:
        return 1 + sum(xs.finite_bound() for xs in self.pattern.x[1:-1])


def _window_occurrences(pat: Pdvp, t: int):
    """Memoised counts of occurrences ending at the last letter of a window."""
    cache: dict[tuple[int, ...], int] = {}

    def ending_at_last(word: tuple[int, ...]) -> int:
        got = cache.get(word)
        if got is None:
            got = matcher.search_ending_at(pat, len(word), t)(word, len(word))
            cache[word] = got
        return got

    return ending_at_last


def _check_states(sp: StatPattern, t: int, state_budget: int | None) -> int:
    """The number of letters a suffix state keeps, W - 1, within the budget."""
    budget = DEFAULT_STATE_BUDGET if state_budget is None else state_budget
    if t < 1:
        raise ValueError("alphabet size must be positive")
    keep = max(sp.window_width - 1, 0)
    if t**keep > budget:
        raise ValueError(f"state count {t}^{keep} exceeds the budget {budget}")
    return keep


def _suffix_states(
    ending_at_last, t: int, keep: int
) -> Iterator[dict[tuple[int, ...], ZPoly]]:
    """The dp's state weights after 0, 1, 2, .. letters.

    A state is the last `keep` letters (the whole word while it is shorter);
    its weight sums z^stat over the words that end in it.  Appending c to a
    state u multiplies the weight by z^e, e = ending_at_last(u + (c,)).
    """
    states: dict[tuple[int, ...], ZPoly] = {(): {0: 1}}
    letters = range(1, t + 1)
    while True:
        yield states
        nxt: dict[tuple[int, ...], ZPoly] = {}
        for u, wpoly in states.items():
            for c in letters:
                word = u + (c,)
                e = ending_at_last(word)
                state = word[-keep:] if keep else ()
                acc = nxt.setdefault(state, {})
                for j, v in wpoly.items():
                    acc[j + e] = acc.get(j + e, 0) + v
        states = nxt


def dp_series(
    sp: StatPattern, t: int, n_max: int, state_budget: int | None = None
) -> ZSeriesTable:
    """Forward dynamic program: states are the last W-1 letters.

    Appending a letter multiplies the state weight by z^e where e counts the
    occurrences inside the window that use its final position; short words
    are carried whole, so occurrences inside words shorter than W are exact
    as well.  The states times the n_max + 1 rows must stay within
    DEFAULT_SERIES_BUDGET, which is checked before any work starts.
    """
    if n_max < 0:
        raise ValueError(f"series order must be non-negative, got {n_max}")
    keep = _check_states(sp, t, state_budget)
    size = t**keep * (n_max + 1)
    if size > DEFAULT_SERIES_BUDGET:
        raise ValueError(
            f"series size {t}^{keep} states x {n_max + 1} orders = {size}"
            f" exceeds the budget {DEFAULT_SERIES_BUDGET}"
        )
    steps = _suffix_states(_window_occurrences(sp.pattern, t), t, keep)
    rows: list[ZPoly] = []
    for _ in range(n_max + 1):
        row: ZPoly = {}
        for wpoly in next(steps).values():
            for j, v in wpoly.items():
                row[j] = row.get(j, 0) + v
        rows.append(row)
    return ZSeriesTable(rows)


def solve_transfer_system(
    sp: StatPattern, t: int, state_budget: int | None = None
) -> RationalGF:
    """Closed-form series via the forward suffix-state linear system.

    One unknown G(v) per (W-1)-letter word v: the sum of q^|w| z^stat(w)
    over the words w of length at least W-1 that end in v.  As in
    `dp_series`, appending c to u moves G(u) to G(tail(u)c) with weight
    q z^e, e = the occurrences in uc that end at c, so
    G(v) = q^(W-1) z^occ(v) + sum_{tail(u)c = v} q z^e G(u).  With
    M = I - qT and b_v = q^(W-1) z^occ(v), the series is
    shorts + b M^-1 1, where shorts sums the words shorter than W-1.  By the
    Schur complement it is det [[M, 1], [-b, shorts]] / det M, and one
    fraction-free elimination of that bordered matrix yields both: det M is
    its last pivot.  No row is ever swapped, because every leading minor of
    M is 1 at q = 0.
    """
    keep = _check_states(sp, t, state_budget)
    ending_at_last = _window_occurrences(sp.pattern, t)
    steps = _suffix_states(ending_at_last, t, keep)

    def lifted(length: int, zpoly: ZPoly) -> BivarPoly:
        return BivarPoly({(length, j): v for j, v in zpoly.items()})

    shorts = ZERO
    for length in range(keep):
        for wpoly in next(steps).values():
            shorts = shorts + lifted(length, wpoly)
    weights = next(steps)  # every word v of length W-1, with weight z^occ(v)
    states = sorted(weights)
    index = {u: i for i, u in enumerate(states)}
    size = len(states)

    # [[M, 1], [-b, shorts]] with M = I - qT, T[u][tail(u)c] accumulating z^e
    m = [[ZERO] * size + [ONE] for _ in range(size)]
    for i, u in enumerate(states):
        m[i][i] = ONE
        for c in range(1, t + 1):
            word = u + (c,)
            j = index[word[-keep:] if keep else ()]
            m[i][j] = m[i][j] - Q * BivarPoly.mono(1, 0, ending_at_last(word))
    m.append([-lifted(keep, weights[u]) for u in states] + [shorts])
    num, den = _bareiss(m)
    return RationalGF(num, den)
