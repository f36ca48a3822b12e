"""Exact generating-function machinery for word statistics.

A statistic here is "number of occurrences of a fixed bounded-window pattern"
in a word over {1..t}, or the sum of several such counts.  The bivariate series sum_w q^|w| z^stat(w) is the
series of one weighted automaton: its states are the words of length at most
W - 1, and appending a letter reads z^e, e = the occurrences that end at that
letter.  `_automaton` lists its edges once, and two readers share them: a
forward dynamic program that expands the series (every row, or only the last
one for a word scan), and the bordered matrix [[I - qA, 1], [-alpha, 0]],
solved exactly over integer polynomials in q and z by one fraction-free
elimination.  The dynamic program steps the lumped quotient of the automaton
(`_lump`: states with the same future share one class), because its output,
the series, does not depend on the states; the elimination still reads the
full states, since a lumped elimination prints a more reduced pair whenever
the full one is not in lowest terms.  Everything is arbitrary-precision
integer arithmetic; there is no floating point here.

Polynomials in q and z are stored as polynomials in q over Z[z], one
z-polynomial {z-degree: coefficient} per q-degree, as series rows are; their
products and the elimination share one kernel, `_mul_acc`.

Inside the dynamic program, the elimination and the expansion of a rational
series, z is carried as an integer: a z-polynomial is replaced by its value
at z = 2^B (Kronecker substitution), so its arithmetic is one big-integer
operation.  z -> 2^B is a ring homomorphism, so sums, products and exact
divisions of the images are the images of the true results; each division
exact in Z[z][q] stays exact in Z[q].  The slot width B is fixed before any
work from a proven bound on the coefficients (t^n for the dp, Hadamard's
inequality for the elimination, a recurrence on the rows' 1-norms for the
expansion), with 2^(B-1) above it, so balanced base-2^B digits give back
every coefficient exactly, and only the series rows, the numerator and the
last pivot are decoded.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import comb
from typing import Iterable, Mapping, Sequence

from . import matcher
from .pattern import Mode, Pdvp

ZPoly = dict[int, int]


# ---------------------------------------------------------------------------
# bivariate integer polynomials


def _mul_acc(acc: ZPoly, a: ZPoly, b: ZPoly, sign: int = 1) -> None:
    """acc += sign * a * b for integer polynomials {degree: coefficient}, in
    place: in Z[z] for BivarPoly, in q over packed z for the elimination.
    The dp and the expansion of a rational series do not call it: they add
    and multiply packed integers.  A coefficient that cancels is dropped, so
    acc keeps no zero coefficient."""
    for i, x in a.items():
        x *= sign
        for j, y in b.items():
            k = i + j
            w = acc.get(k, 0) + x * y
            if w:
                acc[k] = w
            else:
                del acc[k]


class BivarPoly:
    """Polynomial in q and z with integer coefficients, built from
    {(q-degree, z-degree): coefficient} and stored as a polynomial in q over
    Z[z]: `_rows` maps a q-degree to its z-polynomial.  No row is empty and no
    coefficient is 0, so equal polynomials have equal stores."""

    __slots__ = ("_rows",)

    def __init__(self, coeffs: Mapping[tuple[int, int], int] | None = None):
        self._rows: dict[int, ZPoly] = {}
        for (i, j), c in (coeffs or {}).items():
            if c:
                self._rows.setdefault(i, {})[j] = c

    @classmethod
    def _of(cls, rows: dict[int, ZPoly]) -> "BivarPoly":
        """Adopt rows that already hold no empty row and no zero coefficient."""
        p = cls.__new__(cls)
        p._rows = rows
        return p

    @classmethod
    def const(cls, c: int) -> "BivarPoly":
        return cls({(0, 0): c})

    @classmethod
    def mono(cls, c: int, qdeg: int, zdeg: int) -> "BivarPoly":
        return cls({(qdeg, zdeg): c})

    def terms(self) -> list[tuple[int, int, int]]:
        """Sorted (q-degree, z-degree, coefficient) triples."""
        rows = sorted(self._rows.items())
        return [(i, j, row[j]) for i, row in rows for j in sorted(row)]

    def __bool__(self) -> bool:
        return bool(self._rows)

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        return other is not None and self._rows == other._rows

    def __hash__(self):
        return hash(tuple(self.terms()))

    def __neg__(self) -> "BivarPoly":
        return ZERO - self

    def __add__(self, other, sign: int = 1) -> "BivarPoly":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        out = {i: dict(row) for i, row in self._rows.items()}
        for i, row in other._rows.items():
            acc = out.setdefault(i, {})
            _mul_acc(acc, {0: sign}, row)
            if not acc:
                del out[i]
        return BivarPoly._of(out)

    __radd__ = __add__

    def __sub__(self, other) -> "BivarPoly":
        return self.__add__(other, -1)

    def __rsub__(self, other) -> "BivarPoly":
        return _coerce(other) - self

    def __mul__(self, other) -> "BivarPoly":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        out: dict[int, ZPoly] = {}
        for i1, row1 in self._rows.items():
            for i2, row2 in other._rows.items():
                _mul_acc(out.setdefault(i1 + i2, {}), row1, row2)
        return BivarPoly._of({i: row for i, row in out.items() if row})

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "BivarPoly":
        out = ONE
        for _ in range(n):
            out = out * self
        return out

    def constant_term(self) -> int:
        return self._rows.get(0, {}).get(0, 0)

    def __repr__(self) -> str:
        if not self._rows:
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


# ---------------------------------------------------------------------------
# z carried as an integer, and the elimination over it


def _exact_div(num: ZPoly, den: ZPoly) -> ZPoly:
    """Exact division of integer polynomials {degree: coefficient}; raises
    ArithmeticError if not exact."""
    num = dict(num)
    dd = max(den)
    dl = den[dd]
    out: ZPoly = {}
    while num:
        nd = max(num)
        if nd < dd or num[nd] % dl:
            raise ArithmeticError("inexact polynomial division")
        out[nd - dd] = num[nd] // dl
        _mul_acc(num, {nd - dd: out[nd - dd]}, den, -1)
    return out


def _slot_bytes(bits: int) -> int:
    """Bytes per slot of a packed z-polynomial whose coefficients all have
    absolute value below 2^bits: one byte-aligned slot of 8w >= bits + 1 bits
    keeps each as a balanced digit."""
    return (bits + 8) // 8


def _decode(x: int, width: int) -> ZPoly:
    """The z-polynomial whose value at z = 2^(8 width) is x, read as balanced
    digits: every coefficient must have absolute value below 2^(8 width - 1).

    Adding 2^(8 width - 1) to every slot makes each digit non-negative without
    a carry, so one byte string holds them all and the decoding is linear in
    the size of x.
    """
    bits = 8 * width
    slots = abs(x).bit_length() // bits + 1
    half = 1 << (bits - 1)
    bias = int.from_bytes(half.to_bytes(width, "little") * slots, "little")
    raw = (x + bias).to_bytes(width * slots, "little")
    out: ZPoly = {}
    for j in range(slots):
        c = int.from_bytes(raw[j * width:(j + 1) * width], "little") - half
        if c:
            out[j] = c
    return out


def _bareiss(m: list[list[ZPoly]]) -> tuple[ZPoly, ZPoly]:
    """Fraction-free elimination of the square matrix m, in place; its
    entries are integer polynomials {degree: coefficient}.

    Returns det(m) and the last pivot before it, the leading principal minor
    of order n - 1.  Every interior division is exact.  Rows are never
    swapped: a zero pivot raises ArithmeticError.  A row whose entry under
    the pivot is 0 is left as it is when the pivot equals the one before,
    and an entry that would stay 0 is not recomputed.
    """
    n = len(m)
    prev: ZPoly = {0: 1}
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
                    acc: ZPoly = {}
                    _mul_acc(acc, pivot, row_i[j])
                    _mul_acc(acc, lead, pivot_row[j], -1)
                    row_i[j] = _exact_div(acc, prev)
            row_i[k] = {}
        prev = pivot
    return m[n - 1][n - 1], prev


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
    """For n = 0..n_max, the z-polynomial coefficient of q^n.

    The rows are stored as given and must hold no zero coefficient, as the
    rows of `_decode` and `expand_rational` do, so equal series compare equal.
    """

    def __init__(self, rows: Iterable[ZPoly]):
        self._rows = tuple(rows)

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
    """Power-series expansion of num/den to order q^n_max, exact in z.

    The series lies in Z[z][[q]] only when the denominator's q^0 row is
    exactly 1 (RationalGF makes its constant term +1, but z-terms may remain
    there); any other denominator raises ValueError.  Row n is then
    num_n - sum_{k>=1} den_k row_{n-k}, computed with z carried at 2^B.  Its
    1-norm r_n is at most |num_n|_1 + sum_{k>=1} |den_k|_1 r_{n-k}, which
    bounds every coefficient, and B leaves room for the largest r_n.
    """
    num_q, den_q = gf.num._rows, gf.den._rows
    if den_q[0] != {0: 1}:
        raise ValueError("the denominator's q^0 row must be 1 for a series in q")

    def norm(row: ZPoly) -> int:
        return sum(abs(c) for c in row.values())

    tail = [(k, norm(row)) for k, row in den_q.items() if k]
    bound: list[int] = []
    for n in range(n_max + 1):
        bound.append(norm(num_q.get(n, {})) + sum(d * bound[n - k] for k, d in tail if k <= n))
    width = _slot_bytes(max(bound, default=0).bit_length())
    bits = 8 * width

    def pack(row: ZPoly) -> int:
        return sum(c << (bits * j) for j, c in row.items())

    den_p = [(k, pack(row)) for k, row in den_q.items() if k]
    packed: list[int] = []
    for n in range(n_max + 1):
        packed.append(pack(num_q.get(n, {})) - sum(d * packed[n - k] for k, d in den_p if k <= n))
    return ZSeriesTable(_decode(x, width) for x in packed)


def gf_equal_series(a: RationalGF, b: RationalGF, order: int) -> bool:
    """Do the two expansions agree through q^order?"""
    return expand_rational(a, order) == expand_rational(b, order)


# ---------------------------------------------------------------------------
# the statistic patterns and their series


DEFAULT_STATE_BUDGET = 4096
DEFAULT_SOLVE_BUDGET = 64  # full states of one solve_transfer_system
DEFAULT_SERIES_BUDGET = 10**5  # edges walked by one dp: states x letters x (order + 1)
DEFAULT_SERIES_BITS = 2**30  # bits one dp may hold: (states + orders) x slots x slot bits


class NotAStatistic(ValueError):
    """The pattern is not a bounded-window statistic; see StatPattern."""


class SeriesBudgetError(ValueError):
    """The automaton or its series exceeds a budget; raised before any work."""


@dataclass(frozen=True)
class StatPattern:
    """A word pattern usable as a bounded-window statistic.

    Requires boundary sets X_0 and X_m that hold every positive integer
    (P, however written), finite interior X sets, and Y triples on pattern
    indices only (no sentinels), so that occurrence checks are translation
    invariant.  The window width W = 1 + sum of interior gap maxima bounds
    the span of any occurrence.  Any other pattern raises NotAStatistic.
    """

    pattern: Pdvp

    def __post_init__(self):
        pat = self.pattern
        if pat.mode is not Mode.WORD:
            raise NotAStatistic("statistic patterns are word patterns")
        # gaps are >= 1, so a boundary set holding every positive integer is P
        if not (pat.x[0].steps == (1,) and pat.x[-1].steps == (1,)):
            raise NotAStatistic("boundary gap sets must both be P")
        for xs in pat.x[1:-1]:
            if xs.finite_bound() is None:
                raise NotAStatistic("interior gap sets must be finite")
        for s, t, _ in pat.y:
            if not (1 <= s and t <= pat.m):
                raise NotAStatistic("difference triples may not reference sentinels")

    @property
    def window_width(self) -> int:
        return 1 + sum(xs.finite_bound() for xs in self.pattern.x[1:-1])


def _window_occurrences(pat: Pdvp, t: int):
    """The count of occurrences that end at the last letter of a window."""

    def ending_at_last(word: tuple[int, ...]) -> int:
        return matcher.search_ending_at(pat, len(word), t)(word, len(word))

    return ending_at_last


def _check_states(sps: tuple[StatPattern, ...], t: int) -> int:
    """The number of letters a full state keeps, W - 1 for the widest
    window W, within the budget."""
    if t < 1:
        raise ValueError("alphabet size must be positive")
    if t > DEFAULT_STATE_BUDGET:
        raise SeriesBudgetError(f"alphabet size {t} exceeds the budget {DEFAULT_STATE_BUDGET}")
    keep = max((sp.window_width - 1 for sp in sps), default=0)
    if t**keep > DEFAULT_STATE_BUDGET:
        raise SeriesBudgetError(
            f"state count {t}^{keep} exceeds the budget {DEFAULT_STATE_BUDGET}"
        )
    return keep


def _automaton(sps: tuple[StatPattern, ...], t: int, keep: int) -> list[list[tuple[int, int]]]:
    """The dp as a weighted automaton: for each state, its t edges (target, e).

    The states are the words of length at most keep, shortest first and then
    in lexicographic order, so state 0 is the empty word.  Appending c to u
    reads z^e, e = the occurrences of all the patterns in uc that end at c,
    and moves to uc, or to its last keep letters once uc is longer.  Each
    window uc is counted once.
    """
    counters = [_window_occurrences(sp.pattern, t) for sp in sps]
    letters = range(1, t + 1)
    states = layer = [()]
    for _ in range(keep):
        layer = [u + (c,) for u in layer for c in letters]
        states = states + layer
    index = {u: i for i, u in enumerate(states)}
    edges = []
    for u in states:
        out = []
        for c in letters:
            word = u + (c,)
            e = 0
            for ending_at_last in counters:
                e += ending_at_last(word)
            out.append((index[word[-keep:] if keep else ()], e))
        edges.append(out)
    return edges


def _lump(edges: list[list[tuple[int, int]]]) -> list[int]:
    """The class of each state in the coarsest partition of the automaton in
    which the states of one class have equal multisets {(e, class of
    target)} over their edges (exact lumpability; Moore's partition
    refinement).

    Starting from one class, the states are split by that multiset under the
    current classes until the count stops growing; each round refines the
    one before.  Classes are numbered by first appearance in state order, so
    the empty word's class is 0.  With P the state-to-class indicator and
    A_c the quotient, whose class takes the edges of any one member with the
    targets mapped to classes, A P = P A_c.  So alpha A^n 1 = e_0 A_c^n 1:
    the dp steps one weight per class and sums the same series.
    """
    classes = [0] * len(edges)
    count = 1
    while True:
        keys: dict[tuple, int] = {}
        split = [
            keys.setdefault(tuple(sorted((e, classes[v]) for v, e in out)), len(keys))
            for out in edges
        ]
        if len(keys) == count:
            return classes
        classes, count = split, len(keys)


def _packed_dp(sps: tuple[StatPattern, ...], t: int, n_max: int, rows: int):
    """The lumped automaton of `sps` packed for the dp to order n_max: one
    list of edges (target class, shift) per class of `_lump`, and the slot
    width in bytes.

    A class's weight sums z^stat over the words that end in its states,
    carried at z = 2^B, B = 8 * width, so appending a letter that reads z^e
    is a shift by e*B bits.  Every coefficient at order n counts words of
    length n, so it is at most t^n, and B leaves room for t^n_max.  Two
    budgets, both on the full states, are checked before any work starts:
    the t^(W-1) full states times their t edges times the n_max + 1 orders
    must stay within DEFAULT_SERIES_BUDGET, and the weights of the states
    plus the `rows` decoded rows the reader keeps, each at most
    n_max*sum C(W-1, m-1) + 1 slots of B bits (at most C(W-1, m-1)
    occurrences of a pattern end at one letter), within DEFAULT_SERIES_BITS.
    """
    if n_max < 0:
        raise ValueError(f"series order must be non-negative, got {n_max}")
    keep = _check_states(sps, t)
    size = t**keep * t * (n_max + 1)
    if size > DEFAULT_SERIES_BUDGET:
        raise SeriesBudgetError(
            f"series size {t}^{keep} states x {t} letters x {n_max + 1} orders = {size}"
            f" edges exceeds the budget {DEFAULT_SERIES_BUDGET}"
        )
    width = _slot_bytes((t**n_max).bit_length())
    bits = 8 * width
    states = sum(t**k for k in range(keep + 1))
    slots = n_max * sum(comb(sp.window_width - 1, sp.pattern.m - 1) for sp in sps) + 1
    held = (states + rows) * slots * bits
    if held > DEFAULT_SERIES_BITS:
        raise SeriesBudgetError(
            f"series memory ({states} states + {rows} orders) x {slots} slots"
            f" x {bits} bits = {held} bits exceeds the budget {DEFAULT_SERIES_BITS}"
        )
    edges = _automaton(sps, t, keep)
    classes = _lump(edges)
    first: dict[int, int] = {}
    for state, c in enumerate(classes):
        first.setdefault(c, state)
    lumped = [[(classes[v], e * bits) for v, e in edges[state]] for state in first.values()]
    return lumped, width


def _step(weights: list[int], edges: list[list[tuple[int, int]]]) -> list[int]:
    """The packed weights after one more letter: each class's weight, shifted
    by each of its edges, added into the edge's target."""
    nxt = [0] * len(weights)
    for w, out in zip(weights, edges):
        if w:
            for target, shift in out:
                nxt[target] += w << shift
    return nxt


def dp_series(sp: StatPattern, t: int, n_max: int) -> ZSeriesTable:
    """Forward dynamic program over the automaton of `_automaton`, lumped:
    every row of the series to order n_max.

    A state's weight sums z^stat over the words that end in it; appending a
    letter multiplies it by z^e, where e counts the occurrences inside the
    window that use its final position.  Words shorter than W - 1 are states
    of their own, so occurrences inside short words are exact as well.  The
    dp steps one weight per class of states with the same future; the
    packing, the lumping and the budgets (on the full states, charging all
    n_max + 1 rows) are those of `_packed_dp`.
    """
    edges, width = _packed_dp((sp,), t, n_max, n_max + 1)
    weights = [1] + [0] * (len(edges) - 1)
    rows = [_decode(sum(weights), width)]
    for _ in range(n_max):
        weights = _step(weights, edges)
        rows.append(_decode(sum(weights), width))
    return ZSeriesTable(rows)


def series_row(sps: Sequence[StatPattern], t: int, n: int) -> ZPoly:
    """Row n of the series of the summed statistic of `sps`: for each s, the
    number of words in {1..t}^n with s occurrences of the patterns together.

    The dp of `dp_series` over the lumped automaton of all the patterns at
    once (the widest window sets the states); only the last row is kept and
    decoded, so the bits budget charges the weights and that one row.  Its
    z^0 coefficient counts the words that avoid them all.
    """
    edges, width = _packed_dp(tuple(sps), t, n, 1)
    weights = [1] + [0] * (len(edges) - 1)
    for _ in range(n):
        weights = _step(weights, edges)
    return _decode(sum(weights), width)


def solve_transfer_system(sp: StatPattern, t: int) -> RationalGF:
    """Closed-form series of the automaton of `_automaton`.

    With A[u][v] summing z^e over the edges u -> v, the series is
    alpha (I - qA)^-1 1, where alpha picks the empty word.  By the Schur
    complement it is det [[I - qA, 1], [-alpha, 0]] / det(I - qA), and one
    fraction-free elimination of that bordered matrix yields both:
    det(I - qA) is its last pivot.  No row is ever swapped, because every
    leading minor of I - qA is 1 at q = 0.  The words shorter than W - 1
    come first, and their rows are eliminated with pivots 1.  At most
    DEFAULT_SOLVE_BUDGET full states are solved, which is checked before any
    work starts.

    The entries are polynomials in q whose coefficients are z-polynomials
    carried at z = 2^B.  Every entry the elimination keeps, each pivot and
    both results are minors of the bordered matrix.  On |q| = |z| = 1,
    Hadamard's inequality bounds a minor, and so each of its coefficients,
    by the product over the rows of sqrt(sum_j |m_ij|_1^2), where |m_ij|_1
    is [i = j] plus the edges i -> j, and the border adds 1 to the sum.
    2^(B-1) exceeds that bound, so a minor decodes exactly, and it is 0 only
    when its image is.
    """
    keep = _check_states((sp,), t)
    if t**keep > DEFAULT_SOLVE_BUDGET:
        raise SeriesBudgetError(
            f"solved state count {t}^{keep} = {t**keep}"
            f" exceeds the solve budget {DEFAULT_SOLVE_BUDGET}"
        )
    edges = _automaton((sp,), t, keep)
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
