"""Exact generating-function machinery for word statistics, and the rank dp
that counts bounded-window patterns over permutations.

A statistic here is "number of occurrences of a fixed bounded-window pattern"
in a word over {1..t}, or the sum of several such counts.  The bivariate series sum_w q^|w| z^stat(w) is the
series of one weighted automaton: its states are the words of length at most
W - 1, and appending a letter reads z^e, e = the occurrences that end at that
letter.  `_automaton` lists its edges once, and `_lump` merges the states
with the same future (exact lumpability), which leaves the series as it is.
A forward dynamic program over the c classes expands it: every row, or
only the last one for a word scan.  A step adds each class's weight into
the target of each edge, shifted by e; a class's edges are grouped by e
once per dp, so a step shifts a weight once per distinct e >= 1 and never
by 0: at most as many shifts as adds.  The closed form is read from the same
rows: the lumped automaton is a linear representation of the series, so its
lowest-terms form P / Q has q-degrees at most c, and 2c + 1 rows determine
it.  `solve_transfer_system` runs Berlekamp-Massey on those rows over GF(p)
at points z = 0, 1, 2, .., interpolates Q in z, combines primes by CRT and
certifies the candidate exactly against the rows (Berlekamp 1968; Massey
1969; Berstel-Reutenauer, Rational Series and Their Languages, ch. 1-2).
Before any work, the dp's steps and bits (`series_work`), and each phase of
a solve, go through `budget.check_work`.  Everything is exact integer
arithmetic, the modular steps included: they only propose a Q, and the
certificate proves it over Z.

The rank dp (`rank_rows`) does for a permutation pattern what the window
automaton does for a word pattern, when the pattern compares values only
and its occurrences ending at a position lie in the last K + 1 positions,
but for a first slot that may sit anywhere before the second
(`rank_window`).  A state is the ranks of the last K entries among those
placed, so the states change with the length and are stepped, not solved;
a child appends a rank and reads z^e, e from one generated search on a
permutation with the child's last entries.  Row d of the dp is the
distribution over S_d.  `rank_rows` and `series_rows` share one contract:
each returns the last rows asked for, and the scan's plan, which predicts
their work, checks it, so neither checks it again.

Polynomials in q and z are stored as polynomials in q over Z[z], one
z-polynomial {z-degree: coefficient} per q-degree, as series rows are; their
products go through one kernel, `_mul_acc`.

Inside both dynamic programs, the certificate and the expansion of a
rational series, z is carried as an integer: a z-polynomial is replaced by
its value at z = 2^B (Kronecker substitution), so its arithmetic is one
big-integer operation.  z -> 2^B is a ring homomorphism, so sums and
products of the images are the images of the true results.  The slot width
B is fixed before any work from a proven bound on the coefficients (t^n for
the dp, n! for the rank dp, |Q|_1 t^(2c) for the certificate, a recurrence
on the rows' 1-norms for the expansion), with 2^(B-1) above it, so balanced
base-2^B digits give back every coefficient exactly, and a packed value is
0 only when its polynomial is.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, factorial, prod
from operator import mul
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from . import budget, matcher
from .pattern import Mode, Pdvp

ZPoly = dict[int, int]


# ---------------------------------------------------------------------------
# bivariate integer polynomials


def _mul_acc(acc: ZPoly, a: ZPoly, b: ZPoly, sign: int = 1) -> None:
    """acc += sign * a * b for integer polynomials {degree: coefficient}, in
    place, in Z[z] for BivarPoly.  The dp, the solver and the expansion of a
    rational series do not call it: they add and multiply packed integers.
    A coefficient that cancels is dropped, so acc keeps no zero
    coefficient."""
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
# z carried as an integer


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

    def json_entry(self, n: int) -> dict:
        """Row n as `to_json_obj` lists it."""
        row = self._rows[n]
        return {"q": n, "coeffs": {str(j): str(row[j]) for j in sorted(row)}}

    def to_json_obj(self) -> dict:
        return {"n": self.n_max, "entries": list(map(self.json_entry, range(len(self._rows))))}


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


def statistic_refusal(pat: Pdvp) -> str | None:
    """Why `pat` is not a bounded-window statistic (see StatPattern), or None."""
    if pat.mode is not Mode.WORD:
        return "statistic patterns are word patterns"
    # gaps are >= 1, so a boundary set holding every positive integer is P
    if not (pat.x[0].steps == (1,) and pat.x[-1].steps == (1,)):
        return "boundary gap sets must both be P"
    if any(xs.finite_bound() is None for xs in pat.x[1:-1]):
        return "interior gap sets must be finite"
    if any(not (1 <= s and t <= pat.m) for s, t, _ in pat.y):
        return "difference triples may not reference sentinels"
    return None


@dataclass(frozen=True)
class StatPattern:
    """A word pattern usable as a bounded-window statistic.

    Requires boundary sets X_0 and X_m that hold every positive integer
    (P, however written), finite interior X sets, and Y triples on pattern
    indices only (no sentinels), so that occurrence checks are translation
    invariant.  The window width W = 1 + sum of interior gap maxima bounds
    the span of any occurrence.  Any other pattern raises ValueError.
    """

    pattern: Pdvp

    def __post_init__(self):
        if why := statistic_refusal(self.pattern):
            raise ValueError(why)

    @property
    def window_width(self) -> int:
        return 1 + sum(xs.finite_bound() for xs in self.pattern.x[1:-1])


def _shape(sps: tuple[StatPattern, ...], t: int) -> tuple[int, int, int]:
    """keep = W - 1 for the widest window W, the 1 + t + ... + t^keep states,
    and the lumping rounds allowed: at most the class count, and t * keep + 2
    covers every window automaton tried."""
    if t < 1:
        raise ValueError("alphabet size must be positive")
    keep = max((sp.window_width - 1 for sp in sps), default=0)
    states = keep + 1 if t == 1 else (t * budget.power(t, keep) - 1) // (t - 1)
    return keep, states, min(states, t * keep + 2)


def _automaton(sps: tuple[StatPattern, ...], t: int, keep: int) -> list[list[tuple[int, int]]]:
    """The dp as a weighted automaton: for each state, its t edges (target, e).

    The states are the words of length at most keep, shortest first and then
    in lexicographic order, so state 0 is the empty word.  Appending c to u
    reads z^e, e = the occurrences of all the patterns in uc that end at c,
    and moves to uc, or to its last keep letters once uc is longer.  Each
    window uc is counted once, by one search per pattern for each window
    length 1..keep+1, all compiled before the first window.
    """
    letters = range(1, t + 1)
    searches = [[matcher.search_ending_at(sp.pattern, n, t) for sp in sps]
                for n in range(1, keep + 2)]
    states = layer = [()]
    for _ in range(keep):
        layer = [u + (c,) for u in layer for c in letters]
        states = states + layer
    index = {u: i for i, u in enumerate(states)}
    edges = []
    for u in states:
        n, ending_at = len(u) + 1, searches[len(u)]
        out = []
        for c in letters:
            word = u + (c,)
            e = 0
            for search in ending_at:
                e += search(word, n)
            out.append((index[word[-keep:] if keep else ()], e))
        edges.append(out)
    return edges


def _lump(edges: list[list[tuple[int, int]]], rounds: int) -> list[int]:
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
    the dp steps one weight per class and sums the same series.  Unstable
    after `rounds` rounds, it gives way to the trivial partition, as exact.
    """
    classes = [0] * len(edges)
    count = 1
    for _ in range(rounds):
        keys: dict[tuple, int] = {}
        split = [
            keys.setdefault(tuple(sorted((e, classes[v]) for v, e in out)), len(keys))
            for out in edges
        ]
        if len(keys) == count:
            return classes
        classes, count = split, len(keys)
    return list(range(len(edges)))


def _quotient(sps: tuple[StatPattern, ...], t: int) -> list[list[tuple[int, int]]]:
    """The lumped automaton: for each class of `_lump`, the edges (target
    class, e) of its first state."""
    keep, _, rounds = _shape(sps, t)
    edges = _automaton(sps, t, keep)
    classes = _lump(edges, rounds)
    first: dict[int, int] = {}
    for state, c in enumerate(classes):
        first.setdefault(c, state)
    return [[(classes[v], e) for v, e in edges[state]] for state in first.values()]


def _automaton_work(sps: tuple[StatPattern, ...], t: int) -> tuple[int, int]:
    """The steps and bits (see `budget`) of `_quotient`: each of the E edges
    costs a step per pattern counting its window and one per lumping round."""
    _, states, rounds = _shape(sps, t)
    edges = states * t
    return edges * (len(sps) + rounds), edges * budget.EDGE_BITS


def _dp_work(sps: tuple[StatPattern, ...], t: int, n: int, rows: int,
             states: int) -> tuple[int, int]:
    """The steps and bits of the dp to order n over `states` states or
    classes, keeping `rows` rows.  At order k a weight has at most k*c + 1
    slots of B bits (c = sum C(W-1, m-1): that many occurrences can end at
    one letter; B holds t^n, or n * t.bit_length() bits when t^n is too
    large to compute), and each of its t edges adds it into a target at a
    step per CHUNK_BITS; a step's shifts, at most one per edge, ride on
    those adds.  `_decode` takes a step per slot.  The weights and five
    values of `_decode` hold n*c + 1 slots each, and the kept rows their
    nonzero coefficients, at most one per slot and t^n per row, of B bits
    each.
    """
    c = sum(comb(sp.window_width - 1, sp.pattern.m - 1) for sp in sps)
    power = budget.power(t, n)
    slot = 8 * _slot_bytes(power.bit_length() if power < budget.ceiling() else n * t.bit_length())
    chunks = n - (-slot * (c * n * (n - 1) // 2 + n) // budget.CHUNK_BITS)  # sum_k ceil
    kept = rows + c * rows * (2 * n - rows + 1) // 2  # the slots of the last `rows` rows
    held = (states + 5) * (n * c + 1) * slot
    held += min(kept, rows * power) * (budget.COEFF_BITS + slot * 17 // 16)
    return states * t * chunks + kept, held


def series_work(sps: tuple[StatPattern, ...], t: int, n: int, rows: int) -> tuple[int, int]:
    """The steps and bits of `_quotient` and of the dp to order n keeping
    `rows` rows, predicted from all the states, before any lumping."""
    if n < 0:
        raise ValueError(f"series order must be non-negative, got {n}")
    steps, bits = _automaton_work(sps, t)
    more_steps, more_bits = _dp_work(sps, t, n, rows, _shape(sps, t)[1])
    return steps + more_steps, bits + more_bits


def _rows(lumped: list[list[tuple[int, int]]], t: int, n: int, rows: int) -> Iterator[ZPoly]:
    """The last `rows` of the rows 0..n of the packed dp over the lumped
    automaton, each decoded when the dp reaches it: row k sums the weights
    of the classes after k letters.

    A class's weight sums z^stat over the words that end in its states,
    carried at z = 2^B, so appending a letter that reads z^e is a shift by
    e*B bits.  Every coefficient at order k counts words of length k, so it
    is at most t^k, and B leaves room for t^n.  Once per dp, each class's
    edges are grouped by e into (e*B, targets), so a step shifts the weight
    once per distinct e >= 1, and not for e = 0.
    """
    width = _slot_bytes((t**n).bit_length())
    groups = []
    for out in lumped:
        by_e: dict[int, list[int]] = {}
        for v, e in out:
            by_e.setdefault(e, []).append(v)
        groups.append([(8 * width * e, tuple(targets)) for e, targets in by_e.items()])
    weights = [1] + [0] * (len(groups) - 1)
    for k in range(n + 1):
        if k:
            weights = _step(weights, groups)
        if k > n - rows:
            yield _decode(sum(weights), width)


def _step(weights: list[int], groups: list[list[tuple[int, tuple[int, ...]]]]) -> list[int]:
    """The packed weights after one more letter: each class's weight, shifted
    once for each of its groups (shift, targets) of `_rows`, added into
    each target; the shift-0 group adds the weight itself."""
    nxt = [0] * len(weights)
    for w, out in zip(weights, groups):
        if w:
            for shift, targets in out:
                x = w << shift if shift else w
                for target in targets:
                    nxt[target] += x
    return nxt


def dp_series(sp: StatPattern, t: int, n_max: int) -> ZSeriesTable:
    """Forward dynamic program over the automaton of `_automaton`, lumped:
    every row of the series to order n_max.

    A state's weight sums z^stat over the words that end in it; appending a
    letter multiplies it by z^e, where e counts the occurrences inside the
    window that use its final position.  Words shorter than W - 1 are states
    of their own, so occurrences inside short words are exact as well.  The
    dp steps one weight per class of states with the same future (`_rows`),
    and its predicted work (`series_work`, keeping all n_max + 1 rows) is
    checked first.
    """
    budget.check_work("series", *series_work((sp,), t, n_max, n_max + 1))
    return ZSeriesTable(_rows(_quotient((sp,), t), t, n_max, n_max + 1))


def series_rows(sps: Sequence[StatPattern], t: int, n: int, rows: int) -> list[ZPoly]:
    """The last `rows` of the rows 0..n of the series of the summed
    statistic of `sps`: for each s, the words in {1..t}^k with s
    occurrences of the patterns together.

    The dp of `dp_series` over the lumped automaton of all the patterns at
    once (the widest window sets the states), which keeps and decodes only
    the rows asked for; the z^0 coefficient of row k counts the words of
    length k that avoid them all.  Its predicted work (`series_work`) is
    checked by the plan, as `rank_rows`'s is.
    """
    return list(_rows(_quotient(sps, t), t, n, rows))


# ---------------------------------------------------------------------------
# the rank dp over permutations


def rank_window(pat: Pdvp) -> tuple[int, bool] | None:
    """(K, floats): K the entries before the last of a permutation whose
    ranks decide the occurrences of `pat` that end at its last entry, and
    whether slot 0 floats; or None when the rank dp cannot count `pat`.
    The caller checks that `pat` compares values only
    (`exhaustive.order_only`).

    X_0 and X_m must be P and X_2..X_{m-1} finite, so slots 1..m-1 lie in
    the last K + 1 positions, K the sum of the maxima of X_2..X_{m-1}.  X_1
    must be finite, and then slot 0 lies there too and its maximum counts,
    or P: then slot 0 floats, at any position before slot 1, and the values
    it can take there are the values placed before, a set that the ranks
    of the last K + 1 entries fix.
    """
    x = pat.x
    if not x[0].steps == x[-1].steps == (1,):
        return None
    maxima = [gaps.finite_bound() for gaps in x[1:-1]]
    floats = bool(maxima) and maxima[0] is None and x[1].steps == (1,)
    if floats:
        maxima[0] = 0
    return None if None in maxima else (sum(maxima), floats)


def _falling(x: int, k: int, top: int) -> int:
    """x (x - 1) .. (x - k + 1), or `top` once the product reaches it."""
    out = 1
    for j in range(x, x - k, -1):
        out *= j
        if out >= top:
            return top
    return out


def rank_work(pat: Pdvp, n: int, rows: int) -> tuple[int, int]:
    """The steps and bits (see `budget`) of `rank_rows` of length n keeping
    `rows` rows.

    Depth d = 0..n-1 has P(d, min(d, K)) <= d! states, each with d + 1
    children, so the transitions are sum_j j! for j <= min(n, K) and, past
    K, the falling factorials (j)_(K+1), which sum to (n+1)_(K+2) / (K+2).
    Each product and sum stops at `budget.ceiling()`, so that the
    prediction takes no longer for a huge n or K than the budget lets a
    scan run.  An occurrence ending at position p places slots
    1..m-1 in at most L ways, L the product of the maxima that make K, and
    a floating slot 0 at one of p - 1 positions, so a weight has at most
    c + 1 slots of B bits, c = L n(n-1)/2 or L n and 2^(B-1) above n!.  A
    transition costs a step per L m iterations of its search's loops (per
    L (m + n) when slot 0 floats) and one per CHUNK_BITS of the weight it
    adds; a decoded row costs a step per slot.  Two depths of states are
    held, each with its ranks and weight (an int takes 32 bits per 30 it
    holds), a few weights more, the representative prefix and the kept
    rows.
    """
    top = budget.ceiling()
    keep, floats = rank_window(pat)
    transitions, fact = 0, 1
    for j in range(1, min(n, keep) + 1):
        fact *= j
        transitions += fact
        if transitions >= top:
            break
    if n > keep:
        transitions += _falling(n + 1, keep + 2, top * (keep + 2)) // (keep + 2)
    fact = _falling(n, n, top)
    slot = 8 * _slot_bytes(fact.bit_length() if fact < top else n * n.bit_length())
    ways = min(prod(gaps.finite_bound() for gaps in pat.x[1 + floats:-1]), top)
    c = ways * n * (n - 1) // 2 if floats else ways * n
    weight = (c + 1) * slot
    per = 1 + ways * (pat.m + n * floats) + -(-weight // budget.CHUNK_BITS)
    states = _falling(n, min(n, keep), top)
    held = 2 * states * (budget.RANK_STATE_BITS + min(n, keep) * budget.RANK_BITS)
    held += (2 * states + 4) * weight * 17 // 16 + n * budget.RANK_BITS
    held += rows * ((c + 1) * (budget.COEFF_BITS + slot) + budget.ROW_BITS)
    return min(transitions, top) * per + rows * (c + 1), held


def rank_rows(pat: Pdvp, n: int, rows: int) -> list[ZPoly]:
    """The last `rows` of the rows d = 0..n: for each s, the permutations of
    S_d with s occurrences of `pat`, which `rank_window` admits and whose
    tests compare values only.

    A forward dp over d: a state is the ranks, among the d entries placed,
    of the last min(d, K) entries, and its weight sums z^s over the
    permutations of S_d that end so, carried at z = 2^B (B from n!).  A
    child appends an entry of rank r in 1..d+1 (`_rank_step`).  The sum of
    the weights at depth d is row d.  Its predicted work (`rank_work`) is
    checked by the plan, as `series_rows`'s is.
    """
    keep, floats = rank_window(pat)
    width = _slot_bytes(factorial(n).bit_length())
    search = matcher.search_ending_at(pat, n, n + 1)
    weights = {(): 1}
    sums = [1]
    for j in range(1, n + 1):
        weights = _rank_step(weights, j, keep, search, 8 * width, floats)
        if j > n - rows:
            sums.append(sum(weights.values()))
    return [_decode(x, width) for x in sums[-rows:]]


def _rank_step(weights: dict[tuple[int, ...], int], j: int, keep: int,
               search: Callable[[Sequence[int], int], int], bits: int,
               floats: bool) -> dict[tuple[int, ...], int]:
    """The weights of the rank dp after its j-th entry: each state's
    weight, shifted by e B bits, added into the state of each child.

    Appending rank r shifts every kept rank >= r up by one; the window is
    the shifted ranks and r, and the child keeps its last K.  e, the
    occurrences ending at the new entry, is `search` on one permutation
    whose last entries are the window: with slot 0 floating, the other
    ranks in increasing order and then the window; else the window alone,
    which holds every slot.  The tests compare values only and the window
    fixes the set of values before each of its positions, so every
    permutation with that window has e occurrences there.
    """
    nxt: dict[tuple[int, ...], int] = {}
    for state, w in weights.items():
        for r in range(1, j + 1):
            window = [x + (x >= r) for x in state]
            window.append(r)
            if floats:
                placed = set(window)
                e = search([v for v in range(1, j + 1) if v not in placed] + window, j)
            else:
                e = search(window, len(window))
            child = tuple(window[-keep:]) if keep else ()
            nxt[child] = nxt.get(child, 0) + (w << e * bits if e else w)
    return nxt


# ---------------------------------------------------------------------------
# the closed form, from the series modulo primes


def _primes() -> Iterator[int]:
    """The primes below 2^61, largest first, each found when it is asked
    for: Miller-Rabin to the twelve prime bases up to 37 decides every
    n < 2^64."""
    n = (1 << 61) - 1
    while True:
        d, s = n - 1, 0
        while not d & 1:
            d, s = d >> 1, s + 1
        for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
            x = pow(a, d, n)
            if x == 1 or x == n - 1:
                continue
            for _ in range(s - 1):
                x = x * x % n
                if x == n - 1:
                    break
            else:
                break  # a witnesses that n is composite
        else:
            yield n
        n -= 2


def _berlekamp_massey(seq: list[int], p: int) -> tuple[int, list[int]]:
    """The shortest linear recurrence of seq over GF(p): its length L and
    its connection polynomial C, C[0] = 1, of degree at most L, with
    sum_i C[i] seq[n - i] = 0 for L <= n < len(seq).  When 2L <= len(seq)
    no other C of degree at most L does this (Massey 1969).

    Division-free: C and the copy B kept from the last change of length
    are carried times nonzero factors, so an update is lead C - d x^m B,
    lead the discrepancy B was kept at, and one inverse makes C[0] = 1.
    """
    c, b = [1], [1]
    length, shift, lead = 0, 1, 1
    for n in range(len(seq)):
        d = sum(map(mul, c, reversed(seq[n + 1 - len(c):n + 1]))) % p
        if not d:
            shift += 1
            continue
        new = [x * lead % p for x in c] + [0] * (len(b) + shift - len(c))
        for i, x in enumerate(b, shift):
            new[i] = (new[i] - d * x) % p
        if 2 * length <= n:
            length, b, lead, shift = n + 1 - length, c, d, 1
        else:
            shift += 1
        c = new[:length + 1]  # the rest is 0: C has degree at most L
    inv = pow(c[0], -1, p)
    return length, [x * inv % p for x in c]


def _interpolate(xs: list[int], ys: list[list[int]], p: int) -> list[list[int]]:
    """Newton interpolation over GF(p), one vector at a time: poly[j][i] is
    the z^j coefficient of the polynomial of degree below len(xs) that takes
    the value ys[k][i] at z = xs[k].  The xs increase, so the divided
    differences divide by 1 .. xs[-1] - xs[0], whose inverses come from
    inv(k) = -(p // k) inv(p mod k)."""
    inv = [0, 1]
    for k in range(2, xs[-1] - xs[0] + 1):
        inv.append(-(p // k) * inv[p % k] % p)
    dd = list(ys)
    for k in range(1, len(xs)):
        for i in range(len(xs) - 1, k - 1, -1):
            w = inv[xs[i] - xs[i - k]]
            dd[i] = [(a - b) * w % p for a, b in zip(dd[i], dd[i - 1])]
    poly = [dd[-1]]
    for k in range(len(xs) - 2, -1, -1):  # poly * (z - xs[k]) + dd[k]
        x = xs[k]
        poly = (
            [[(a - x * b) % p for a, b in zip(dd[k], poly[0])]]
            + [[(a - x * b) % p for a, b in zip(u, v)] for u, v in zip(poly, poly[1:])]
            + [poly[-1]]
        )
    return poly


def _crt(residues: list[list[list[int]]], primes: list[int]) -> list[ZPoly]:
    """The rows {z-degree: coefficient} of the polynomial in q and z whose
    coefficients, as balanced residues modulo the product of the primes,
    are those of each poly[j][i] of `_interpolate` (Garner's mixed radix)."""
    radix = [1]  # the products of the primes before each one
    for p in primes:
        radix.append(radix[-1] * p)
    invs = [pow(m, -1, p) for m, p in zip(radix, primes)]
    rows: list[ZPoly] = [{} for _ in residues[0][0]]
    for j, column in enumerate(zip(*residues)):
        for i, values in enumerate(zip(*column)):
            x = 0
            for r, p, m, inv in zip(values, primes, radix, invs):
                x += m * ((r - x) * inv % p)
            if x > radix[-1] // 2:
                x -= radix[-1]
            if x:
                rows[i][j] = x
    return rows


def _certify(rows: list[list[int]], den: list[ZPoly], length: int, t: int,
             held: int) -> RationalGF | None:
    """P / Q if it is the series f of the rows, else None: the exact
    certificate of a candidate Q.

    den is Q, row by q-degree, with Q(0) = 1 and q-degree at most L =
    `length`, and P = (Q f) mod q^L.  The rows are f through q^(2c), c at
    least the L' = max(deg Q', deg P' + 1) of f = P'/Q' in lowest terms.
    Q P' - P Q' = (Q f - P) Q' has q-degree below L + L'; so when L <= c
    and Q f - P vanishes through q^(2c), Q P' = P Q', and P / Q = f.  The
    products are taken with z carried at 2^B: each coefficient of Q f
    through q^(2c) is at most |Q|_1 t^(2c), and 2^(B-1) is above that, so a
    packed row is 0 only when the row is.
    """
    order = len(rows) - 1
    if 2 * length > order:
        return None
    norm = sum(abs(c) for row in den for c in row.values())
    width = _slot_bytes((norm * t**order).bit_length())
    bits = 8 * width
    # packing takes a step per slot, a product of a row of Q by a row of
    # the series one per pair of CHUNK_BITS chunks, decoding one per slot;
    # held are the packed rows, a few products and the rows of P
    row_slots, den_slots = max(map(len, rows)), 1 + max(max(row, default=0) for row in den)
    chunks = -(-bits * row_slots // budget.CHUNK_BITS) * -(-bits * den_slots // budget.CHUNK_BITS)
    p_slots = row_slots + den_slots  # of a row of P
    budget.check_work(
        "solve",
        sum(map(len, rows)) + (length + 1) * (order + 1) * chunks + length * p_slots,
        held + bits * ((order + 7) * row_slots + (length + 7) * den_slots)
        + length * p_slots * (budget.COEFF_BITS + bits * 17 // 16),
    )
    f = [int.from_bytes(b"".join(c.to_bytes(width, "little") for c in row), "little")
         for row in rows]
    q = [sum(c << (bits * j) for j, c in row.items()) for row in den]

    def product(n: int) -> int:  # row n of Q f, packed
        return sum(q[i] * f[n - i] for i in range(min(n, length) + 1))

    if any(map(product, range(length, order + 1))):  # a wrong Q fails at once
        return None
    num = {n: _decode(x, width) for n in range(length) if (x := product(n))}
    return RationalGF(BivarPoly._of(num), BivarPoly._of({i: r for i, r in enumerate(den) if r}))


def solve_transfer_system(sp: StatPattern, t: int) -> RationalGF:
    """The series of the automaton of `_automaton` in lowest terms, P / Q
    with Q(0) = 1, from its first 2c + 1 rows, c the classes of `_lump`.

    Lumped, the series is e_0 (I - qA_c)^-1 1: a rational function whose
    denominator det(I - qA_c) has q-degree at most c and z-degree at most
    D, the sum over the classes of the largest e on a class's edges.  Q
    divides it, so it has the same bounds, and at any point z over any
    GF(p) the rows satisfy a linear recurrence of length at most L, the
    larger of deg Q and deg P + 1 (L <= c).  Berlekamp-Massey on the 2c + 1
    values of the rows at a point finds Q there, mod p, wherever the
    shortest recurrence has length L (at all but finitely many z and p),
    and a shorter recurrence elsewhere.  So round r takes the r-th prime
    below 2^61 and makes one pass over it, at z = 0, 1, .. until D + 1
    points share that prime's longest length or r(D + 3) points are spent
    (the cap grows, so a later prime can make up for points an unlucky one
    lacked); interpolated in z, D + 1 such points give Q mod p.  The primes
    whose longest length is the longest seen combine by CRT into balanced
    residues, and `_certify` proves the candidate exactly or sends the loop
    to the next prime; no prime is evaluated twice.

    Each phase predicts its steps and bits before it starts: the automaton
    and its lumping; once c is known, the dp to order 2c (`_dp_work`); the
    recurrences and interpolations of every round so far; each
    certificate.
    """
    sps = (sp,)
    budget.check_work("solve", *_automaton_work(sps, t))
    lumped = _quotient(sps, t)
    classes, order = len(lumped), 2 * len(lumped)
    steps, held = _dp_work(sps, t, order, order + 1, classes)
    budget.check_work("solve", steps, held)
    rows = [[row.get(j, 0) for j in range(max(row) + 1)]
            for row in _rows(lumped, t, order, order + 1)]
    need = sum(max(e for _, e in out) for out in lumped) + 1
    slots, span = sum(map(len, rows)), max(map(len, rows))
    held += slots * budget.COEFF_BITS
    ready: list[tuple[int, int, list[list[int]]]] = []  # (L, p, Q mod p) per prime
    top = 0  # the longest recurrence found
    for rounds, p in enumerate(_primes(), 1):
        cap = rounds * (need + 2)
        budget.check_work(  # every round so far: a run evaluates the rows and their recurrence
            "solve",
            rounds * (cap * (slots + (order + 1) * (classes + 1)) + need * need * (classes + 2)),
            held + rounds * cap * (classes + 2) * budget.COEFF_BITS,
        )
        longest, points = 0, []  # the points at z = 0, 1, .. that share this prime's longest
        for z in range(cap):
            powers = [1]
            while len(powers) < span:
                powers.append(powers[-1] * z % p)
            length, c = _berlekamp_massey([sum(map(mul, row, powers)) % p for row in rows], p)
            if length > longest:
                longest, points = length, []
            if length == longest:
                points.append((z, c + [0] * (length + 1 - len(c))))
                if len(points) == need:
                    xs, ys = zip(*points)
                    ready.append((length, p, _interpolate(list(xs), list(ys), p)))
                    break
        top = max(top, longest)
        if found := [(prime, poly) for length, prime, poly in ready if length == top]:
            primes, polys = zip(*found)
            gf = _certify(rows, _crt(list(polys), list(primes)), top, t, held)
            if gf is not None:
                return gf
