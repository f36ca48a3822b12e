"""Named verification checks: recompute every closed-form and sequence claim
about these patterns from scratch and compare against the recorded reference
values.

Each check recomputes its quantities with the exact machinery (brute-force
scans, the dynamic program, the symbolic solver) and reports agreement line
by line.  A failing check is informative output, not a crash: three reference
values in this family are contradicted by exhaustive enumeration (see the
k4n, ank and d4 checks), and the checks document the computed truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import exhaustive, formulas, transfer
from .dsl import parse_pattern
from .pattern import Mode, Pdvp, make_classical, make_gp
from .transfer import ONE, Q, RationalGF, StatPattern, Z

# ---------------------------------------------------------------------------
# statistic fixtures

# rise by 2 between positions exactly 2 apart
S_PATTERN = "12|P,{2},P|(1,2,{2})|P,P"
# rise by 2 between adjacent positions
T_PATTERN = "12|P,{1},P|(1,2,{2})|P,P"
# rise by 2 within distance 2
P_PATTERN = "12|P,{1,2},P|(1,2,{2})|P,P"
# rise by 2 within distance 2, odd values only
R_PATTERN = "12|P,{1,2},P|(1,2,{2})|O,P"

# simultaneous-avoidance pair: adjacent rise by 1, distance-2 rise by 2
PAIR_PATTERNS = ("12|P,{1},P|(1,2,{1})|P,P", "12|P,{2},P|(1,2,{2})|P,P")

STAT_ALPHABETS = {
    "a3": (S_PATTERN, 3),
    "a4": (S_PATTERN, 4),
    "b3": (T_PATTERN, 3),
    "b4": (T_PATTERN, 4),
    "d3": (P_PATTERN, 3),
    "d4": (P_PATTERN, 4),
    "e4": (R_PATTERN, 4),
}

# reference avoidance series (coefficient of z^0); d4's reference values are
# contradicted by enumeration, which the d4 check reports
REFERENCE_Z0 = {
    "a3": [1, 3, 9, 24, 64, 168, 441],
    "a4": [1, 4, 16, 56, 196, 672, 2304],
    "b3": [1, 3, 8, 21, 55, 144, 377],
    "b4": [1, 4, 14, 48, 164, 560, 1912],  # OEIS A007070
    "d3": [1, 3, 8, 20, 49, 119, 288],     # OEIS A048739
    "d4": [1, 4, 14, 46, 156, 528, 1800],
    "e4": [1, 4, 15, 54, 193, 688],
}

WORDS123_REFERENCE = [3, 7, 14, 26, 46, 79, 133, 221]  # OEIS A079921
ANK_K2_REFERENCE = [3, 6, 12, 24, 48, 96, 192]         # OEIS A042950, n = 3..9


def stat_pattern(name: str) -> StatPattern:
    text, _ = STAT_ALPHABETS[name]
    return StatPattern(parse_pattern(text, Mode.WORD))


def reference_gf(name: str) -> RationalGF:
    """Reference closed forms for the bivariate series (the consistent ones)."""
    if name == "a3":
        den = (ONE - Q**2 * (ONE - Z)) * (ONE - (3 * Q + Q**2 * (Z - ONE)))
        return RationalGF(ONE, den)
    if name == "a4":
        den = ONE - 4 * Q - 8 * Q**3 * (Z - ONE) - 4 * Q**4 * (Z - ONE) ** 2
        return RationalGF(ONE, den)
    if name == "b3":
        return RationalGF(ONE, ONE - 3 * Q - Q**2 * (Z - ONE))
    if name == "b4":
        return RationalGF(ONE, ONE - 4 * Q - 2 * Q**2 * (Z - ONE))
    if name == "e4":
        den = (
            ONE
            - 4 * Q
            - (Z - ONE) * Q**2
            - 2 * (Z * Z - ONE) * Q**3
            - Z * (Z - ONE) ** 2 * Q**4
        )
        return RationalGF(ONE, den)
    raise KeyError(name)


def d4_display_bivariate() -> RationalGF:
    """First of the two conflicting closed-form displays for the d4 series."""
    num = ONE + 2 * Q**2 * (ONE - Z) - 2 * Q**3 * (Z - ONE) ** 2
    den = ONE - 4 * Q - 8 * Q**2 * (Z - ONE) - 4 * Q**4 * (Z - ONE) ** 2
    return RationalGF(num, den)


def d4_display_z0() -> RationalGF:
    """Second display (already specialised at z = 0)."""
    num = ONE + 2 * Q**2 - 2 * Q**3
    den = ONE - 4 * Q + 8 * Q**3 - 4 * Q**4
    return RationalGF(num, den)


def fib_series_gf() -> RationalGF:
    """(1+q)/(1-q-q^2): coefficients 1, 2, 3, 5, 8, .. = fib(n+2)."""
    return RationalGF(ONE + Q, ONE - Q - Q**2)


def fib_even_gf() -> RationalGF:
    """1/(1-3q+q^2): coefficients fib(2n+2) = 1, 3, 8, 21, 55, .."""
    return RationalGF(ONE, ONE - 3 * Q + Q**2)


def parity_position_pattern(base) -> Pdvp:
    """Base pattern pinned to odd positions and even values."""
    b = make_classical(base).base
    m = len(b)
    from .intset import EVENS, ODDS

    return Pdvp(
        Mode.PERMUTATION,
        b,
        (ODDS,) + (EVENS,) * m,
        (),
        (EVENS,) * m,
    )


def mod4_pattern() -> Pdvp:
    """Rise pattern pinned to positions and values congruent mod 4."""
    return parse_pattern("12|O,4P,P|(1,2,4P)|O,P")


# ---------------------------------------------------------------------------
# check plumbing


@dataclass
class CheckResult:
    name: str
    ok: bool
    lines: list[str]


class _Tally:
    def __init__(self):
        self.ok = True
        self.lines: list[str] = []

    def expect(self, label: str, got, want):
        good = got == want
        self.ok = self.ok and good
        if good:
            self.lines.append(f"  ok: {label} = {got}")
        else:
            self.lines.append(f"  MISMATCH: {label}: computed {got}, reference {want}")

    def note(self, text: str):
        self.lines.append(f"  {text}")


@lru_cache(maxsize=None)
def _classical_rows(base: tuple[int, ...], kmax: int):
    return {
        k: dict(exhaustive.perm_distribution(make_classical(base), k).counts)
        for k in range(kmax + 1)
    }


def check_eq1() -> CheckResult:
    """Occurrence-count transfer to even lengths, all occurrence counts."""
    t = _Tally()
    for base in ((1, 2), (2, 1), (1, 2, 3)):
        a_row = _classical_rows(base, 3)
        pat = parity_position_pattern(base)
        for n in (1, 2, 3):
            table = exhaustive.perm_distribution(pat, 2 * n)
            ms = sorted(set(table.counts) | {0, 1, 2})
            for m in ms:
                t.expect(
                    f"base {''.join(map(str, base))}, length {2 * n}, m={m}",
                    formulas.b_even(a_row, n, m),
                    table[m],
                )
    # avoidance specialisations: constant row for 12, Catalan row for 123
    mono_row = {k: {0: 1} for k in range(4)}
    cat_row = {k: {0: formulas.catalan(k)} for k in range(4)}
    for n in (1, 2, 3):
        t.expect(
            f"monotone specialisation, length {2 * n}",
            formulas.b_even(mono_row, n, 0),
            exhaustive.perm_distribution(parity_position_pattern((1, 2)), 2 * n)[0],
        )
        t.expect(
            f"Catalan specialisation, length {2 * n}",
            formulas.b_even(cat_row, n, 0),
            exhaustive.perm_distribution(parity_position_pattern((1, 2, 3)), 2 * n)[0],
        )
    return CheckResult("eq1", t.ok, t.lines)


@lru_cache(maxsize=None)
def _k4n_brute(n: int) -> int:
    return exhaustive.perm_multi_avoiders([mod4_pattern()], 4 * n)


def check_k4n() -> CheckResult:
    """Mod-4 avoidance closed form against exhaustive counts over S_4 and S_8."""
    t = _Tally()
    for n in (1, 2):
        brute = _k4n_brute(n)
        t.expect(f"closed form at n={n} vs S_{4 * n} scan", formulas.k4n(n), brute)
        t.note(
            f"regrouped closed form k4n_exact({n}) = {formulas.k4n_exact(n)}"
            f" (scan: {brute})"
        )
    if not t.ok:
        t.note("the recorded closed form undercounts; k4n_exact matches the scans")
    return CheckResult("k4n", t.ok, t.lines)


_CONS_231 = make_gp("231")
_CONS_132 = make_gp("132")


def _shifted_rise_pattern(k: int) -> Pdvp:
    return parse_pattern(f"12|P,{{{k}}},P|(1,2,{{1}})|P,P")


@lru_cache(maxsize=None)
def _ank_scan(n: int) -> dict[int, tuple[int, int]]:
    """For k = 1..3: (avoider count, exactly-one count) over V-permutations."""
    ks = (1, 2, 3)
    avoid = {k: 0 for k in ks}
    exactly_one = {k: 0 for k in ks}
    rises = [_shifted_rise_pattern(k) for k in ks]
    for _, counts in exhaustive.prefix_walk(n, avoid=[_CONS_231, _CONS_132], count=rises):
        for k, c in zip(ks, counts):
            if c == 0:
                avoid[k] += 1
            elif c == 1:
                exactly_one[k] += 1
    return {k: (avoid[k], exactly_one[k]) for k in ks}


def check_ank() -> CheckResult:
    """V-shaped avoiders: piecewise formula, the k=2 slice, and the
    exactly-one-occurrence identity."""
    t = _Tally()
    for n in range(1, 10):
        scan = _ank_scan(n)
        for k in (1, 2, 3):
            t.expect(f"a({n},{k}) vs scan", formulas.a_nk(n, k), scan[k][0])
    t.expect(
        "k=2 slice, n=3..9",
        [formulas.a_nk(n, 2) for n in range(3, 10)],
        ANK_K2_REFERENCE,
    )
    for n in range(1, 10):
        scan = _ank_scan(n)
        for k in (1, 2, 3):
            t.expect(
                f"exactly-one count at n={n}, k={k} vs 2^(n-1) - a(n,{k})",
                scan[k][1],
                2 ** (n - 1) - formulas.a_nk(n, k),
            )
    if not t.ok:
        t.note(
            "the exactly-one identity needs every V-permutation to hold at most "
            "one occurrence; that is true for k >= 2 but fails for k = 1 "
            "(the increasing permutation has n-1 adjacent rises by 1)"
        )
    return CheckResult("ank", t.ok, t.lines)


@lru_cache(maxsize=None)
def _dp_table(name: str, n_max: int) -> transfer.ZSeriesTable:
    text, t = STAT_ALPHABETS[name]
    return transfer.dp_series(StatPattern(parse_pattern(text, Mode.WORD)), t, n_max)


@lru_cache(maxsize=None)
def _solver_gf(name: str) -> RationalGF:
    text, t = STAT_ALPHABETS[name]
    return transfer.solve_transfer_system(StatPattern(parse_pattern(text, Mode.WORD)), t)


def _dp_matches_brute(t: _Tally, name: str, n_scan: int):
    text, alpha = STAT_ALPHABETS[name]
    pat = parse_pattern(text, Mode.WORD)
    dp = _dp_table(name, n_scan)
    for n in range(n_scan + 1):
        brute = exhaustive.word_distribution(pat, alpha, n)
        t.expect(
            f"{name} dp row n={n} vs word scan",
            dp.z_poly(n),
            dict(brute.counts),
        )


def check_a3() -> CheckResult:
    t = _Tally()
    dp = _dp_table("a3", 14)
    _dp_matches_brute(t, "a3", 9)
    t.expect(
        "a3 dp vs closed form, order 14",
        dp == transfer.expand_rational(reference_gf("a3"), 14),
        True,
    )
    z0 = dp.z0_series()
    shifted = formulas.FibConvention.SERIES_SHIFTED
    for n in range(8):
        t.expect(
            f"a3 avoiders at even length {2 * n} vs F(2n)^2",
            z0[2 * n] if 2 * n <= 14 else None,
            shifted.value_at(2 * n) ** 2,
        )
        if 2 * n + 1 <= 14:
            t.expect(
                f"a3 avoiders at odd length {2 * n + 1} vs F(2n)F(2n+2)",
                z0[2 * n + 1],
                shifted.value_at(2 * n) * shifted.value_at(2 * n + 2),
            )
    for n in range(7):
        for s in range(n + 1):
            t.expect(
                f"a3 even coefficient (n={n}, s={s})",
                formulas.a3_coefficient_even(n, s),
                dp.coefficient(2 * n, s),
            )
            if 2 * n + 1 <= 14:
                t.expect(
                    f"a3 odd coefficient (n={n}, s={s})",
                    formulas.a3_coefficient_odd(n, s),
                    dp.coefficient(2 * n + 1, s),
                )
    return CheckResult("a3", t.ok, t.lines)


def _solver_check(name: str, order: int = 14, gf_order: int = 34) -> CheckResult:
    t = _Tally()
    dp = _dp_table(name, order)
    solved = _solver_gf(name)
    t.expect(
        f"{name} solver expansion equals dp, order {order}",
        transfer.expand_rational(solved, order) == dp,
        True,
    )
    want = REFERENCE_Z0[name]
    t.expect(f"{name} avoidance series", dp.z0_series()[: len(want)], want)
    if name in ("a3", "a4", "b3", "b4", "e4"):
        t.expect(
            f"{name} solver equals reference closed form, order {gf_order}",
            transfer.gf_equal_series(solved, reference_gf(name), gf_order),
            True,
        )
    return CheckResult(name, t.ok, t.lines)


def check_a4() -> CheckResult:
    return _solver_check("a4")


def check_b3() -> CheckResult:
    res = _solver_check("b3")
    t = _Tally()
    t.lines = res.lines
    t.ok = res.ok
    # the avoidance slice is also the even-index Fibonacci series
    t.expect(
        "b3 avoidance slice vs 1/(1-3q+q^2), order 14",
        _dp_table("b3", 14).z0_series(),
        [
            transfer.expand_rational(fib_even_gf(), 14).coefficient(n, 0)
            for n in range(15)
        ],
    )
    return CheckResult("b3", t.ok, t.lines)


def check_b4() -> CheckResult:
    return _solver_check("b4")


def check_d3() -> CheckResult:
    return _solver_check("d3")


def check_d4() -> CheckResult:
    """The two recorded d4 displays conflict; adjudicate against the dp oracle."""
    t = _Tally()
    dp = _dp_table("d4", 14)
    solved = _solver_gf("d4")
    t.expect(
        "d4 solver expansion equals dp, order 14",
        transfer.expand_rational(solved, 14) == dp,
        True,
    )
    want = REFERENCE_Z0["d4"]
    t.expect("d4 avoidance series", dp.z0_series()[: len(want)], want)
    biv = transfer.expand_rational(d4_display_bivariate(), 8) == _dp_table("d4", 8)
    z0 = (
        transfer.expand_rational(d4_display_z0(), 8).z0_series()
        == _dp_table("d4", 8).z0_series()
    )
    t.note(f"bivariate display matches dp: {biv}")
    t.note(f"z=0 display matches dp: {z0}")
    t.expect("exactly one display matches the dp oracle", int(biv) + int(z0), 1)
    if not t.ok:
        computed = dp.z0_series()[:8]
        t.note(f"computed avoidance series: {computed}")
        pat = parse_pattern(STAT_ALPHABETS["d4"][0], Mode.WORD)
        scans = [exhaustive.word_multi_avoiders([pat], 4, n) for n in range(8)]
        if scans == computed:
            t.note("the computed series is confirmed by exhaustive word scans")
        else:
            t.expect("d4 avoidance series vs word scans, n <= 7", computed, scans)
    return CheckResult("d4", t.ok, t.lines)


def check_e4() -> CheckResult:
    return _solver_check("e4")


def check_words123() -> CheckResult:
    t = _Tally()
    pats = [parse_pattern(p, Mode.WORD) for p in PAIR_PATTERNS]
    brute = [exhaustive.word_multi_avoiders(pats, 3, n) for n in range(1, 13)]
    t.expect("pair avoidance n=1..8", brute[:8], WORDS123_REFERENCE)
    t.expect(
        "scan vs recursion, n <= 12",
        brute,
        [formulas.words123_recurrence(n) for n in range(1, 13)],
    )
    t.expect(
        "scan vs closed form, n <= 12",
        brute,
        [formulas.words123_avoiders(n) for n in range(1, 13)],
    )
    t.expect(
        "recursion vs closed form, n <= 40",
        [formulas.words123_recurrence(n) for n in range(1, 41)],
        [formulas.words123_avoiders(n) for n in range(1, 41)],
    )
    return CheckResult("words123", t.ok, t.lines)


def check_fib_bij() -> CheckResult:
    t = _Tally()
    for n in range(13):
        t.expect(
            f"three-letter words avoiding factor 13 (n={n}) vs binary words "
            f"avoiding 11 (length {2 * n})",
            formulas.words3_avoiding_13_count(n),
            formulas.binary_avoiding_11_count(2 * n),
        )
    return CheckResult("fib-bij", t.ok, t.lines)


CHECKS = {
    "eq1": check_eq1,
    "k4n": check_k4n,
    "ank": check_ank,
    "a3": check_a3,
    "a4": check_a4,
    "b3": check_b3,
    "b4": check_b4,
    "d3": check_d3,
    "d4": check_d4,
    "e4": check_e4,
    "words123": check_words123,
    "fib-bij": check_fib_bij,
}


def run_check(name: str) -> CheckResult:
    if name not in CHECKS:
        raise KeyError(f"unknown check {name!r}; known: {', '.join(CHECKS)}")
    return CHECKS[name]()


def run_all() -> list[CheckResult]:
    return [func() for func in CHECKS.values()]
