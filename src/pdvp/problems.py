"""Equinumerosity evidence for the four open bijection questions.

Each report computes a pattern-avoidance sequence and a counterpart sequence
(morphism rises, fixed-endpoint walks, or filtered 2-stack-sortable
permutations) and searches for a constant index offset aligning them.  The
reports present evidence; they do not construct bijections.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field, replace
from enum import Enum

from . import budget, exhaustive, transfer
from .dsl import parse_pattern
from .pattern import Mode, make_classical


class StepRule(Enum):
    EXACTLY_ONE = "exactly-one"
    AT_MOST_ONE = "at-most-one"


@dataclass(frozen=True)
class ComparisonReport:
    label: str
    a_label: str
    a_start: int
    a_values: tuple[int, ...]
    b_label: str
    b_start: int
    b_values: tuple[int, ...]
    offset: int | None
    matched: tuple[bool, ...]
    notes: tuple[str, ...] = field(default_factory=tuple)

    def to_text(self) -> str:
        lines = [self.label]
        lines.append(f"  A ({self.a_label}), indices from {self.a_start}:")
        lines.append("    " + ", ".join(str(v) for v in self.a_values))
        lines.append(f"  B ({self.b_label}), indices from {self.b_start}:")
        lines.append("    " + ", ".join(str(v) for v in self.b_values))
        if self.offset is None:
            lines.append("  no constant offset aligns the sequences")
        else:
            shift = f"i + {self.offset}" if self.offset >= 0 else f"i - {-self.offset}"
            lines.append(
                f"  offset {self.offset}: A(i) = B({shift}) on all "
                f"{sum(self.matched)} overlapping entries"
            )
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)

    def to_json_obj(self) -> dict:
        return {
            "label": self.label,
            "a": {
                "label": self.a_label,
                "start": self.a_start,
                "values": [str(v) for v in self.a_values],
            },
            "b": {
                "label": self.b_label,
                "start": self.b_start,
                "values": [str(v) for v in self.b_values],
            },
            "offset": self.offset,
            "matched": list(self.matched),
            "notes": list(self.notes),
        }


def _align(
    label: str,
    a: tuple[str, int, tuple[int, ...]],
    b: tuple[str, int, tuple[int, ...]],
    shifts: range,
    min_overlap: int,
    notes: tuple[str, ...] = (),
) -> ComparisonReport:
    """Report A and B, each given as (label, start, values), with the first d
    in shifts such that A(i) = B(i + d) on at least min_overlap indices where
    both are defined; offset None and no flags if no shift aligns them."""
    _, a_start, a_values = a
    _, b_start, b_values = b
    for offset in shifts:
        matched = tuple(
            av == b_values[i + offset - b_start]
            for i, av in enumerate(a_values, a_start)
            if 0 <= i + offset - b_start < len(b_values)
        )
        if all(matched) and len(matched) >= min_overlap:
            break
    else:
        offset, matched = None, ()
    return ComparisonReport(label, *a, *b, offset, matched, notes)


MORPHISM = {"1": "123", "2": "13", "3": "2"}


def morphism_rises(iterations: int) -> tuple[str, int]:
    """Apply 1 -> 123, 2 -> 13, 3 -> 2 the given number of times to "1";
    return the word and its number of rises (positions with w_i < w_{i+1}).

    The rules map letter counts (c, c, c) to (2c, 2c, 2c), so the k-th iterate
    has 3 * 2^(k-1) letters; their steps and bits are checked before any is
    built (see `budget`).
    """
    if iterations < 1:
        raise ValueError("need at least one iteration")
    length = 3 * budget.power(2, iterations - 1)
    budget.check_work("morphism word", 3 * length, length * budget.LETTER_BITS)
    word = "1"
    for _ in range(iterations):
        word = "".join(MORPHISM[ch] for ch in word)
    rises = sum(1 for i in range(len(word) - 1) if word[i] < word[i + 1])
    return word, rises


def walk_count(
    alphabet_max: int, length: int, start: int, end: int, step_rule: StepRule
) -> int:
    """Walks w_0 .. w_length over {1..alphabet_max} with fixed endpoints;
    steps satisfy |w_i - w_{i-1}| = 1 or <= 1 depending on the rule.
    """
    if alphabet_max < 1 or length < 0:
        raise ValueError("walk parameters must be positive")
    if not (1 <= start <= alphabet_max and 1 <= end <= alphabet_max):
        raise ValueError("endpoints must lie in the alphabet")
    cur = {start: 1}
    at_most = step_rule is StepRule.AT_MOST_ONE
    for _ in range(length):
        nxt: dict[int, int] = {}
        for v, c in cur.items():
            steps = (v - 1, v, v + 1) if at_most else (v - 1, v + 1)
            for u in steps:
                if 1 <= u <= alphabet_max:
                    nxt[u] = nxt.get(u, 0) + c
        cur = nxt
    return cur.get(end, 0)


def stack_sort(pi: tuple[int, ...]) -> tuple[int, ...]:
    """One pass through an increasing stack: s(L n R) = s(L) s(R) n."""
    if len(pi) <= 1:
        return tuple(pi)
    top = max(pi)
    at = pi.index(top)
    return stack_sort(pi[:at]) + stack_sort(pi[at + 1:]) + (top,)


_CLASSICAL_132 = make_classical((1, 3, 2))
_CLASSICAL_123 = make_classical((1, 2, 3))


def two_stack_sortable_counts(
    n_max: int,
    require_avoid_132: bool = False,
    require_exactly_one_123: bool = False,
) -> list[int]:
    """For n = 0..n_max, the permutations of S_n with s(s(pi)) sorted (the
    2-stack-sortable ones), optionally restricted to those avoiding the
    order type 132 and containing the order type 123 exactly once.

    Both patterns are classical, so one walk over the generating tree to
    depth n_max settles every length; its entries are order-isomorphic to
    the permutations, which stack sorting only compares.
    """
    avoid = [_CLASSICAL_132] if require_avoid_132 else []
    count = _CLASSICAL_123 if require_exactly_one_123 else None
    plan = exhaustive.plan_scan(avoid, count, None, n_max, each_length=True)
    totals = [0] * (n_max + 1)
    totals[0] = int(not require_exactly_one_123)  # the empty permutation, which no family holds
    for entries, q, counts, values in exhaustive.prefix_walk(plan, cap=1):
        for v, c in zip(values, counts):
            if require_exactly_one_123 and c == 0:
                continue  # one occurrence of 123 is required, and this has none
            entries[q - 1] = v
            pi = tuple(entries)
            if stack_sort(stack_sort(pi)) == tuple(sorted(pi)):
                totals[len(pi)] += 1
    return totals


def _avoider_series(pattern_text: str, t: int, n_max: int) -> list[int]:
    sp = transfer.StatPattern(parse_pattern(pattern_text, Mode.WORD))
    return transfer.dp_series(sp, t, n_max).z0_series()


def problem_report(which: int, max_size: int) -> ComparisonReport:
    if max_size < 0:
        raise ValueError(f"size must be non-negative, got {max_size}")
    if which == 1:
        return _report_morphism(max_size)
    if which == 2:
        return _report_walks_exact(max_size)
    if which == 3:
        return _report_walks_at_most(max_size)
    if which == 4:
        return _report_two_stack(max_size)
    raise ValueError("which must be 1..4")


def _report_morphism(max_size: int) -> ComparisonReport:
    from .formulas import a_nk

    digits = sys.get_int_max_str_digits()  # the largest value, 3*2^(N-3), must print
    allowed = ((10**digits - 1) // 3).bit_length() + 2
    if digits and max_size > allowed:
        raise budget.EnumerationLimitError(
            f"size {max_size} exceeds the allowed size {allowed}: "
            f"3*2^{max_size - 3} has more than {digits} digits")
    a_vals = tuple(a_nk(n, 2) for n in range(1, max_size + 1))
    iterations = min(max_size, 18)
    b_vals = tuple(morphism_rises(i)[1] for i in range(1, iterations + 1))
    literal = "1231323"
    literal_rises = sum(1 for i in range(len(literal) - 1) if literal[i] < literal[i + 1])
    notes = (
        "B counts rises of the full n-th morphism iterate of 1",
        f"the length-7 example word {literal} has {literal_rises} rises and is "
        f"not the third iterate (length {len(morphism_rises(3)[0])}); "
        "no equality is asserted for this problem",
    )
    return _align("problem 1: V-shaped avoiders vs morphism rises",
                  ("avoiders a(n, 2)", 1, a_vals), ("rises after n iterations", 1, b_vals),
                  range(-4, 5), 4, notes)


def _report_walks_exact(max_size: int) -> ComparisonReport:
    a_vals = tuple(_avoider_series("12|P,{1},P|(1,2,{2})|P,P", 4, max_size))
    b_vals = tuple(
        walk_count(7, 2 * n + 3, 1, 4, StepRule.EXACTLY_ONE) for n in range(max_size + 1)
    )
    return _align("problem 2: four-letter avoiders vs unit-step walks on {1..7}",
                  ("avoiders over t=4", 0, a_vals), ("walks 1 -> 4 in 2n+3 steps", 0, b_vals),
                  range(-4, 5), 6)


def _report_walks_at_most(max_size: int) -> ComparisonReport:
    a_vals = tuple(_avoider_series("12|P,{1,2},P|(1,2,{2})|P,P", 3, max_size))
    b_vals = tuple(
        walk_count(3, length, 1, 3, StepRule.AT_MOST_ONE)
        for length in range(1, max_size + 3)
    )
    return _align("problem 3: three-letter avoiders vs lazy walks on {1..3}",
                  ("avoiders over t=3", 0, a_vals),
                  ("walks 1 -> 3 with steps in {-1,0,1}", 1, b_vals),
                  range(-4, 5), 6)


def _report_two_stack(max_size: int) -> ComparisonReport:
    from .formulas import words123_recurrence

    b_vals = tuple(two_stack_sortable_counts(max_size, True, True)[1:])
    a_vals = tuple(words123_recurrence(n) for n in range(1, max_size + 1))
    report = _align(
        "problem 4: three-letter avoiders vs filtered 2-stack-sortable permutations",
        ("avoiders over t=3", 1, a_vals),
        ("2-stack-sortable, 132-avoiding, exactly one 123", 1, b_vals),
        range(-3, 4), 4)
    verdict = (
        "sequences align under the reported offset"
        if report.offset is not None
        else "no offset in [-3, 3] aligns the sequences"
    )
    return replace(report, notes=(verdict,))
