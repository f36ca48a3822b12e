"""Equinumerosity evidence for the four open bijection questions.

Each report computes a pattern-avoidance sequence and a counterpart sequence
(morphism rises, fixed-endpoint walks, or filtered 2-stack-sortable
permutations) and searches for a constant index offset aligning them.  The
reports present evidence; they do not construct bijections.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from . import exhaustive, transfer
from .dsl import parse_pattern
from .pattern import Mode, make_classical

DEFAULT_WORD_LENGTH_BUDGET = 10**6


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
    a_start: int,
    a_values: tuple[int, ...],
    b_start: int,
    b_values: tuple[int, ...],
    shifts: range,
    min_overlap: int,
) -> tuple[int | None, tuple[bool, ...]]:
    """Find d with A(i) = B(i + d) wherever both are defined."""
    for d in shifts:
        flags = []
        ok = True
        for pos, av in enumerate(a_values):
            i = a_start + pos
            j = i + d - b_start
            if 0 <= j < len(b_values):
                eq = av == b_values[j]
                flags.append(eq)
                ok = ok and eq
        if ok and len(flags) >= min_overlap:
            return d, tuple(flags)
    return None, ()


MORPHISM = {"1": "123", "2": "13", "3": "2"}


def morphism_rises(iterations: int, length_budget: int | None = None) -> tuple[str, int]:
    """Apply 1 -> 123, 2 -> 13, 3 -> 2 the given number of times to "1";
    return the word and its number of rises (positions with w_i < w_{i+1}).
    """
    budget = DEFAULT_WORD_LENGTH_BUDGET if length_budget is None else length_budget
    if iterations < 1:
        raise ValueError("need at least one iteration")
    word = "1"
    for _ in range(iterations):
        word = "".join(MORPHISM[ch] for ch in word)
        if len(word) > budget:
            raise ValueError(f"morphism word exceeds the length budget {budget}")
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


def two_stack_sortable_count(
    n: int,
    require_avoid_132: bool = False,
    require_exactly_one_123: bool = False,
    limit: int = 10,
) -> int:
    """Permutations with s(s(pi)) = identity, optionally restricted to those
    avoiding the order type 132 and containing the order type 123 exactly once.
    """
    if n > limit:
        raise exhaustive.EnumerationLimitError(
            f"n = {n} exceeds the permutation scan limit {limit}"
        )
    identity = tuple(range(1, n + 1))
    walk = exhaustive.prefix_walk(
        n,
        avoid=[_CLASSICAL_132] if require_avoid_132 else [],
        count=[_CLASSICAL_123] if require_exactly_one_123 else [],
        cap=1,
    )
    total = 0
    for pi, counts in walk:
        if counts == (0,):
            continue  # one occurrence of 123 is required, and this has none
        if stack_sort(stack_sort(tuple(pi))) == identity:
            total += 1
    return total


def _avoider_series(pattern_text: str, t: int, n_max: int) -> list[int]:
    sp = transfer.StatPattern(parse_pattern(pattern_text, Mode.WORD))
    return transfer.dp_series(sp, t, n_max).z0_series()


def problem_report(which: int, max_size: int) -> ComparisonReport:
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

    a_vals = tuple(a_nk(n, 2) for n in range(1, max_size + 1))
    iterations = min(max_size, 18)
    b_vals = tuple(morphism_rises(i)[1] for i in range(1, iterations + 1))
    offset, matched = _align(1, a_vals, 1, b_vals, range(-4, 5), min_overlap=4)
    literal = "1231323"
    literal_rises = sum(1 for i in range(len(literal) - 1) if literal[i] < literal[i + 1])
    notes = (
        "B counts rises of the full n-th morphism iterate of 1",
        f"the length-7 example word {literal} has {literal_rises} rises and is "
        f"not the third iterate (length {len(morphism_rises(3)[0])}); "
        "no equality is asserted for this problem",
    )
    return ComparisonReport(
        label="problem 1: V-shaped avoiders vs morphism rises",
        a_label="avoiders a(n, 2)",
        a_start=1,
        a_values=a_vals,
        b_label="rises after n iterations",
        b_start=1,
        b_values=b_vals,
        offset=offset,
        matched=matched,
        notes=notes,
    )


def _report_walks_exact(max_size: int) -> ComparisonReport:
    a_vals = tuple(_avoider_series("12|P,{1},P|(1,2,{2})|P,P", 4, max_size))
    b_vals = tuple(
        walk_count(7, 2 * n + 3, 1, 4, StepRule.EXACTLY_ONE) for n in range(max_size + 1)
    )
    offset, matched = _align(0, a_vals, 0, b_vals, range(-4, 5), min_overlap=6)
    return ComparisonReport(
        label="problem 2: four-letter avoiders vs unit-step walks on {1..7}",
        a_label="avoiders over t=4",
        a_start=0,
        a_values=a_vals,
        b_label="walks 1 -> 4 in 2n+3 steps",
        b_start=0,
        b_values=b_vals,
        offset=offset,
        matched=matched,
    )


def _report_walks_at_most(max_size: int) -> ComparisonReport:
    a_vals = tuple(_avoider_series("12|P,{1,2},P|(1,2,{2})|P,P", 3, max_size))
    b_vals = tuple(
        walk_count(3, length, 1, 3, StepRule.AT_MOST_ONE)
        for length in range(1, max_size + 3)
    )
    offset, matched = _align(0, a_vals, 1, b_vals, range(-4, 5), min_overlap=6)
    return ComparisonReport(
        label="problem 3: three-letter avoiders vs lazy walks on {1..3}",
        a_label="avoiders over t=3",
        a_start=0,
        a_values=a_vals,
        b_label="walks 1 -> 3 with steps in {-1,0,1}",
        b_start=1,
        b_values=b_vals,
        offset=offset,
        matched=matched,
    )


def _report_two_stack(max_size: int) -> ComparisonReport:
    from .formulas import words123_recurrence

    a_vals = tuple(words123_recurrence(n) for n in range(1, max_size + 1))
    b_vals = tuple(
        two_stack_sortable_count(n, True, True, limit=max(max_size, 10))
        for n in range(1, max_size + 1)
    )
    offset, matched = _align(1, a_vals, 1, b_vals, range(-3, 4), min_overlap=4)
    verdict = (
        "sequences align under the reported offset"
        if offset is not None
        else "no offset in [-3, 3] aligns the sequences"
    )
    return ComparisonReport(
        label="problem 4: three-letter avoiders vs filtered 2-stack-sortable permutations",
        a_label="avoiders over t=3",
        a_start=1,
        a_values=a_vals,
        b_label="2-stack-sortable, 132-avoiding, exactly one 123",
        b_start=1,
        b_values=b_vals,
        offset=offset,
        matched=matched,
        notes=(verdict,),
    )
