import sys
import time
from collections import Counter
from itertools import permutations, product

import pytest

from conftest import naive_occurrences

from pdvp import problems
from pdvp.budget import EnumerationLimitError
from pdvp.matcher import PermSequence, avoids
from pdvp.pattern import make_classical
from pdvp.problems import (
    StepRule,
    morphism_rises,
    problem_report,
    stack_sort,
    two_stack_sortable_counts,
    walk_count,
)


def test_morphism_first_iterates():
    assert morphism_rises(1) == ("123", 2)
    assert morphism_rises(2) == ("123132", 3)
    word, rises = morphism_rises(3)
    assert len(word) == 12 and rises == 6


def test_morphism_budget(monkeypatch):
    # the iterate's length comes from its letter counts, before any letter
    # is built: 3 * 2^39 letters at the 40th
    built = []
    monkeypatch.setattr(problems, "MORPHISM", built)
    start = time.perf_counter()
    with pytest.raises(EnumerationLimitError, match=r"^morphism word of \d+ steps exceeds the budget"):
        morphism_rises(40)
    with pytest.raises(EnumerationLimitError, match=r"^morphism word of at least 2\^\d+ steps"):
        morphism_rises(10**18)
    assert time.perf_counter() - start < 1


def test_walk_families():
    assert [walk_count(7, 2 * n + 3, 1, 4, StepRule.EXACTLY_ONE) for n in range(7)] == [
        1, 4, 14, 48, 164, 560, 1912,
    ]
    assert [walk_count(3, length, 1, 3, StepRule.AT_MOST_ONE) for length in range(2, 9)] == [
        1, 3, 8, 20, 49, 119, 288,
    ]
    # unreachable under parity: 1 -> 4 needs an odd number of unit steps
    assert walk_count(7, 2, 1, 4, StepRule.EXACTLY_ONE) == 0
    assert walk_count(5, 1, 1, 4, StepRule.EXACTLY_ONE) == 0


def test_walk_matrix_power_recurrence():
    # one-step peel-off: N(L, end) = sum over neighbours of N(L-1, .)
    amax = 5
    for rule in StepRule:
        for end in range(1, amax + 1):
            lhs = walk_count(amax, 6, 2, end, rule)
            steps = (-1, 0, 1) if rule is StepRule.AT_MOST_ONE else (-1, 1)
            rhs = sum(
                walk_count(amax, 5, 2, end - d, rule)
                for d in steps
                if 1 <= end - d <= amax
            )
            assert lhs == rhs


def test_stack_sort_examples():
    assert stack_sort((2, 3, 1)) == (2, 1, 3)
    assert stack_sort((1, 2, 3, 4)) == (1, 2, 3, 4)
    assert stack_sort((3, 2, 1)) == (1, 2, 3)
    assert stack_sort(()) == ()


def test_stack_sort_preserves_content():
    assert sorted(stack_sort((4, 1, 5, 3, 2))) == [1, 2, 3, 4, 5]


def test_sorted_iff_avoids_231():
    pat = make_classical((2, 3, 1))
    for n in range(1, 8):
        identity = tuple(range(1, n + 1))
        for pi in permutations(identity):
            assert (stack_sort(pi) == identity) == avoids(pat, PermSequence(pi))


def test_two_stack_sortable_counts():
    assert two_stack_sortable_counts(6) == [1, 1, 2, 6, 22, 91, 408]
    assert two_stack_sortable_counts(1, True, True) == [0, 0]
    assert two_stack_sortable_counts(3, True, True)[3] == 1


def test_two_stack_sortable_count_equals_per_object_recount():
    p132, p123 = make_classical((1, 3, 2)), make_classical((1, 2, 3))
    got = {flags: two_stack_sortable_counts(7, *flags)
           for flags in product((False, True), repeat=2)}
    for n in range(8):
        identity = tuple(range(1, n + 1))
        want = Counter()
        for pi in permutations(identity):
            if stack_sort(stack_sort(pi)) != identity:
                continue
            seq = PermSequence(pi)
            avoids_132 = not naive_occurrences(p132, seq)
            one_123 = len(naive_occurrences(p123, seq)) == 1
            for flags in product((False, True), repeat=2):
                want[flags] += (avoids_132 or not flags[0]) and (one_123 or not flags[1])
        for flags in product((False, True), repeat=2):
            assert got[flags][n] == want[flags], (n, flags)


def test_two_stack_sortable_limit(monkeypatch):
    monkeypatch.delenv("PDVP_BUDGET", raising=False)
    # the generating tree to S_12: 1! + 2! + ... + 12!
    with pytest.raises(EnumerationLimitError,
                       match="^scan of 522956313 steps exceeds the budget 100000000$"):
        two_stack_sortable_counts(12)


def test_problem_four_refuses_sizes_above_the_scan_limit_at_once(monkeypatch):
    monkeypatch.delenv("PDVP_BUDGET", raising=False)
    start = time.perf_counter()
    # one walk over the generating tree of S_1..S_12: 1! + 2! + ... + 12!
    with pytest.raises(EnumerationLimitError, match=r"^scan of 522956313 steps exceeds "
                       r"the budget 100000000$"):
        problem_report(4, 12)
    assert time.perf_counter() - start < 1
    assert len(problem_report(4, 11).b_values) == 11


def _prints(size):
    """Whether problem 1's largest value at this size, 3 * 2^(size - 3), converts to str."""
    try:
        str(3 * 2 ** (size - 3))
    except ValueError:
        return False
    return True


def test_problem_one_refuses_sizes_whose_values_cannot_print():
    lo, hi = 3, 10 * sys.get_int_max_str_digits()  # _prints(lo) and not _prints(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if _prints(mid) else (lo, mid)
    allowed = lo
    start = time.perf_counter()
    for size in (allowed + 1, 200000, 10**30):
        with pytest.raises(EnumerationLimitError, match=rf"^size {size} exceeds the allowed size {allowed}: "):
            problem_report(1, size)
    assert time.perf_counter() - start < 1


def test_report_problem_one_notes_both_interpretations():
    rep = problem_report(1, 8)
    assert rep.offset == -1
    assert any("1231323" in note for note in rep.notes)


def test_report_problem_two_alignment():
    rep = problem_report(2, 8)
    assert rep.offset == 0
    assert sum(rep.matched) >= 6
    assert rep.a_values == rep.b_values[: len(rep.a_values)]


def test_report_problem_three_alignment():
    rep = problem_report(3, 8)
    assert rep.offset == 2
    assert sum(rep.matched) >= 6


def test_report_problem_four_shift():
    rep = problem_report(4, 8)
    assert rep.b_values == (0, 0, 1, 3, 7, 14, 26, 46)
    assert rep.offset == 3
    assert rep.notes


def test_align_reports_the_first_shift_with_enough_overlap():
    a, b = ("A", 1, (1, 2, 3, 5)), ("B", 0, (9, 1, 2, 3, 5, 8))
    rep = problems._align("L", a, b, range(-2, 3), 4, ("n",))
    assert (rep.label, rep.a_label, rep.b_start, rep.notes) == ("L", "A", 0, ("n",))
    assert (rep.offset, rep.matched) == (0, (True,) * 4)
    # the same shift over fewer than min_overlap shared indices aligns nothing
    rep = problems._align("L", a, b, range(-2, 3), 5)
    assert (rep.offset, rep.matched, rep.notes) == (None, (), ())


def test_report_serialisation():
    rep = problem_report(3, 7)
    obj = rep.to_json_obj()
    assert obj["offset"] == 2
    assert obj["a"]["values"][0] == "1"
    text = rep.to_text()
    assert "offset 2" in text


def test_problem_report_rejects_unknown():
    with pytest.raises(ValueError):
        problem_report(5, 4)


def test_problem_report_rejects_negative_size():
    for which in (1, 2, 3, 4):
        with pytest.raises(ValueError, match="non-negative"):
            problem_report(which, -1)
