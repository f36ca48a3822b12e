from collections import Counter
from itertools import permutations, product

import pytest

from conftest import naive_occurrences

from pdvp.matcher import PermSequence, avoids
from pdvp.pattern import make_classical
from pdvp.problems import (
    StepRule,
    morphism_rises,
    problem_report,
    stack_sort,
    two_stack_sortable_count,
    walk_count,
)


def test_morphism_first_iterates():
    assert morphism_rises(1) == ("123", 2)
    assert morphism_rises(2) == ("123132", 3)
    word, rises = morphism_rises(3)
    assert len(word) == 12 and rises == 6


def test_morphism_budget():
    with pytest.raises(ValueError):
        morphism_rises(40, length_budget=1000)


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
    assert [two_stack_sortable_count(n) for n in range(1, 7)] == [1, 2, 6, 22, 91, 408]
    assert two_stack_sortable_count(1, True, True) == 0
    assert two_stack_sortable_count(3, True, True) == 1


def test_two_stack_sortable_count_equals_per_object_recount():
    p132, p123 = make_classical((1, 3, 2)), make_classical((1, 2, 3))
    for n in range(1, 8):
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
            assert two_stack_sortable_count(n, *flags) == want[flags], (n, flags)


def test_two_stack_sortable_limit():
    with pytest.raises(Exception, match="limit"):
        two_stack_sortable_count(11)


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
