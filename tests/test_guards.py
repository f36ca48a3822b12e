"""Argument guards that the other tests never reach, one message each."""

import re

import pytest

from pdvp import checks, exhaustive, formulas, transfer
from pdvp.budget import EnumerationLimitError
from pdvp.cli import main
from pdvp.dsl import parse_pattern
from pdvp.intset import POSITIVES, IntSet
from pdvp.pattern import Mode, Pdvp, make_classical, make_des_k, make_gp
from pdvp.problems import StepRule, morphism_rises, walk_count


def _finite_gap_rise():
    return transfer.StatPattern(parse_pattern("12|P,{1},P|-|P,P", Mode.WORD))


GUARDS = {
    "word scan over no letters": (
        lambda: exhaustive.plan_scan([], None, 0, 3),
        ValueError, "alphabet size must be positive"),
    "value walk of at least the ceiling": (
        lambda: exhaustive.perm_multi_avoiders([checks.mod4_pattern()], 3000),
        EnumerationLimitError, "scan of at least 10^5177 steps exceeds the budget 100000000"),
    "dp over no letters": (
        lambda: transfer.dp_series(_finite_gap_rise(), 0, 3),
        ValueError, "alphabet size must be positive"),
    "solve over no letters": (
        lambda: transfer.solve_transfer_system(_finite_gap_rise(), 0),
        ValueError, "alphabet size must be positive"),
    "empty base": (
        lambda: Pdvp(Mode.PERMUTATION, (), (POSITIVES,), (), ()),
        ValueError, "pattern base must be non-empty"),
    "base letter 0": (
        lambda: Pdvp(Mode.WORD, (0,), (POSITIVES,) * 2, (), (POSITIVES,)),
        ValueError, "base letters must be positive"),
    "dashed letter 0": (
        lambda: make_gp("20"), ValueError, "pattern letters are 1..9"),
    "negative descent difference": (
        lambda: make_des_k(-1), ValueError, "descent difference must be non-negative"),
    "period 0": (
        lambda: IntSet(steps=(0,)), ValueError, "steps must be positive"),
    "no morphism iterations": (
        lambda: morphism_rises(0), ValueError, "need at least one iteration"),
    "walk over no letters": (
        lambda: walk_count(0, 1, 1, 1, StepRule.EXACTLY_ONE),
        ValueError, "walk parameters must be positive"),
    "walk of negative length": (
        lambda: walk_count(3, -1, 1, 1, StepRule.AT_MOST_ONE),
        ValueError, "walk parameters must be positive"),
    "walk ending outside the alphabet": (
        lambda: walk_count(3, 1, 1, 4, StepRule.EXACTLY_ONE),
        ValueError, "endpoints must lie in the alphabet"),
    "fib(-1)": (lambda: formulas.fib(-1), ValueError, "fib needs n >= 0"),
    "catalan(-1)": (lambda: formulas.catalan(-1), ValueError, "catalan needs n >= 0"),
    "words123_avoiders(0)": (
        lambda: formulas.words123_avoiders(0), ValueError, "words123_avoiders needs n >= 1"),
    "words123_recurrence(0)": (
        lambda: formulas.words123_recurrence(0), ValueError,
        "words123_recurrence needs n >= 1"),
    "unknown reference series": (
        lambda: checks.reference_gf("zz"), KeyError, "'zz'"),
}


@pytest.mark.parametrize("name", GUARDS)
def test_guard_raises_its_message(name, monkeypatch):
    monkeypatch.delenv("PDVP_BUDGET", raising=False)
    call, error, message = GUARDS[name]
    with pytest.raises(error, match=f"^{re.escape(message)}$") as caught:
        call()
    assert type(caught.value) is error


def test_dashed_letter_0_exits_2_through_the_cli(capsys):
    assert main(["match", "--pattern", "gp:20", "--perm", "1 2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("pattern parse error at position 0: expected letters 1..9 "
                            "separated by optional dashes, found pattern letters are 1..9\n")


def test_classical_base_spellings_agree():
    assert make_classical(123) == make_classical("123") == make_classical((1, 2, 3))
