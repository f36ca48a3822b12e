from itertools import permutations

import pytest

from conftest import random_pattern, random_sequence

from pdvp import checks
from pdvp.dsl import ParseError, parse_gp, parse_pattern, parse_set, render_pattern
from pdvp.intset import EVENS, ODDS, POSITIVES, finite, multiples
from pdvp.matcher import PermSequence, occurrences
from pdvp.pattern import Mode, Pdvp, make_classical, make_des_k, make_gp


def test_parse_worked_example():
    p = parse_pattern("12|{1},{3,4},{1,2,3}|(1,2,E)|E,P")
    assert p.base == (1, 2)
    assert p.x == (finite([1]), finite([3, 4]), finite([1, 2, 3]))
    assert p.y[0].s == 1 and p.y[0].t == 2 and p.y[0].diffs == EVENS
    assert p.z == (EVENS, POSITIVES)


def test_parse_statistic_pattern():
    p = parse_pattern("12|P,{2},P|(1,2,{2})|P,P", Mode.WORD)
    assert p.x[1] == finite([2])
    assert p.y[0].diffs == finite([2])


def test_arity_is_a_parse_error():
    with pytest.raises(ParseError):
        parse_pattern("12|P,{2}|(1,2,{2})|P,P")
    with pytest.raises(ParseError):
        parse_pattern("12|P,P,P|-|P")


def test_a_set_with_trailing_text_is_a_parse_error():
    with pytest.raises(ParseError) as caught:
        parse_set("P x")
    assert str(caught.value) == "at position 2: expected end of input, found 'x'"


def test_parse_error_reports_position():
    try:
        parse_pattern("12|P,Q,P|-|P,P")
    except ParseError as exc:
        assert 0 <= exc.position <= len("12|P,Q,P|-|P,P")
        assert "Q" in exc.found or exc.found
    else:
        pytest.fail("expected a ParseError")


def test_whitespace_insignificant():
    a = parse_pattern("12|P, {2} ,P | (1,2,{2}) | P,P", Mode.WORD)
    b = parse_pattern("12|P,{2},P|(1,2,{2})|P,P", Mode.WORD)
    assert a == b


def test_set_grammar():
    assert parse_set("P") == POSITIVES
    assert parse_set("4P") == multiples(4)
    assert parse_set("1P") == POSITIVES
    assert parse_set("E+{1}") == (EVENS | finite([1]))
    with pytest.raises(ParseError):
        parse_set("0P")
    with pytest.raises(ParseError):
        parse_set("{}")


def test_parse_gp_examples():
    assert parse_gp("2-31").x == (POSITIVES, POSITIVES, finite([1]), POSITIVES)
    assert parse_gp("1-2-3") == make_classical((1, 2, 3))
    assert parse_gp("231") == make_gp("231")
    with pytest.raises(ParseError):
        parse_gp("2+31")


@pytest.mark.parametrize("mode", list(Mode))
def test_parse_pattern_reads_the_gp_prefix(mode):
    assert parse_pattern("gp:2-31", mode) == parse_gp("2-31", mode)


@pytest.mark.parametrize("mode", list(Mode))
@pytest.mark.parametrize("plain", ["gp:2-31", "231|P,P,{1},P|-|P,P,P"])
def test_whitespace_around_either_spelling_is_ignored(mode, plain):
    want = parse_pattern(plain, mode)
    for text in (f" {plain}", f"{plain} ", f"\t{plain}\n", f"  {plain}  "):
        assert parse_pattern(text, mode) == want
    assert parse_pattern("gp: 2-31 ", mode) == parse_gp(" 2-31\t", mode) == parse_gp("2-31", mode)


@pytest.mark.parametrize(
    "text, message",
    [
        ("2 31", "at position 0: expected letters 1..9 separated by optional dashes, "
                 "found unexpected character ' ' in '2 31'"),
        ("2+31", "at position 0: expected letters 1..9 separated by optional dashes, "
                 "found unexpected character '+' in '2+31'"),
        ("-21", "at position 0: expected letters 1..9 separated by optional dashes, "
                "found misplaced dash in '-21'"),
        ("11", "at position 0: expected a valid dashed pattern, "
               "found base (1, 1) is not a permutation of 1..2"),
    ],
)
def test_bad_dashed_text_is_a_parse_error(text, message):
    for spelled in (text, f" {text} "):
        with pytest.raises(ParseError) as direct:
            parse_gp(spelled)
        with pytest.raises(ParseError) as prefixed:
            parse_pattern(f"gp:{spelled}")
        assert str(direct.value) == str(prefixed.value) == message


@pytest.mark.parametrize("base", [(1, 2), (2, 1), (1, 2, 3)])
def test_parity_position_pattern_is_the_quadruple_it_spells(base):
    m = len(base)
    hand_built = Pdvp(Mode.PERMUTATION, base, (ODDS,) + (EVENS,) * m, (), (EVENS,) * m)
    assert checks.parity_position_pattern(base) == hand_built


def test_semicolon_separated_y_triples():
    p = parse_pattern("12|P,P,P|(0,1,O);(1,2,E)|P,P")
    assert len(p.y) == 2
    assert p.y[0].diffs == ODDS


def test_render_canonical_forms():
    assert render_pattern(make_des_k(1)) == "21|P,{1},P|(1,2,{1})|P,P"
    assert render_pattern(make_classical((1, 2))) == "12|P,P,P|-|P,P"
    assert render_pattern(parse_pattern("12|P,{2,1},P|(1,2,{2})|P,P", Mode.WORD)) == (
        "12|P,{1,2},P|(1,2,{2})|P,P"
    )


def test_render_set_orders_atoms():
    p = parse_pattern("12|{3}+E,P,P|-|O+P,P")
    assert render_pattern(p) == "12|E+{3},P,P|-|P,P"


def test_leading_zero_base_rejected():
    with pytest.raises(ParseError):
        parse_pattern("012|P,P,P,P|-|P,P,P")
    with pytest.raises(ParseError):
        parse_pattern("102|P,P,P,P|-|P,P,P")


def test_comma_base_for_long_patterns():
    base = tuple(range(1, 11))
    rendered = render_pattern(make_classical(base))
    assert rendered.startswith("1,2,3,4,5,6,7,8,9,10|")
    assert parse_pattern(rendered).base == base


def test_worked_example_round_trip_semantics():
    p = parse_pattern("12|{1},{3,4},{1,2,3}|(1,2,E)|E,P")
    q = parse_pattern(render_pattern(p))
    for n in range(1, 7):
        for pi in permutations(range(1, n + 1)):
            seq = PermSequence(pi)
            assert occurrences(p, seq) == occurrences(q, seq)


def test_random_round_trip_match_semantics(rng):
    from pdvp.matcher import count

    for _ in range(150):
        mode = Mode.PERMUTATION if rng.random() < 0.5 else Mode.WORD
        pat = random_pattern(rng, mode)
        back = parse_pattern(render_pattern(pat), mode)
        for _ in range(4):
            seq = random_sequence(rng, mode, n_max=7)
            assert count(pat, seq) == count(back, seq)


def test_tauraso_pair_is_expressible():
    # simultaneous rise/descent pair with equal place and value distance d
    d = 3
    up = parse_pattern(f"12|P,{{{d}}},P|(1,2,{{{d}}})|P,P")
    down = parse_pattern(f"21|P,{{{d}}},P|(1,2,{{{d}}})|P,P")
    seq = PermSequence((1, 5, 2, 4, 3, 6))
    assert [o.indices for o in occurrences(up, seq)] == [(1, 4)]
    assert occurrences(down, seq) == []
