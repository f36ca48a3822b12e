import random
import time

import pytest

from conftest import random_set

from pdvp.dsl import parse_set, render_set
from pdvp.intset import EVENS, ODDS, POSITIVES, finite, multiples, union


def test_atom_membership_matches_arithmetic():
    fin = finite([1, 3, 4])
    for x in range(1001):
        assert (x in POSITIVES) == (x >= 1)
        assert (x in EVENS) == (x % 2 == 0)
        assert (x in ODDS) == (x % 2 == 1)
        assert (x in multiples(4)) == (x >= 1 and x % 4 == 0)
        assert (x in fin) == (x in (1, 3, 4))


def test_boundary_values():
    assert 0 in EVENS
    assert 0 not in POSITIVES
    assert 6 not in multiples(4)


def test_union_membership():
    assert all(x in (EVENS | ODDS) for x in range(100))
    ab = finite([1, 3]) | finite([3, 4])
    assert [x for x in range(6) if x in ab] == [1, 3, 4]
    ps = POSITIVES | finite([5])
    assert all((x in ps) == (x >= 1) for x in range(50))


def test_union_commutative_and_idempotent_on_membership():
    a = multiples(3) | finite([0, 2])
    b = ODDS
    for x in range(200):
        assert (x in (a | b)) == (x in (b | a))
        assert (x in (a | a)) == (x in a)


def test_members_up_to():
    assert EVENS.members_up_to(7) == (0, 2, 4, 6)
    assert multiples(3).members_up_to(10) == (3, 6, 9)
    assert (ODDS | finite([2])).members_up_to(5) == (1, 2, 3, 5)
    assert POSITIVES.members_up_to(0) == ()
    # repeat calls give the same result
    assert EVENS.members_up_to(7) == (0, 2, 4, 6)


def test_multiples_normalisation_and_errors():
    assert multiples(1) == POSITIVES
    with pytest.raises(ValueError):
        multiples(0)
    with pytest.raises(ValueError):
        finite([-1])


def test_negative_membership_rejected():
    with pytest.raises(ValueError):
        -1 in EVENS


def test_union_function_is_or():
    assert union(EVENS, ODDS) == (EVENS | ODDS)


def test_finite_bound_and_positives_flag():
    assert POSITIVES | ODDS == POSITIVES
    assert POSITIVES | finite([0]) != POSITIVES
    assert finite([1, 5]).finite_bound() == 5
    assert (finite([1]) | finite([9])).finite_bound() == 9
    assert EVENS.finite_bound() is None


# The sets are stored in a normal form; the tests below check it against the
# grammar's per-atom meaning, read directly off the written terms.
MULTIPLIERS = (2, 3, 4, 5, 6, 10, 12)  # lcm 60; 6 and 10 are 2 mod 4


def _atom_member(term: str, x: int) -> bool:
    if term == "P":
        return x >= 1
    if term == "E":
        return x % 2 == 0
    if term == "O":
        return x % 2 == 1
    if term.startswith("{"):
        return x in {int(v) for v in term[1:-1].split(",")}
    return x >= 1 and x % int(term[:-1]) == 0


def _random_terms(rng: random.Random) -> list[str]:
    """1-4 atoms of the kinds `conftest.random_set` draws: P, E, O, kP, finite."""
    terms = []
    for _ in range(rng.randint(1, 4)):
        kind = rng.randrange(5)
        if kind < 3:
            terms.append("PEO"[kind])
        elif kind == 3:
            terms.append(f"{rng.choice(MULTIPLIERS)}P")
        else:
            members = rng.sample(range(0, 13), rng.randint(1, 3))
            terms.append("{" + ",".join(map(str, members)) + "}")
    return terms


def _random_spellings(seed: int, count: int) -> list[list[str]]:
    rng = random.Random(seed)
    return [_random_terms(rng) for _ in range(count)]


def test_membership_matches_atom_semantics():
    for terms in _random_spellings(1, 300):
        s = parse_set("+".join(terms))
        want = [x for x in range(1001) if any(_atom_member(t, x) for t in terms)]
        assert [x for x in range(1001) if x in s] == want, terms
        assert s.members_up_to(1000) == tuple(want)
        assert s.members_up_to(-1) == ()


def test_equal_spellings_compare_and_hash_equal():
    for a, b in [
        ("O+P", "P"),
        ("E+O", "P+{0}"),
        ("O+2P", "P"),
        ("4P+2P", "2P"),
        ("O+6P", "O+3P"),
        ("3P+{6}", "3P"),
        ("2P+{0}", "E"),
    ]:
        assert parse_set(a) == parse_set(b), (a, b)
        assert hash(parse_set(a)) == hash(parse_set(b)), (a, b)
        assert render_set(parse_set(a)) == render_set(parse_set(b)), (a, b)


def test_normal_form_is_unique():
    # steps divide 60 and finite members are < 13, so members 0..200 decide a set
    by_members = {}
    for terms in _random_spellings(2, 400):
        s = parse_set("+".join(terms))
        by_members.setdefault(tuple(x for x in range(201) if x in s), []).append(s)
    for group in by_members.values():
        assert all(s == group[0] and hash(s) == hash(group[0]) for s in group)
    assert len({s for group in by_members.values() for s in group}) == len(by_members)


def test_render_round_trips():
    rng = random.Random(3)
    sets = [random_set(rng) for _ in range(200)]
    sets += [parse_set("+".join(terms)) for terms in _random_spellings(4, 200)]
    for s in sets:
        text = render_set(s)
        assert parse_set(text) == s, text
        assert render_set(parse_set(text)) == text


def test_huge_values_cost_nothing():
    start = time.perf_counter()
    primes = parse_set("1000000007P+1000000009P")
    assert 1000000007 * 3 in primes and 1000000009 in primes
    assert 1000000008 not in primes and primes.members_up_to(1000) == ()
    assert render_set(primes) == "1000000007P+1000000009P"
    big = parse_set("{1000000000000}+O")
    assert 10**12 in big and 10**12 + 2 not in big and 10**12 + 1 in big
    assert render_set(big) == "O+{1000000000000}"
    mult = parse_set("1000000000000P")
    assert 2 * 10**12 in mult and 10**12 + 1 not in mult
    assert render_set(mult) == "1000000000000P"
    assert time.perf_counter() - start < 1.0
