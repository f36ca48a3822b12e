import random
import time
from collections import Counter
from dataclasses import replace
from itertools import permutations, product
from math import comb, factorial, perm

import pytest

from conftest import (
    naive_occurrences,
    random_gap,
    random_order_only,
    random_pattern,
    random_set,
    reversed_pattern,
)

from pdvp import budget, checks, cli, exhaustive, formulas, problems, transfer
from pdvp.budget import EnumerationLimitError
from pdvp.checks import STAT_ALPHABETS, _ank_scan, _shifted_rise_pattern
from pdvp.cli import main
from pdvp.dsl import parse_gp, parse_pattern, render_pattern
from pdvp.exhaustive import (
    order_only,
    perm_distribution,
    perm_distributions,
    perm_multi_avoiders,
    plan_scan,
    prefix_walk,
    word_avoider_counts,
    word_distribution,
    word_distributions,
    word_multi_avoiders,
)
from pdvp.intset import EVENS, ODDS, POSITIVES, finite, multiples
from pdvp.matcher import PermSequence, WordSequence
from pdvp.pattern import Mode, Pdvp, YTriple, make_classical
from pdvp.problems import problem_report, stack_sort, two_stack_sortable_counts
from pdvp.transfer import StatPattern, series_rows


def test_distribution_partitions_the_symmetric_group():
    for n in range(6):
        table = perm_distribution(make_classical((1, 3, 2)), n)
        assert table.total() == factorial(n)


def test_classical_123_avoiders_are_catalan():
    assert perm_distribution(make_classical((1, 2, 3)), 4)[0] == 14
    assert perm_distribution(make_classical((1, 2, 3)), 5)[0] == 42


def test_parity_position_pattern_avoiders():
    pat = parse_pattern("12|O,E,E|-|E,E")
    table = perm_distribution(pat, 4)
    # matches the transfer formula with a constant classical row
    assert table[0] == sum(
        factorial(2) * factorial(2 - k) * comb(2, k) ** 3 for k in range(3)
    )


# a rise whose first value is odd: not order-only, so scans of it walk by values
_ODD_RISE = parse_pattern("12|P,P,P|-|O,P")


def test_zero_entry_at_m0_equals_single_avoider_count():
    pat = parse_gp("2-31")
    for n in range(6):
        assert perm_distribution(pat, n)[0] == perm_multi_avoiders([pat], n)


def test_perm_limit_error_names_limit(monkeypatch):
    monkeypatch.delenv("PDVP_BUDGET", raising=False)
    # the value walk over S_11 (Z_1 = O is not order-only), then the
    # generating tree over S_12: 1! + 2! + ... + 12!; classical 123 has an
    # infinite interior gap set, so no rank dp counts it
    with pytest.raises(EnumerationLimitError,
                       match=r"^scan of 108505111 steps exceeds the budget 100000000$"):
        perm_distribution(_ODD_RISE, 11)
    with pytest.raises(EnumerationLimitError,
                       match=r"^scan of 522956313 steps exceeds the budget 100000000$"):
        perm_distribution(make_classical((1, 2, 3)), 12)
    # the rank dp of gp:2-31 fits up to S_85; at S_86 neither it nor the walk
    # does, and the dp's steps are named
    with pytest.raises(EnumerationLimitError,
                       match=r"^scan of 102395309 steps exceeds the budget 100000000$"):
        perm_distribution(parse_gp("2-31"), 86)
    assert plan_scan([], parse_gp("2-31"), None, 85).path == "ranks"
    monkeypatch.setenv("PDVP_BUDGET", "63")
    with pytest.raises(EnumerationLimitError,
                       match=r"^scan of 64 steps exceeds the budget 63$"):
        perm_distribution(_ODD_RISE, 4)
    monkeypatch.setenv("PDVP_BUDGET", "32")
    with pytest.raises(EnumerationLimitError,
                       match=r"^scan of 33 steps exceeds the budget 32$"):
        perm_distribution(make_classical((1, 2, 3)), 4)


def test_word_budget_error(monkeypatch):
    pat = parse_pattern("12|P,{2},P|(1,2,{2})|P,P", Mode.WORD)
    # the window automaton's prediction fits 3^8 steps, so no word is walked
    monkeypatch.setenv("PDVP_BUDGET", str(3**8))
    with monkeypatch.context() as patched:
        patched.setattr(exhaustive, "prefix_walk", _no_walk)
        assert word_distribution(pat, 3, 9).total() == 3**9
    # under 100 steps neither fits, and the series' refusal is reported, as
    # it predicts fewer steps than the walk's 3 + 9 + ... + 3^9 = 29523
    monkeypatch.setenv("PDVP_BUDGET", "100")
    assert transfer.series_work((StatPattern(pat),), 3, 9, 1)[0] == 760
    with pytest.raises(EnumerationLimitError,
                       match=r"^scan of 760 steps exceeds the budget 100$"):
        word_distribution(pat, 3, 9)


def test_negative_lengths_rejected():
    perm, word = make_classical((1, 2)), parse_pattern("12|P,P,P|-|P,P", Mode.WORD)
    for scan in (
        lambda: perm_distribution(perm, -1),
        lambda: perm_multi_avoiders([perm], -1),
        lambda: word_distribution(word, 2, -1),
        lambda: word_multi_avoiders([word], 2, -1),
    ):
        with pytest.raises(ValueError, match="non-negative"):
            scan()


def test_word_distribution_examples():
    pat = parse_pattern("12|P,{2},P|(1,2,{2})|P,P", Mode.WORD)
    assert word_distribution(pat, 3, 2)[0] == 9
    assert word_distribution(pat, 4, 4)[0] == 196
    assert word_distribution(pat, 3, 4).total() == 81


def test_mode_checks():
    wpat = parse_pattern("12|P,{2},P|(1,2,{2})|P,P", Mode.WORD)
    with pytest.raises(ValueError):
        perm_distribution(wpat, 3)
    with pytest.raises(ValueError):
        word_distribution(make_classical((1, 2)), 3, 3)


def test_consecutive_pair_avoiders_double():
    pats = [parse_gp("231"), parse_gp("132")]
    for n in range(1, 8):
        assert perm_multi_avoiders(pats, n) == 2 ** (n - 1)


def test_triple_avoidance_example():
    pats = [parse_gp("231"), parse_gp("132"), parse_pattern("12|P,{2},P|(1,2,{1})|P,P")]
    assert perm_multi_avoiders(pats, 5) == 12


def test_empty_pattern_lists():
    assert perm_multi_avoiders([], 5) == 120
    assert word_multi_avoiders([], 3, 4) == 81


def test_word_pair_avoiders_small():
    pats = [
        parse_pattern("12|P,{1},P|(1,2,{1})|P,P", Mode.WORD),
        parse_pattern("12|P,{2},P|(1,2,{2})|P,P", Mode.WORD),
    ]
    assert word_multi_avoiders(pats, 3, 1) == 3
    assert word_multi_avoiders(pats, 3, 2) == 7
    assert word_multi_avoiders(pats, 3, 5) == 46


def _objects(mode, n, t):
    if mode is Mode.PERMUTATION:
        return [PermSequence(pi) for pi in permutations(range(1, n + 1))]
    return [WordSequence(w, t) for w in product(range(1, t + 1), repeat=n)]


def _naive_histogram(pat, seqs):
    return dict(Counter(len(naive_occurrences(pat, s)) for s in seqs))


def test_scans_equal_per_object_recount_on_fixtures():
    for text in sorted({text for text, _ in STAT_ALPHABETS.values()}):
        for n in range(7):
            pat = parse_pattern(text)
            hist = _naive_histogram(pat, _objects(Mode.PERMUTATION, n, None))
            assert dict(perm_distribution(pat, n).counts) == hist, (text, n)
            assert perm_multi_avoiders([pat], n) == hist.get(0, 0), (text, n)
            pat = parse_pattern(text, Mode.WORD)
            for t in range(1, 4):
                hist = _naive_histogram(pat, _objects(Mode.WORD, n, t))
                assert dict(word_distribution(pat, t, n).counts) == hist, (text, t, n)
                assert word_multi_avoiders([pat], t, n) == hist.get(0, 0), (text, t, n)


def test_prefix_walk_equals_per_object_filter(rng):
    # one counted pattern or none, with and without a cap
    for counted, capped in [(False, False), (False, True), (True, False), (True, True)] * 30:
        mode = Mode.PERMUTATION if rng.random() < 0.5 else Mode.WORD
        avoid = [random_pattern(rng, mode) for _ in range(rng.randrange(3))]
        count = random_pattern(rng, mode) if counted else None
        cap = rng.choice([0, 1, 2]) if capped else None
        n = rng.randint(0, 5)
        t = None if mode is Mode.PERMUTATION else rng.randint(1, 3)
        want = [[] for _ in range(n + 1)]
        for k, row in enumerate(want):
            for seq in _objects(mode, k, t):
                if any(naive_occurrences(p, seq) for p in avoid):
                    continue
                c = len(naive_occurrences(count, seq)) if counted else 0
                if cap is None or c <= cap:
                    row.append((seq.entries, c))
        # an every-length plan, so that no word scan reads the automaton
        plan = plan_scan(avoid, count, t, n, each_length=True)
        walk = _expanded(plan, cap)
        if _whole(plan):
            assert _by_length(walk, n, t) == [sorted(row) for row in want], (avoid, count, t, n)
        else:  # a value walk that skips positions or values: its leaves weighed
            assert _weighed(plan, walk) == [Counter(c for _, c in row) for row in want], (
                avoid, count, t, n)


def test_families_expand_to_the_per_object_filter():
    # every family's children, one length or every length, on the tree, by
    # values and over words, with and without a cap: expanded, they are the
    # kept objects of the per-object filter, each once.  A generator of its
    # own leaves the shared `rng` fixture's stream to the tests after this one
    rng = random.Random(20261020)
    seen = set()
    for case in range(150):
        perm = case % 3 != 2
        mode = Mode.PERMUTATION if perm else Mode.WORD

        def pattern():
            return random_order_only(rng) if perm and case % 3 == 0 else random_pattern(rng, mode)

        avoid = [pattern() for _ in range(rng.randrange(3))]
        count = pattern() if rng.random() < 0.6 else None
        cap = rng.choice([0, 1, 2]) if rng.random() < 0.5 else None
        n = rng.randint(0, 5)
        t = None if perm else rng.randint(1, 3)
        each_length = rng.random() < 0.5
        plan = plan_scan(avoid, count, t, n, each_length)
        if plan.path == "series":
            continue
        want = [[] for _ in range(n + 1)]
        for k, row in enumerate(want):
            for seq in _objects(mode, k, t):
                if not any(naive_occurrences(p, seq) for p in avoid):
                    c = len(naive_occurrences(count, seq)) if count else 0
                    if cap is None or c <= cap:
                        row.append((seq.entries, c))
        lengths = range(n + 1) if each_length else [n]
        weighed = _weighed(plan, _expanded(plan, cap))
        assert [weighed[k] for k in lengths] == [Counter(c for _, c in want[k]) for k in lengths], (
            avoid, count, cap, t, n, each_length)
        if _whole(plan):
            rows = _by_length(_expanded(plan, cap), n, t)
            assert [rows[k] for k in lengths] == [sorted(want[k]) for k in lengths], (
                avoid, count, cap, t, n, each_length)
        for k in lengths if each_length else ():  # in the order of each length's own walk
            single = plan_scan(avoid, count, t, k)
            if single.path != "series" and _whole(single):
                stream = [obj for obj in _expanded(plan, cap) if len(obj[0]) == k]
                assert stream == list(_expanded(single, cap)), (avoid, count, cap, t, k)
        seen.add((plan.path, each_length, cap is not None))
    assert seen == {(path, each, capped) for path in ("tree", "values", "words")
                    for each in (False, True) for capped in (False, True)}, seen


class _Tripwire:
    """A family's values that count how often a consumer draws them."""

    def __init__(self, values, draws, path):
        self.values, self.draws, self.path = values, draws, path

    def __iter__(self):
        self.draws[self.path] += 1
        return iter(self.values)


def test_tables_draw_no_child_values_on_the_tree_or_words_path(monkeypatch):
    # a scan that only counts reads each family's counts alone; by values it
    # draws the values, which `ScanPlan.weight` needs
    word = parse_pattern("12|P,P,P|-|P,P", Mode.WORD)  # not a statistic: walked
    rise = parse_pattern("12|P,{1},P|(1,2,{1})|P,P", Mode.WORD)
    scans = [
        lambda: perm_distribution(parse_gp("2-31"), 6),
        lambda: perm_distributions(make_classical((1, 3, 2)), 5),
        lambda: perm_multi_avoiders([make_classical((1, 2, 3))], 6),
        lambda: word_distribution(word, 3, 5),
        lambda: word_distributions(rise, 2, 6),
        lambda: word_avoider_counts([rise], 3, 6),
        lambda: perm_multi_avoiders([checks.mod4_pattern()], 8),  # its leaves weighed
        lambda: perm_distributions(parse_pattern(_K4N), 6),
    ]
    want = [scan() for scan in scans]
    draws, walk = Counter(), exhaustive.prefix_walk

    def tripped(plan, cap=None):
        for entries, q, counts, values in walk(plan, cap):
            yield entries, q, counts, _Tripwire(values, draws, plan.path)

    monkeypatch.setattr(exhaustive, "prefix_walk", tripped)
    assert [scan() for scan in scans] == want
    assert set(draws) == {"values"}, draws


def _whole(plan):
    """Whether every walk of the plan fills every position with any value:
    each leaf is then an object, of weight 1."""
    return all(cut.star is None and len(cut.positions) == cut.n for cut in plan.cuts)


def _expanded(plan, cap=None):
    """The (entries, c) of every object `prefix_walk(plan, cap)` streams:
    the empty object first when the plan covers length 0 (no family holds
    it), then each family's children in child order, entries as tuples."""
    if plan.each_length or not plan.n:
        yield (), 0
    for entries, q, counts, values in prefix_walk(plan, cap=cap):
        assert 1 <= q <= len(entries) and (plan.path == "values" or q == len(entries))
        for v, c in zip(values, counts, strict=True):
            entries[q - 1] = v
            yield tuple(entries), c


def _weighed(plan, walk):
    """For k = 0..plan.n, {c: objects} over the (entries, c) of a walk of
    the plan (`_expanded`) at length k, each weighed by `plan.weight`."""
    rows = [Counter() for _ in range(plan.n + 1)]
    for entries, c in walk:
        rows[len(entries)][c] += plan.weight(entries)
    return rows


def _standardised(entries):
    """The permutation of 1..d order-isomorphic to the distinct `entries`."""
    rank = {v: r for r, v in enumerate(sorted(entries), 1)}
    return tuple(rank[v] for v in entries)


def _by_length(walk, n, t):
    """For k = 0..n, the sorted (entries, c) of a walk's objects
    (`_expanded`) at length k, a permutation's entries standardised."""
    rows = [[] for _ in range(n + 1)]
    for entries, c in walk:
        rows[len(entries)].append((tuple(entries) if t else _standardised(entries), c))
    return [sorted(row) for row in rows]


def _by_values(pat, n):
    """`pat` with every Z set {1..n}: the same pattern on S_n, but not
    order-only, so a scan of it walks by values."""
    twin = Pdvp(Mode.PERMUTATION, pat.base, pat.x, pat.y, (finite(range(1, n + 1)),) * pat.m)
    assert not order_only(twin)
    return twin


def test_generating_tree_equals_the_naive_filter_and_the_value_walk(rng):
    # avoid sets alone, and with one counted pattern, with and without a cap;
    # the twins' values are all relevant, and where their gap sets leave
    # every position relevant too, the value walk yields every object; the
    # three kinds of case take turns, at least 15 each, until the value walk
    # has met 5 whole and 5 partial twins, or the draws run out
    kinds = [(False, False), (True, False), (True, True)]
    whole, draws = Counter(), 0
    while draws < 45 or whole[True] < 5 or whole[False] < 5:
        assert draws < 450, f"{draws} draws left too few whole or partial twins: {whole}"
        counted, capped = kinds[draws % 3]
        draws += 1
        n = rng.randint(1, 6)
        avoid = [random_order_only(rng) for _ in range(rng.randint(not counted, 2))]
        count = random_order_only(rng) if counted else None
        cap = rng.choice([0, 1, 2]) if capped else None
        want = []
        for seq in _objects(Mode.PERMUTATION, n, None):
            if any(naive_occurrences(p, seq) for p in avoid):
                continue
            c = len(naive_occurrences(count, seq)) if counted else 0
            if cap is None or c <= cap:
                want.append((seq.entries, c))
        plan = plan_scan(avoid, count, None, n)
        twins = plan_scan([_by_values(p, n) for p in avoid], count and _by_values(count, n),
                          None, n)
        assert (plan.path, twins.path) == ("tree", "values")
        tree = [(_standardised(e), c) for e, c in _expanded(plan, cap)]
        assert sorted(tree) == want, (avoid, count, cap, n)
        whole[_whole(twins)] += 1
        if _whole(twins):
            values = list(_expanded(twins, cap))
            assert values == want, (avoid, count, cap, n)
        else:
            assert _weighed(twins, _expanded(twins, cap))[n] == Counter(
                c for _, c in want), (avoid, count, cap, n)


def test_tree_entry_points_equal_the_per_object_recount(rng):
    # the tree scores every child of a node with one search per pattern;
    # two classical patterns at S_7, then random order-only ones and pairs
    pats = [(make_classical((1, 3, 2)), 7), (parse_gp("2-31"), 7)]
    pats += [(random_order_only(rng), rng.randint(0, 6)) for _ in range(10)]
    for pat, n in pats:
        other = random_order_only(rng)
        assert plan_scan((pat, other), pat, None, n).path == "tree"
        rows = _naive_rows([], pat, None, n)
        assert list(perm_distribution(pat, n).counts.items()) == sorted(rows[n].items()), pat
        assert [list(table.counts.items()) for table in perm_distributions(pat, n)] == [
            sorted(row.items()) for row in rows], pat
        assert perm_multi_avoiders([pat], n) == rows[n][0], pat
        assert perm_multi_avoiders([pat, other], n) == sum(
            1 for seq in _objects(Mode.PERMUTATION, n, None)
            if not naive_occurrences(pat, seq) and not naive_occurrences(other, seq)), (pat, other)


def _heir(rng):
    """A random order-only pattern whose partial occurrences a tree node
    mostly inherits: X_{m-1} is P four times in five and X_m every other
    time, and the other gap sets, X_0 among them, are random ones that many
    index tuples meet."""
    pat = random_order_only(rng)
    x = [random_gap(rng) for _ in pat.x]
    if rng.random() < 0.8:
        x[-2] = POSITIVES
    if rng.random() < 0.5:
        x[-1] = POSITIVES
    return replace(pat, x=tuple(x))


def _rank_pattern(rng):
    """A random order-only pattern with X_m = P and interior gap sets {1},
    {2} or {1, 2}.  Half the time X_0 and X_1 are P, so slot 0 floats; else
    X_0 is a random gap set that many index tuples meet, P or not, and X_1
    is P or finite, so the rank dp counts some and not others."""
    pat = random_order_only(rng)
    interior = [finite(rng.sample((1, 2), rng.randint(1, 2))) for _ in range(pat.m - 1)]
    x = [random_gap(rng), *interior, POSITIVES]
    if rng.random() < 0.5:
        x[0] = x[1] = POSITIVES
    elif pat.m > 1 and rng.random() < 0.5:
        x[1] = POSITIVES
    return replace(pat, x=tuple(x))


def _walked_rows(pat, n, each_length):
    """The count rows of `pat` over S_n, or S_0..S_n, by a forced tree walk:
    its count scan's plan with the path set to "tree", drained through
    `prefix_walk`."""
    plan = replace(plan_scan([], pat, None, n, each_length), path="tree")
    rows = [Counter() for _ in range(n + 1)]
    rows[0][0] = 1
    for entries, _, counts, _ in prefix_walk(plan):
        rows[len(entries)].update(counts)
    return [row for k, row in enumerate(rows) if each_length or k == n]


def test_rank_dp_equals_the_walk_and_the_per_object_recount(rng):
    # count scans the rank dp admits, a floating slot 0 among them, and some
    # it does not, of one length and of every length: the plan's tables, and
    # the dp's rows on every admitted one, whichever path its plan takes
    paths, admitted = Counter(), Counter()
    for case in range(200):
        pat = _rank_pattern(rng) if case % 2 else random_order_only(rng)
        while case % 4 == 2 and _rank_keep(pat) is None:  # filtered by the route rule
            pat = random_order_only(rng)
        n = 7 if case % 20 == 0 else rng.randint(0, 6)
        each_length = case % 8 < 4
        paths[plan_scan([], pat, None, n, each_length).path] += 1
        tables = perm_distributions(pat, n) if each_length else [perm_distribution(pat, n)]
        got = [table.counts for table in tables]
        walked = _walked_rows(pat, n, each_length)
        assert got == walked, (pat, n)
        naive = _naive_rows([], pat, None, n)
        assert got == (naive if each_length else naive[n:]), (pat, n)
        window = transfer.rank_window(pat)
        if window is not None:
            admitted[window[1]] += 1
            rows = transfer.rank_rows(pat, n, n + 1 if each_length else 1)
            assert list(map(dict, rows)) == list(map(dict, walked)), (pat, n)
    assert admitted[True] >= 40 and admitted[False] >= 40, admitted
    assert paths["ranks"] >= 10 and paths["tree"] >= 40, paths
    # the paper's dashed patterns, a consecutive one and a classical one at S_9
    for text in ("gp:2-31", "gp:1-23", "gp:123", "gp:1-2"):
        pat = parse_gp(text[3:])
        assert plan_scan([], pat, None, 9, True).path == "ranks"
        walked = _walked_rows(pat, 9, True)
        assert [table.counts for table in perm_distributions(pat, 9)] == walked, text
        assert perm_distribution(pat, 9).counts == walked[9], text


def test_inherited_partials_equal_the_per_object_recount(rng):
    # a node takes its parent's partial occurrences of a pattern whose X_{m-1}
    # and X_m are P and adds its own: avoid sets, counts, caps and every
    # length, against naive_occurrences on each permutation
    inherited = Counter()
    for case in range(60):
        n = 7 if case % 20 == 0 else rng.randint(1, 6)
        avoid = [_heir(rng) for _ in range(rng.randint(0, 2))]
        count = _heir(rng) if not avoid or rng.random() < 0.7 else None
        cap = rng.choice([None, 0, 1, 2])
        each_length = case % 2 == 1
        lengths = range(n + 1) if each_length else [n]
        pats = [p for p in (*avoid, count) if p]
        inherited[any(map(exhaustive._inherits, pats))] += 1
        counted = {k: [(seq.entries, [len(naive_occurrences(p, seq)) for p in pats])
                       for seq in _objects(Mode.PERMUTATION, k, None)] for k in lengths}
        want = [[] for _ in range(n + 1)]
        for k in lengths:
            for entries, found in counted[k]:
                c = found[-1] if count else 0
                if not any(found[:len(avoid)]) and (cap is None or c <= cap):
                    want[k].append((entries, c))
        case_id = (avoid, count, cap, n, each_length)
        plan = plan_scan(avoid, count, None, n, each_length)
        ranks = not avoid and transfer.rank_window(count) is not None and _dp_wins(
            transfer.rank_work(count, n, n + 1 if each_length else 1), _tree_nodes(n))
        assert plan.path == ("ranks" if ranks else "tree"), case_id
        walk = replace(plan, path="tree")  # the walk's caps and partials, on the ranks' counts too
        assert _by_length(_expanded(walk, cap), n, None) == want, case_id
        if count:
            rows = [Counter(found[-1] for _, found in counted[k]) for k in lengths]
            tables = perm_distributions(count, n) if each_length else [perm_distribution(count, n)]
            assert [table.counts for table in tables] == rows, case_id
        if avoid:
            assert perm_multi_avoiders(avoid, n) == sum(
                not any(found[:len(avoid)]) for _, found in counted[n]), case_id
    assert inherited[True] >= 30, inherited


def _word_heir(rng):
    """A random word pattern whose partial occurrences a word node mostly
    inherits: repeated base letters, Z sets and Y triples with finite and
    infinite D, on the sentinels too, most of them holding every positive
    integer so that the pattern occurs often, and half the time a finite Y
    pair of a slot with the last one; X_{m-1} is P four times in five and
    X_m every other time, and the other gap sets are ones that many index
    tuples meet."""
    pat = random_pattern(rng, Mode.WORD)
    x = [random_gap(rng) for _ in pat.x]
    if rng.random() < 0.8:
        x[-2] = POSITIVES
    if rng.random() < 0.5:
        x[-1] = POSITIVES
    y = tuple(YTriple(tri.s, tri.t, rng.choice([POSITIVES | finite([0]), tri.diffs]))
              for tri in pat.y)
    if pat.m > 1 and rng.random() < 0.5:
        y += (YTriple(rng.randrange(1, pat.m), pat.m, finite(rng.sample(range(4), 2))),)
    z = tuple(rng.choice([POSITIVES, POSITIVES, zset]) for zset in pat.z)
    return replace(pat, x=tuple(x), y=y, z=z)


def test_inherited_word_partials_equal_the_per_object_recount(rng):
    # a word node copies its parent's array of partial occurrences and adds
    # those ending at its own last letter: avoid sets, counts, caps and
    # every length, against naive_occurrences on each word
    inherited = Counter()
    for case in range(60):
        t = rng.randint(1, 4)
        n = rng.randint(1, 6)
        avoid = [_word_heir(rng) for _ in range(rng.randint(0, 2))]
        count = _word_heir(rng) if not avoid or rng.random() < 0.7 else None
        cap = rng.choice([None, 0, 1, 2])
        each_length = case % 2 == 1
        lengths = range(n + 1) if each_length else [n]
        pats = [p for p in (*avoid, count) if p]
        heir = any(map(exhaustive._inherits, pats))
        inherited[heir] += 1
        counted = {k: [(seq.entries, [len(naive_occurrences(p, seq)) for p in pats])
                       for seq in _objects(Mode.WORD, k, t)] for k in lengths}
        want = [[] for _ in range(n + 1)]
        for k in lengths:
            for entries, found in counted[k]:
                c = found[-1] if count else 0
                if not any(found[:len(avoid)]) and (cap is None or c <= cap):
                    want[k].append((entries, c))
        case_id = (avoid, count, cap, t, n, each_length)
        plan = plan_scan(avoid, count, t, n, each_length)
        assert plan.path == "words" or not heir, case_id
        if plan.path == "words":
            assert _by_length(_expanded(plan, cap), n, t) == want, case_id
        if count:
            rows = [Counter(found[-1] for _, found in counted[k]) for k in lengths]
            tables = word_distributions(count, t, n) if each_length else [
                word_distribution(count, t, n)]
            assert [table.counts for table in tables] == rows, case_id
        if avoid:
            avoiders = [sum(not any(found[:len(avoid)]) for _, found in counted[k])
                        for k in lengths]
            assert (word_avoider_counts(avoid, t, n) if each_length
                    else [word_multi_avoiders(avoid, t, n)]) == avoiders, case_id
    assert inherited[True] >= 30, inherited


def test_reversed_patterns_have_the_same_word_distributions(rng):
    # reversal keeps every occurrence distribution; a pattern whose X_{m-1}
    # and X_m are P, and whose X_0 and X_1 are not both P, reverses to one
    # that the nodes do not inherit, so the two walks score by different
    # searches, at a length no per-object recount reaches
    inherited = 0
    for case in range(16):
        pat = _word_heir(rng)
        if pat.m > 1:
            pat = replace(pat, x=(rng.choice([finite([1]), finite([1, 2]), ODDS]),
                                  *pat.x[1:-2], POSITIVES, POSITIVES))
        twin = reversed_pattern(pat)
        assert reversed_pattern(twin) == pat
        inherited += exhaustive._inherits(pat) and not exhaustive._inherits(twin)
        t = case % 4 + 1
        assert word_distributions(pat, t, 8) == word_distributions(twin, t, 8), (pat, t)
    assert inherited >= 8, inherited


def test_every_length_perm_scans_equal_a_walk_per_length(rng):
    pats = [make_classical((1, 3, 2)), parse_gp("2-31"), _ODD_RISE]
    for _ in range(30):
        pat = random_order_only(rng) if rng.random() < 0.7 else random_pattern(
            rng, Mode.PERMUTATION)
        # half of them with a closing gap set of P
        x = pat.x[:-1] + (POSITIVES,) if rng.random() < 0.5 else pat.x
        pats.append(Pdvp(Mode.PERMUTATION, pat.base, x, pat.y, pat.z))
    for pat in pats:
        one_walk = order_only(pat) and pat.x[-1].steps == (1,)  # X_m holds P
        assert plan_scan((), pat, None, 6, each_length=True).one_walk == one_walk
        tables = perm_distributions(pat, 6)
        assert [table.length for table in tables] == list(range(7))
        for k, table in enumerate(tables):
            assert table.counts == perm_distribution(pat, k).counts, (pat, k)


def test_every_length_from_one_walk_equals_a_walk_per_length(rng):
    pats = [parse_pattern(text, Mode.WORD) for text in sorted(
        {text for text, _ in STAT_ALPHABETS.values()})]
    for _ in range(40):
        pat = random_pattern(rng, Mode.WORD)
        # half of them with a closing gap set of P, which takes the one walk
        x = pat.x[:-1] + (POSITIVES,) if rng.random() < 0.5 else pat.x
        pats.append(Pdvp(Mode.WORD, pat.base, x, pat.y, pat.z))
    for pat in pats:
        for t in range(1, 4):
            tables = word_distributions(pat, t, 6)
            assert [table.length for table in tables] == list(range(7))
            for n, table in enumerate(tables):
                assert table.counts == word_distribution(pat, t, n).counts, (pat, t, n)
            others = [random_pattern(rng, Mode.WORD) for _ in range(rng.randrange(2))]
            assert word_avoider_counts([pat] + others, t, 6) == [
                word_multi_avoiders([pat] + others, t, n) for n in range(7)
            ], (pat, others, t)


def test_every_length_scans_keep_the_budget(monkeypatch):
    pat = parse_pattern(STAT_ALPHABETS["d4"][0], Mode.WORD)
    monkeypatch.setenv("PDVP_BUDGET", str(4**9))
    with pytest.raises(EnumerationLimitError):
        word_distributions(pat, 4, 10)
    with pytest.raises(EnumerationLimitError):
        word_avoider_counts([pat], 4, 10)
    assert word_avoider_counts([pat], 4, 3) == [1, 4, 14, 44]


def _prefixes(n, t, tree=False):
    """The nonempty prefixes of the objects itertools enumerates: S_n (t None)
    or {1..t}^n; on the generating tree, each standardised."""
    objects = permutations(range(n)) if t is None else product(range(t), repeat=n)
    cut = _standardised if tree else tuple
    return {cut(obj[:d]) for obj in objects for d in range(1, n + 1)}


def _refusal(nodes, budget):
    return rf"^scan of {nodes} steps exceeds the budget {budget}$"


# A closing gap set of P lets one walk settle every length; {1} does not.
_FREE = "12|P,{2},P|(1,2,{2})|P,P"
_ANCHORED = "12|P,{2},{1}|(1,2,{2})|P,P"


def test_walk_nodes_are_the_prefixes_itertools_enumerates(monkeypatch):
    # an every-length scan walks each length, unless every closing gap set
    # is P and the scan is over words or on the generating tree
    anchored = [parse_pattern(_ANCHORED, Mode.WORD)]
    cases = [(t, anchored, False, False) for t in (1, 2, 3, 4)] + [
        (None, [_ODD_RISE], False, False),  # the value walk
        (None, [parse_pattern("12|P,P,{1}|-|P,P")], True, False),  # the tree, anchored
        (None, [], True, True),  # the tree
    ]
    for t, pats, tree, one_walk in cases:
        total = 0  # the nodes of one walk of each length 0..n
        for n in range(7):
            # by values, S_1 holds no position an occurrence of a pair can use
            nodes = len(_prefixes(n, t, tree)) if t or tree or n > 1 else 0
            total += nodes
            for each_length, want in ((False, nodes), (True, nodes if one_walk else total)):
                monkeypatch.setenv("PDVP_BUDGET", str(want))
                plan_scan(pats, None, t, n, each_length)
                if want:
                    monkeypatch.setenv("PDVP_BUDGET", str(want - 1))
                    with pytest.raises(EnumerationLimitError, match=_refusal(want, want - 1)):
                        plan_scan(pats, None, t, n, each_length)


def test_scan_budget_boundaries(monkeypatch):
    monkeypatch.delenv("PDVP_BUDGET", raising=False)
    anchored = [parse_pattern(_ANCHORED, Mode.WORD)]
    start = time.perf_counter()
    # a word scan's patterns are not statistics here, so that it walks
    plan_scan([_ODD_RISE], None, None, 10)
    plan_scan((), None, None, 11)  # the generating tree: 43954713 nodes
    plan_scan(anchored, None, 2, 25)
    for pats, t, n, nodes in (([_ODD_RISE], None, 11, 108505111), ((), None, 12, 522956313),
                              (anchored, 2, 26, 2**27 - 2), (anchored, 10, 8, 111111110)):
        with pytest.raises(EnumerationLimitError, match=_refusal(nodes, 10**8)):
            plan_scan(pats, None, t, n)
    # inputs far past the budget are refused as fast; a count too long to
    # print is named by its lower bound
    for t, n in ((None, 10**12), (3, 10**9), (10**50, 10**9)):
        with pytest.raises(EnumerationLimitError, match=r"^scan of at least 10\^5177 steps "):
            plan_scan(() if t is None else anchored, None, t, n, each_length=True)
    with pytest.raises(EnumerationLimitError, match=_refusal(10**9 * (10**9 + 1) // 2, 10**8)):
        plan_scan(anchored, None, 1, 10**9, each_length=True)
    # a walk of 10^8 one-letter positions fits the steps but not the bits
    with pytest.raises(EnumerationLimitError,
                       match=r"^scan of 76800000000 bits exceeds the bound 1073741824$"):
        plan_scan(anchored, None, 1, 10**8)
    assert time.perf_counter() - start < 1
    # a word space whose node count equals the budget runs; one node more
    # does not (the pattern's interior gap set is infinite, so it is walked)
    pat = parse_pattern("12|P,P,P|(1,2,{1})|P,P", Mode.WORD)
    monkeypatch.setenv("PDVP_BUDGET", str(3 + 9 + 27 + 81 + 243))
    assert word_multi_avoiders([pat], 3, 5) == sum(
        1 for w in product((1, 2, 3), repeat=5) if not naive_occurrences(pat, WordSequence(w, 3))
    )
    monkeypatch.setenv("PDVP_BUDGET", str(3 + 9 + 27 + 81 + 243 - 1))
    with pytest.raises(EnumerationLimitError, match=_refusal(363, 362)):
        word_multi_avoiders([pat], 3, 5)


@pytest.mark.parametrize(
    "scan, nodes",
    [
        # by values: 5 + 20 + 60 + 120 + 120 nodes over S_5, and one walk per
        # length, 4 + 15 + 64 + 325, over S_2..S_5 (in S_1 no pair occurs, so
        # its walk has no node); a mixed avoid set walks by values
        (lambda: perm_distribution(_ODD_RISE, 5), 325),
        (lambda: perm_multi_avoiders([_ODD_RISE], 5), 325),
        (lambda: perm_multi_avoiders([make_classical((1, 2)), _ODD_RISE], 5), 325),
        (lambda: perm_distributions(_ODD_RISE, 5), 408),
        # the generating tree: 1! + 2! + 3! + 4! + 5!, every length at once
        (lambda: perm_distribution(make_classical((1, 2, 3)), 5), 153),
        (lambda: perm_multi_avoiders([make_classical((1, 2))], 5), 153),
        (lambda: perm_distributions(make_classical((1, 2, 3)), 5), 153),
        # the rank dp of classical 12, which keeps no rank: 15 transitions
        # (1 + .. + 5), each 1 + (2 + 5) loop steps and 1 chunk, and 11
        # decoded slots
        (lambda: perm_distribution(make_classical((1, 2)), 5), 146),
        (lambda: two_stack_sortable_counts(5, True, True), 153),
        (lambda: problem_report(4, 5), 153),
        (lambda: word_distribution(parse_pattern(_FREE, Mode.WORD), 3, 4), 120),
        (lambda: word_multi_avoiders([parse_pattern(_FREE, Mode.WORD)], 3, 4), 120),
        (lambda: word_distributions(parse_pattern(_FREE, Mode.WORD), 3, 4), 120),
        (lambda: word_avoider_counts([parse_pattern(_FREE, Mode.WORD)], 3, 4), 120),
        # one walk of each length 1..4: 3 + 12 + 39 + 120
        (lambda: word_distributions(parse_pattern(_ANCHORED, Mode.WORD), 3, 4), 174),
        (lambda: word_avoider_counts([parse_pattern(_ANCHORED, Mode.WORD)], 3, 4), 174),
    ],
)
def test_every_scan_entry_point_checks_the_budget(monkeypatch, scan, nodes):
    monkeypatch.setenv("PDVP_BUDGET", str(nodes - 1))
    with pytest.raises(EnumerationLimitError, match=_refusal(nodes, nodes - 1)):
        scan()
    monkeypatch.setenv("PDVP_BUDGET", str(nodes))
    scan()


def test_long_one_letter_words():
    # one object of length 3000: the walk must not recurse once per position
    adjacent_equal = parse_pattern("11|P,{1},P|-|P,P", Mode.WORD)
    rise = parse_pattern("12|P,{2},P|(1,2,{2})|P,P", Mode.WORD)
    assert dict(word_distribution(adjacent_equal, 1, 3000).counts) == {2999: 1}
    assert dict(word_distribution(rise, 1, 3000).counts) == {0: 1}
    assert word_multi_avoiders([rise], 1, 3000) == 1
    assert word_multi_avoiders([adjacent_equal], 1, 3000) == 0
    # 10000 positions walk a node each
    start = time.perf_counter()
    assert dict(word_distribution(adjacent_equal, 1, 10000).counts) == {9999: 1}
    assert word_multi_avoiders([adjacent_equal], 1, 10000) == 0
    assert time.perf_counter() - start < 1


def _ank_recount(blocks, n_max):
    """`_ank_scan(n_max)` of the V-permutations that avoid `blocks`, by the
    per-object filter."""
    scans = []
    for n in range(n_max + 1):
        want = {k: [0, 0] for k in (1, 2, 3)}
        for seq in _objects(Mode.PERMUTATION, n, None):
            if any(naive_occurrences(b, seq) for b in blocks):
                continue
            for k in (1, 2, 3):
                c = len(naive_occurrences(_shifted_rise_pattern(k), seq))
                if c <= 1:
                    want[k][c] += 1
        scans.append({k: tuple(v) for k, v in want.items()})
    return tuple(scans)


def test_ank_scan_equals_per_object_recount():
    assert _ank_scan(7) == _ank_recount([parse_gp("231"), parse_gp("132")], 7)


# Word scans of bounded-window patterns read the window automaton by the
# rule the rank dp follows: when its predicted steps are at most the walk's
# nodes and it fits, or the walk does not.  The tests call `series_rows`
# itself wherever the plan walks, so the series is compared at every size.
# The walks, every-length ones included, are its oracle here, beside the
# per-word naive recount.


def _random_window_pattern(rng):
    """A random word pattern that transfer.StatPattern accepts: boundary gap
    sets P (sometimes written P+E), finite interior gap sets and Y triples on
    pattern indices only."""
    m = rng.randint(1, 3)
    k = rng.randint(1, m)
    base = list(range(1, k + 1)) + [rng.randint(1, k) for _ in range(m - k)]
    rng.shuffle(base)
    ends = [rng.choice([POSITIVES, POSITIVES | EVENS]) for _ in range(2)]
    inner = [finite(rng.sample(range(1, 4), rng.randint(1, 2))) for _ in range(m - 1)]
    y = []
    for _ in range(rng.randrange(3) if m > 1 else 0):
        s = rng.randint(1, m - 1)
        y.append(YTriple(s, rng.randint(s + 1, m), random_set(rng)))
    z = tuple(random_set(rng) for _ in range(m))
    pat = Pdvp(Mode.WORD, tuple(base), (ends[0], *inner, ends[1]), tuple(y), z)
    StatPattern(pat)  # admissible
    return pat


def _no_walk(*args, **kwargs):
    raise AssertionError("the window automaton should have answered")


def test_long_one_letter_words_read_one_row():
    # series_rows keeps and decodes only the rows asked for, here one of 12001
    adjacent_equal = parse_pattern("11|P,{1},P|-|P,P", Mode.WORD)
    start = time.perf_counter()
    assert series_rows([StatPattern(adjacent_equal)], 1, 12000, 1) == [{11999: 1}]
    assert time.perf_counter() - start < 1
    # the walk's 12000 nodes are fewer than the series' steps, so the plan walks
    assert plan_scan([], adjacent_equal, 1, 12000).path == "words"
    assert dict(word_distribution(adjacent_equal, 1, 12000).counts) == {11999: 1}


def test_window_pattern_scans_equal_the_walks_and_the_naive_recount(rng):
    for _ in range(40):
        pat = _random_window_pattern(rng)
        t, n = rng.randint(1, 3), rng.randint(0, 7)
        hist = _naive_histogram(pat, _objects(Mode.WORD, n, t))
        walked = word_distributions(pat, t, n)[n]
        avoiders = word_avoider_counts([pat], t, n)[n]
        [row] = series_rows([StatPattern(pat)], t, n, 1)
        got = word_distribution(pat, t, n)  # by the path of its plan
        assert word_multi_avoiders([pat], t, n) == avoiders == row.get(0, 0) == hist.get(0, 0), (
            pat, t, n)
        assert got.length == n
        assert list(got.counts.items()) == list(walked.counts.items()) == list(row.items()) == (
            sorted(hist.items())), (pat, t, n)


def _random_avoid_sets(rng):
    """The empty set, then sets of one to three window patterns."""
    sets = [[]] + [[_random_window_pattern(rng) for _ in range(rng.randint(1, 3))]
                   for _ in range(30)]
    widths = [{StatPattern(p).window_width for p in pats} for pats in sets]
    assert sum(len(w) > 1 for w in widths) >= 5  # mixed window widths
    return sets


def test_window_avoid_sets_equal_the_walks_and_the_naive_recount(rng):
    for pats in _random_avoid_sets(rng):
        t, n = rng.randint(1, 3), rng.randint(0, 7)
        naive = sum(
            1 for seq in _objects(Mode.WORD, n, t)
            if not any(naive_occurrences(p, seq) for p in pats)
        )
        walked = word_avoider_counts(pats, t, n)[n]
        [row] = series_rows([StatPattern(p) for p in pats], t, n, 1)
        assert word_multi_avoiders(pats, t, n) == walked == row.get(0, 0) == naive, (pats, t, n)


def test_series_refusals_fall_back_to_the_walk(monkeypatch):
    # over 4097 letters the series of the rise does not fit, the walk's 4097
    # nodes do: the plan walks, and the series alone is refused at once
    pat = parse_pattern("12|P,{1},P|(1,2,{1})|P,P", Mode.WORD)
    start = time.perf_counter()
    assert not budget.check_work(
        "scan", *transfer.series_work((StatPattern(pat),), 4097, 1, 1), refuse=False)
    assert plan_scan([], pat, 4097, 1).path == "words"
    with pytest.raises(EnumerationLimitError, match=r"^series of \d+ steps exceeds the budget"):
        transfer.dp_series(StatPattern(pat), 4097, 1)
    assert time.perf_counter() - start < 1
    walks = []
    walk = exhaustive.prefix_walk
    monkeypatch.setattr(
        exhaustive, "prefix_walk", lambda *a, **k: walks.append(a) or walk(*a, **k)
    )
    assert dict(word_distribution(pat, 4097, 1).counts) == {0: 4097}
    assert word_multi_avoiders([pat], 4097, 1) == 4097
    assert len(walks) == 2
    # a pattern StatPattern refuses (an infinite interior gap set) walks too
    wide = parse_pattern("12|P,P,P|-|P,P", Mode.WORD)
    assert dict(word_distribution(wide, 2, 3).counts) == {0: 4, 1: 2, 2: 2}
    assert word_multi_avoiders([pat, wide], 2, 3) == 4
    assert len(walks) == 4
    # so does a window too wide to count its states: 2^(10^12) of them
    huge = parse_pattern("12|P,{1000000000000},P|-|P,P", Mode.WORD)
    assert dict(word_distribution(huge, 2, 3).counts) == {0: 8}
    assert word_multi_avoiders([huge], 2, 3) == 8
    assert len(walks) == 6
    assert time.perf_counter() - start < 1


def test_routed_rows_are_sized_by_the_automaton(monkeypatch):
    # 2^31 - 2 walk nodes, but the automaton's row takes a few hundred steps
    rise = parse_pattern("12|P,{1},P|(1,2,{1})|P,P", Mode.WORD)
    monkeypatch.setattr(exhaustive, "prefix_walk", _no_walk)
    table = word_distribution(rise, 2, 30)
    assert table.total() == 2**30 and table[15] == 1
    assert word_multi_avoiders([rise], 2, 30) == 31


def _cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_word_scans_print_what_the_walk_prints(rng, capsys, monkeypatch):
    runs = []
    for _ in range(15):
        pat = _random_window_pattern(rng)
        t, n = rng.randint(1, 3), rng.randint(0, 7)
        runs.append(["dist", "--pattern", render_pattern(pat),
                      "--word-n", str(n), "--alphabet", str(t)])
    for pats in _random_avoid_sets(rng)[:15]:
        t, n = rng.randint(1, 3), rng.randint(0, 7)
        flags = [arg for p in pats for arg in ("--pattern", render_pattern(p))]
        runs.append(["avoid", *flags, "--word-n", str(n), "--alphabet", str(t)])
    walk, plan_of = exhaustive.prefix_walk, exhaustive.plan_scan

    def series_plan(avoid, count, t, n, *rest):  # checks the series' work last, as a plan would
        plan = plan_of(avoid, count, t, n, *rest)
        sps = tuple(StatPattern(p) for p in (*avoid, count) if p is not None)
        budget.check_work("scan", *transfer.series_work(sps, t, n, 1))
        return replace(plan, path="series")

    for argv in runs:
        for fmt in ("text", "json"):
            routed = _cli(capsys, ["--format", fmt, *argv])  # by the path of its plan
            # a plan sent to the series reads its row
            with monkeypatch.context() as patched:
                patched.setattr(exhaustive, "prefix_walk", _no_walk)
                patched.setattr(exhaustive, "plan_scan", series_plan)
                series = _cli(capsys, ["--format", fmt, *argv])
            # the plan takes the series only when it predicts no more steps
            # than the walk: a series predicted past every budget forces the
            # word walk
            walks = []
            with monkeypatch.context() as patched:
                patched.setattr(transfer, "series_work", lambda *a: (budget.ceiling(), 0))
                patched.setattr(exhaustive, "prefix_walk",
                                lambda plan, *a, **k: walks.append(plan) or walk(plan, *a, **k))
                walked = _cli(capsys, ["--format", fmt, *argv])
            assert [plan.path for plan in walks] == ["words"], argv
            assert routed == series == walked, argv
            assert routed[0] == 0 and routed[2] == "", argv


# The plan: one place validates a scan, picks its path and checks its work.

_WORD_PAIR = parse_pattern("12|P,P,P|-|P,P", Mode.WORD)


@pytest.mark.parametrize(
    "scan, mode",
    [
        # sizes far past the budget: the wrong mode is named, not the work
        (lambda: perm_distribution(_WORD_PAIR, 30), "permutation"),
        (lambda: perm_distributions(_WORD_PAIR, 30), "permutation"),
        (lambda: perm_multi_avoiders([make_classical((1, 2)), _WORD_PAIR], 30), "permutation"),
        (lambda: word_distribution(make_classical((1, 2)), 3, 30), "word"),
        (lambda: word_distributions(make_classical((1, 2)), 3, 30), "word"),
        (lambda: word_multi_avoiders([_WORD_PAIR, make_classical((1, 2))], 3, 30), "word"),
        (lambda: word_avoider_counts([make_classical((1, 2))], 3, 30), "word"),
        (lambda: plan_scan([_WORD_PAIR], make_classical((1, 2)), 3, 30), "word"),
    ],
)
def test_modes_are_checked_before_the_budget(scan, mode):
    with pytest.raises(ValueError, match=rf"^{mode} scan needs {mode}-mode patterns$"):
        scan()


def test_cli_names_the_mode_before_the_budget(capsys, monkeypatch):
    # the CLI parses each pattern in the scan's mode, so a mismatch can only
    # come from a caller; it exits 2 with the mode message all the same
    monkeypatch.setattr(cli, "parse_pattern", lambda text, mode: make_classical((1, 2)))
    code, out, err = _cli(capsys, ["dist", "--pattern", "12", "--word-n", "30", "--alphabet", "3"])
    assert (code, out, err) == (2, "", "error: word scan needs word-mode patterns\n")


def _statistic(pat):
    try:
        StatPattern(pat)
    except ValueError:
        return False
    return True


def _random_scan(rng):
    """Random scan inputs (avoid, count, t, n, each_length): permutation or
    word patterns, about half of them of the kind the tree or the series
    takes, an avoid set of up to two and a counted pattern or none."""
    perm = rng.random() < 0.5

    def pattern():
        if rng.random() < 0.5:
            return random_order_only(rng) if perm else _random_window_pattern(rng)
        return random_pattern(rng, Mode.PERMUTATION if perm else Mode.WORD)

    count = pattern() if rng.random() < 0.5 else None
    avoid = [pattern() for _ in range(rng.randint(0, 2))]
    return avoid, count, None if perm else rng.randint(1, 3), rng.randint(0, 6), rng.random() < 0.5


def _rank_keep(pat):
    """K for a pattern the rank dp counts, or None: X_0 and X_m hold every
    gap, X_2..X_{m-1} are finite, and X_1 is finite or holds every gap,
    when slot 0 floats and X_1 adds nothing to K, the sum of the maxima."""
    every = [all(g in gaps for g in range(1, 50)) for gaps in pat.x]
    maxima = [gaps.finite_bound() for gaps in pat.x[1:-1]]
    if pat.m > 1 and every[1]:
        maxima[0] = 0
    return sum(maxima) if every[0] and every[-1] and None not in maxima else None


def test_the_plan_picks_the_path_by_its_rules(rng, monkeypatch):
    seen = set()
    for case in range(300):
        avoid, count, t, n, each_length = _random_scan(rng)
        if case % 5 == 0:  # a count that the rank dp may take
            avoid, count, t = [], _rank_pattern(rng), None
        pats = avoid + [count] * (count is not None)
        plan = plan_scan(avoid, count, t, n, each_length)
        assert (plan.avoid, plan.count, plan.t, plan.n) == (tuple(avoid), count, t, n)
        keep = _rank_keep(count) if t is None and count and not avoid else None
        ranks = keep is not None and order_only(count) and _dp_wins(
            transfer.rank_work(count, n, n + 1 if each_length else 1), _tree_nodes(n))
        assert (plan.path == "ranks") == ranks, (count, n)
        assert (plan.path == "tree") == (t is None and all(map(order_only, pats)) and not ranks)
        single = not each_length and not (avoid and count)
        series = t is not None and single and all(map(_statistic, pats)) and _dp_wins(
            transfer.series_work(tuple(map(StatPattern, pats)), t, n, 1), _word_walk_nodes(t, n))
        assert (plan.path == "series") == series, (avoid, count, t, n, each_length)
        assert plan.path in (("ranks", "tree", "values") if t is None else ("series", "words"))
        closing_p = all(pat.x[-1].steps == (1,) for pat in pats)
        assert plan.one_walk == (not each_length or plan.path != "values" and closing_p)
        seen.add((plan.path, plan.one_walk))
    assert seen == {(path, True) for path in ("ranks", "series", "tree", "values", "words")} | {
        ("tree", False), ("values", False), ("words", False)}
    # a series whose work does not fit walks: at n = 0 the walk has no node
    monkeypatch.setenv("PDVP_BUDGET", "0")
    assert plan_scan([_random_window_pattern(rng)], None, 2, 0).path == "words"
    # the rank dp of gp:2-31 predicts 421 steps over S_5 and 797 over S_6,
    # the walk 153 and 873 nodes: the path with fewer steps, unless only the
    # other fits, and when neither fits, the one with fewer steps is refused
    dashed = parse_gp("2-31")
    for budget_steps, n, path in ((10**8, 5, "tree"), (10**8, 6, "ranks"), (152, 5, 153),
                                  (872, 6, "ranks"), (796, 6, 797)):
        monkeypatch.setenv("PDVP_BUDGET", str(budget_steps))
        if isinstance(path, int):
            with pytest.raises(EnumerationLimitError, match=rf"^scan of {path} steps "):
                plan_scan([], dashed, None, n)
        else:
            assert plan_scan([], dashed, None, n).path == path, (budget_steps, n)
    # K = 6 when both interior gap sets are {1, 2, 3}: the dp predicts more
    # steps than the walk has nodes up to S_11, so the walk counts it as far
    # as it fits; over S_12 neither fits, and the dp's fewer steps are named
    monkeypatch.delenv("PDVP_BUDGET")
    wide = replace(parse_gp("123"), x=(POSITIVES, finite([1, 2, 3]), finite([1, 2, 3]), POSITIVES))
    assert [plan_scan([], wide, None, n).path for n in (8, 11)] == ["tree", "tree"]
    with pytest.raises(EnumerationLimitError, match=r"^scan of 188133346 steps "):
        plan_scan([], wide, None, 12)
    # the same rule for a word scan: the rise by 2 at distance 2 over 4
    # letters predicts more series steps than the walk's nodes up to n = 5,
    # fewer from n = 6; at n = 40 only the series fits the default budget,
    # and under a budget of 100 neither does, and the series' steps are named
    rise = parse_pattern("12|P,{2},P|(1,2,{2})|P,P", Mode.WORD)
    sps = (StatPattern(rise),)
    for n in range(1, 7):
        steps = transfer.series_work(sps, 4, n, 1)[0]
        assert (steps <= _word_walk_nodes(4, n)) == (n == 6), n
        assert plan_scan([], rise, 4, n).path == ("series" if n == 6 else "words"), n
    assert plan_scan([], rise, 4, 40).path == "series"
    assert transfer.series_work(sps, 4, 40, 1)[0] == 7305
    monkeypatch.setenv("PDVP_BUDGET", "100")
    with pytest.raises(EnumerationLimitError, match=r"^scan of 7305 steps exceeds the budget 100$"):
        plan_scan([], rise, 4, 40)


def _tree_nodes(n):
    return sum(map(factorial, range(1, n + 1)))


def _word_walk_nodes(t, n):
    return sum(t**d for d in range(1, n + 1))


def _dp_wins(work, nodes):
    """Whether a scan that a dp admits takes it, given the dp's predicted
    (steps, bits) and the nodes of the walk it would replace: the dp
    predicts at most as many steps as the walk has nodes, and it fits or
    the walk does not (the walk's bits, a few per position, always fit
    here)."""
    steps, bits = work
    return steps <= nodes and (budget.check_work("scan", steps, bits, refuse=False)
                               or not budget.check_work("scan", nodes, 0, refuse=False))


def test_word_scans_take_the_path_predicted_to_do_less(rng, monkeypatch):
    # single-length statistic scans: an avoid set or one counted pattern
    seen = Counter()
    for _ in range(300):
        pats = [_random_window_pattern(rng) for _ in range(rng.randint(0, 3))]
        avoid, count = ([], pats[0]) if pats and rng.random() < 0.5 else (pats, None)
        t, n = rng.randint(1, 4), rng.randint(0, 10)
        case = (avoid, count, t, n)
        monkeypatch.delenv("PDVP_BUDGET", raising=False)
        plan = plan_scan(avoid, count, t, n)
        stats = [count] if count else avoid
        assert (plan.path == "series") == _dp_wins(
            transfer.series_work(tuple(map(StatPattern, stats)), t, n, 1),
            _word_walk_nodes(t, n)), case
        seen[plan.path] += 1
        # under a budget of exactly the chosen path's steps, the path is the same
        sps = tuple(map(StatPattern, stats))
        steps = transfer.series_work(sps, t, n, 1)[0] if plan.path == "series" else (
            _word_walk_nodes(t, n))
        monkeypatch.setenv("PDVP_BUDGET", str(steps))
        assert plan_scan(avoid, count, t, n).path == plan.path, case
    assert seen["series"] >= 30 and seen["words"] >= 30
    # the gap-7 rise at t = 4 walks 84 nodes rather than step 21845 states
    gap7 = parse_pattern("12|P,{7},P|(1,2,{2})|P,P", Mode.WORD)
    monkeypatch.delenv("PDVP_BUDGET")
    assert plan_scan([], gap7, 4, 3).path == "words"
    assert plan_scan([], gap7, 4, 30).path == "series"


def _naive_rows(avoid, count, t, n):
    """For k = 0..n, {occurrences of count: objects} over the objects of length
    k that avoid every pattern of `avoid`, by the per-object filter."""
    mode = Mode.PERMUTATION if t is None else Mode.WORD
    return [
        Counter(len(naive_occurrences(count, seq)) if count else 0
                for seq in _objects(mode, k, t)
                if not any(naive_occurrences(p, seq) for p in avoid))
        for k in range(n + 1)
    ]


def test_every_entry_point_equals_the_per_object_filter(rng):
    for _ in range(60):
        avoid, count, t, n, _ = _random_scan(rng)
        want = _naive_rows(avoid, count, t, n)
        case = (avoid, count, t, n)
        if count is None and t is None:
            assert perm_multi_avoiders(avoid, n) == want[n][0], case
        elif count is None:
            assert word_multi_avoiders(avoid, t, n) == want[n][0], case
            assert word_avoider_counts(avoid, t, n) == [row[0] for row in want], case
        elif not avoid:
            single = perm_distribution(count, n) if t is None else word_distribution(count, t, n)
            every = perm_distributions(count, n) if t is None else word_distributions(count, t, n)
            assert list(single.counts.items()) == sorted(want[n].items()), case
            assert [table.length for table in every] == list(range(n + 1)), case
            assert [list(table.counts.items()) for table in every] == [
                sorted(row.items()) for row in want], case
        else:  # no entry point both avoids and counts: weigh the plan's stream by length
            plan = plan_scan(avoid, count, t, n, each_length=True)
            assert _weighed(plan, _expanded(plan)) == want, case


def test_prefix_walk_refuses_a_walk_its_plan_did_not_check():
    # 241 series steps against the walk's 510 nodes
    series = plan_scan([parse_pattern(_FREE, Mode.WORD)], None, 2, 8)
    assert series.path == "series"
    with pytest.raises(ValueError, match="^a series plan of length 8 has no walk$"):
        next(prefix_walk(series))
    ranks = plan_scan([], parse_gp("2-31"), None, 8)
    assert ranks.path == "ranks"
    with pytest.raises(ValueError, match="^a ranks plan of length 8 has no walk$"):
        next(prefix_walk(ranks))


def _per_length_scans(rng):
    """Scans (avoid, count, t, n) whose every-length plan walks each length:
    value-walk patterns, and patterns whose closing gap set is not P."""
    anchored = Pdvp(Mode.PERMUTATION, (1, 2), (POSITIVES, POSITIVES, finite([1])), (),
                    (POSITIVES, POSITIVES))
    scans = [([_ODD_RISE], None, None, 6), ([], _ODD_RISE, None, 6),
             ([anchored], make_classical((1, 2)), None, 6),
             ([parse_pattern(_ANCHORED, Mode.WORD)], None, 2, 6),
             ([], parse_pattern(_ANCHORED, Mode.WORD), 3, 5)]
    while len(scans) < 30:
        perm = rng.random() < 0.5
        mode = Mode.PERMUTATION if perm else Mode.WORD
        pats = [random_pattern(rng, mode) for _ in range(rng.randint(1, 3))]
        count = pats.pop() if rng.random() < 0.5 else None
        scan = (pats, count, None if perm else rng.randint(1, 3), rng.randint(0, 5))
        if not plan_scan(*scan, each_length=True).one_walk:
            scans.append(scan)
    return scans


def test_a_plan_that_walks_each_length_streams_them_all(rng):
    # grouped by length, the stream equals each length's own scan and the
    # per-object filter
    for avoid, count, t, n in _per_length_scans(rng):
        case = (avoid, count, t, n)
        plan = plan_scan(avoid, count, t, n, each_length=True)
        rows = _by_length(_expanded(plan), n, t)
        want = _naive_rows(avoid, count, t, n)
        weighed = _weighed(plan, _expanded(plan))
        assert weighed == want, case
        for k, row in enumerate(rows):
            single = plan_scan(avoid, count, t, k)
            if single.path != "series":
                assert row == _by_length(_expanded(single), k, t)[k], (case, k)
            if count is None:
                got = perm_multi_avoiders(avoid, k) if t is None else word_multi_avoiders(
                    avoid, t, k)
                assert got == weighed[k][0], (case, k)
            elif not avoid:
                table = perm_distribution(count, k) if t is None else word_distribution(
                    count, t, k)
                assert table.counts == want[k], (case, k)


def _stack_sortable(avoid, n):
    """The 2-stack-sortable permutations of S_n that avoid `avoid`, by the
    per-object filter: for each of them its occurrences of 123."""
    return [len(naive_occurrences(make_classical((1, 2, 3)), PermSequence(pi)))
            for pi in permutations(range(1, n + 1))
            if not naive_occurrences(avoid, PermSequence(pi))
            and stack_sort(stack_sort(pi)) == tuple(range(1, n + 1))]


def test_the_every_length_loops_take_a_plan_that_walks_each_length(monkeypatch):
    # problem 4 and the ank check tally one stream by length: with a block
    # anchored at the end or read by values, their plans walk each length
    anchored = Pdvp(Mode.PERMUTATION, (1, 3, 2), (POSITIVES,) * 3 + (finite([1]),), (),
                    (POSITIVES,) * 3)
    monkeypatch.setattr(problems, "_CLASSICAL_132", anchored)
    assert not plan_scan([anchored], None, None, 6, each_length=True).one_walk
    rows = [_stack_sortable(anchored, n) for n in range(7)]
    assert two_stack_sortable_counts(6, True) == [len(row) for row in rows]
    assert two_stack_sortable_counts(6, True, True) == [row.count(1) for row in rows]
    odd_descent = parse_pattern("21|P,{1},P|-|O,P")
    monkeypatch.setattr(checks, "_CONS_231", odd_descent)
    assert plan_scan([odd_descent], None, None, 6, each_length=True).path == "values"
    assert _ank_scan(6) == _ank_recount([odd_descent, parse_gp("132")], 6)


# Value walks fill only the positions and values some occurrence can use;
# each leaf stands for P(e, j) (n - p)! permutations.  Their oracle is the
# per-object filter, beside the closed forms of the k4n check.

_K4N = "12|O,4P,P|(1,2,4P)|O,P"


def _reduced_nodes(p, r, e):
    """The unpruned nodes of a value walk over p positions, r relevant values
    and e placeholders: prefixes of length d = 1..p holding j <= e of them."""
    return sum(comb(d, j) * perm(r, d - j) for d in range(1, p + 1) for j in range(min(d, e) + 1))


def test_the_value_walk_counts_k4n_past_the_old_cap():
    # S_12 by values was 1302061344 nodes; the relevant ones are 18702, and
    # 1952456 at S_16
    pat = checks.mod4_pattern()
    assert perm_multi_avoiders([pat], 12) == formulas.k4n_exact(3) == 360000000
    assert perm_multi_avoiders([pat], 16) == formulas.k4n_exact(4) == 11239480062720


def test_k4n_budget_boundary_at_s12(monkeypatch):
    # odd positions and odd values only: 6 of each in S_12, and 6 placeholders
    pat = parse_pattern(_K4N)
    (cut,) = plan_scan([pat], None, None, 12).cuts
    odd = tuple(range(1, 12, 2))
    assert (cut.positions, cut.values, cut.star) == (odd, (1, 2, *odd[1:]), 2)
    assert cut.weights == tuple(perm(6, j) * factorial(6) for j in range(7))
    nodes = _reduced_nodes(6, 6, 6)
    assert nodes == 18702
    monkeypatch.setenv("PDVP_BUDGET", str(nodes))
    assert perm_multi_avoiders([pat], 12) == 360000000
    monkeypatch.setenv("PDVP_BUDGET", str(nodes - 1))
    with pytest.raises(EnumerationLimitError, match=_refusal(nodes, nodes - 1)):
        perm_multi_avoiders([pat], 12)
    # with every position and value relevant the count is the whole value
    # walk's, as for the odd rise at S_11 (test_perm_limit_error_names_limit)
    assert _reduced_nodes(11, 11, 0) == 108505111


def test_relevance_does_not_depend_on_spelling(monkeypatch):
    # Z_1 written as its members up to 8, or as the odd numbers
    odd, listed = parse_pattern(_K4N), parse_pattern("12|O,4P,P|(1,2,4P)|{1,3,5,7},P")
    assert odd != listed and not order_only(odd) and not order_only(listed)
    assert plan_scan([odd], None, None, 8).cuts == plan_scan([listed], None, None, 8).cuts
    assert perm_multi_avoiders([odd], 8) == perm_multi_avoiders([listed], 8) == 37488
    monkeypatch.setenv("PDVP_BUDGET", "0")
    for pat in (odd, listed):
        with pytest.raises(EnumerationLimitError, match=_refusal(_reduced_nodes(4, 4, 4), 0)):
            perm_multi_avoiders([pat], 8)


def _cut_set(rng):
    """O, E, kP (k = 2..4) or a finite set of 0..7, now and then P."""
    return rng.choice([ODDS, ODDS, EVENS, EVENS, POSITIVES, multiples(rng.randint(2, 4)),
                       finite(rng.sample(range(0, 8), rng.randint(1, 4)))])


def _cut_pattern(rng):
    """A random permutation pattern of up to three slots whose X, Z and Y
    sets are O, E, kP or finite, Y triples on the sentinels included."""
    m = rng.randint(1, 3)
    base = list(range(1, m + 1))
    rng.shuffle(base)
    y = []
    for _ in range(rng.randrange(3)):
        s = rng.randrange(0, m + 1)
        y.append(YTriple(s, rng.randrange(s + 1, m + 2), _cut_set(rng)))
    return Pdvp(Mode.PERMUTATION, tuple(base), tuple(_cut_set(rng) for _ in range(m + 1)),
                tuple(y), tuple(_cut_set(rng) for _ in range(m)))


def test_value_walks_weigh_their_leaves_as_the_per_object_filter_counts(rng):
    # avoid sets and counted patterns, with and without a cap, n <= 7: the
    # weighed stream of every length equals the per-object filter's rows
    skipped = 0
    objects = {k: _objects(Mode.PERMUTATION, k, None) for k in range(8)}
    for counted, capped in [(False, False), (True, False), (True, True)] * 8:
        n = rng.randint(3, 7)
        avoid = [_cut_pattern(rng) for _ in range(rng.randint(not counted, 2))]
        count = _cut_pattern(rng) if counted else None
        cap = rng.choice([0, 1, 2]) if capped else None
        plan = plan_scan(avoid, count, None, n, each_length=True)
        assert plan.path == "values"
        skipped += not _whole(plan)
        want = [Counter() for _ in range(n + 1)]
        for k in range(n + 1):
            for seq in objects[k]:
                if not any(naive_occurrences(p, seq) for p in avoid):
                    c = len(naive_occurrences(count, seq)) if counted else 0
                    if cap is None or c <= cap:
                        want[k][c] += 1
        case = (avoid, count, cap, n)
        assert _weighed(plan, _expanded(plan, cap)) == want, case
        if count is None:
            assert perm_multi_avoiders(avoid, n) == want[n][0], case
        elif not avoid and cap is None:
            assert [table.counts for table in perm_distributions(count, n)] == want, case
    assert skipped >= 18
