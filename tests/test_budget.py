"""The one work model: every budgeted computation predicts its steps and bits
before it starts, and does no more than it predicted.

The autouse `work_meter` fixture (conftest.py) checks counted against
predicted steps around every test of the suite; the tests here add the
benchmark's jobs, one input of each kind, and the bits, measured with
tracemalloc.
"""

import contextlib
import importlib
import io
import math
import re
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from conftest import longest_printable

from pdvp import budget, checks, cli, exhaustive, problems, transfer
from pdvp.budget import EnumerationLimitError, check_work
from pdvp.dsl import parse_pattern
from pdvp.pattern import Mode, make_classical
from pdvp.transfer import StatPattern

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# the benchmark's word jobs that the window automaton answers; the other
# word jobs walk (seeded_dist_word_t3n8 has an infinite interior gap set)
AUTOMATON_JOBS = {"dist_P_t4n8", "dist_S_t4n8", "avoid_pair_t3n10", "seeded_avoid_word_t3n7"}


def _workloads(monkeypatch):
    """perfbench/workloads.py, imported without writing any file there."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    return importlib.import_module("workloads")


def _run(job):
    """The budgeted call of one benchmark job, as perfbench/child.py makes it."""
    kind, perm, word = job["kind"], Mode.PERMUTATION, Mode.WORD
    if kind == "perm_dist":
        exhaustive.perm_distribution(parse_pattern(job["pattern"], perm), job["n"])
    elif kind == "word_dist":
        exhaustive.word_distribution(parse_pattern(job["pattern"], word), job["t"], job["n"])
    elif kind == "perm_avoid":
        exhaustive.perm_multi_avoiders([parse_pattern(p, perm) for p in job["patterns"]], job["n"])
    elif kind == "word_avoid":
        pats = [parse_pattern(p, word) for p in job["patterns"]]
        exhaustive.word_multi_avoiders(pats, job["t"], job["n"])
    elif kind == "problem":
        problems.problem_report(job["which"], job["max_size"])
    elif kind == "dp":
        transfer.dp_series(StatPattern(parse_pattern(job["pattern"], word)), job["t"], job["order"])
    elif kind == "solve":
        transfer.solve_transfer_system(StatPattern(parse_pattern(job["pattern"], word)), job["t"])
    else:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["verify", "--check", job["check_id"]]) in (0, 1)


def test_benchmark_jobs_stay_within_their_predictions(monkeypatch, work_meter):
    workloads = _workloads(monkeypatch)
    for cached in vars(checks).values():  # so that verify recomputes everything
        if hasattr(cached, "cache_clear"):
            cached.cache_clear()
    jobs = [job for name in workloads.WORKLOADS for job in workloads.fixed_jobs(name)]
    jobs += [job for seed in (0, 1) for name in workloads.WORKLOADS
             for job in workloads.seeded_jobs(name, seed)]
    reads, rows = [], transfer.series_rows
    monkeypatch.setattr(transfer, "series_rows", lambda *a: reads.append(a) or rows(*a))
    for job in jobs:
        start = len(work_meter.records)
        _run(job)
        made = work_meter.records[start:]
        # fib-bij compares closed formulas only
        assert made or job["id"] == "verify_fib-bij", job["id"]
        assert all(rec.counted <= rec.steps for rec in made), job["id"]
        if job["kind"] in ("word_dist", "word_avoid"):  # one plan, which reads a series or walks
            assert [rec.what for rec in made] == ["scan"], job["id"]
            assert bool(reads) == (job["id"] in AUTOMATON_JOBS), job["id"]
        reads.clear()
    assert {rec.what for rec in work_meter.records} == {"scan", "series", "solve"}


def test_every_kind_of_work_is_counted(work_meter):
    word = Mode.WORD
    rise = parse_pattern("12|P,{1},P|(1,2,{1})|P,P", word)
    exhaustive.word_distribution(parse_pattern("12|P,P,P|-|P,P", word), 3, 6)  # a walk
    exhaustive.word_distribution(rise, 3, 40)  # the automaton's row
    transfer.solve_transfer_system(StatPattern(rise), 5)
    checks._ank_scan(6)
    problems.morphism_rises(12)
    kinds = {rec.what: rec for rec in work_meter.records if rec.counted}
    assert set(kinds) == {"scan", "solve", "morphism word"}
    assert work_meter.over() == []
    # the walk and the automaton's row are each charged to their plan's record
    walk, row = work_meter.records[:2]
    assert walk.counted and row.counted
    assert row.steps == transfer.series_work((StatPattern(rise),), 3, 40, 1)[0]
    # the solve's phases, each checked before it starts: the 30 windows of
    # its 1 + 5 states and 5 lumping rounds of 30 edges; the dp to order 2c;
    # the first prime's recurrences and interpolation; the certificate
    solves = [(rec.counted, rec.steps) for rec in work_meter.records if rec.what == "solve"]
    assert solves == [(180, 210), (281, 341), (502, 994), (67, 187)]


def test_the_meter_counts_every_length_of_a_walk(work_meter):
    # one stream walks S_2..S_5 by values, a walk per length: 4 + 15 + 64 +
    # 325 nodes, none pruned, since the scan only counts (no pair occurs in
    # S_1, so its walk has no node)
    exhaustive.perm_distributions(parse_pattern("12|P,P,P|-|O,P"), 5)
    (rec,) = work_meter.records
    assert (rec.what, rec.counted, rec.steps) == ("scan", 408, 408)


def test_refusals_print_amounts_of_more_than_30_digits_as_powers_of_ten():
    for amount, shown in ((10**30 - 1, str(10**30 - 1)), (10**30, "at least 10^30"),
                          (2**100, "at least 10^30"), (10**50 - 1, "at least 10^49"),
                          (7 * 10**4000, "at least 10^4000")):
        with pytest.raises(EnumerationLimitError,
                           match=rf"^scan of {re.escape(shown)} steps exceeds the budget 100000000$"):
            check_work("scan", amount, 0)


def test_scans_whose_counts_cannot_print_are_refused(monkeypatch):
    # n! or t^n with more digits than an int may print with, sized by its
    # logarithm, so a length of 10^30 is refused as fast as one just too
    # long; a scan the work check refuses is refused for its work first
    monkeypatch.setenv("PDVP_BUDGET", str(10**40))
    digits, allowed = sys.get_int_max_str_digits(), longest_printable(math.factorial)
    one = parse_pattern("1|{1},P|-|{1}")  # avoided by the n! - (n - 1)! not starting with 1
    start = time.perf_counter()
    for n in (allowed + 1, allowed + 10):
        with pytest.raises(EnumerationLimitError, match=rf"^length {n} exceeds the allowed "
                           rf"length {allowed}: {n}! has more than {digits} digits$"):
            exhaustive.perm_multi_avoiders([one], n)
    with pytest.raises(EnumerationLimitError, match=rf"^length {10**30} exceeds the allowed "
                       rf"length {allowed}: "):
        exhaustive._check_printable(None, 10**30)
    assert exhaustive.perm_multi_avoiders([one], allowed) == (
        math.factorial(allowed) - math.factorial(allowed - 1))
    for t in (2, 10):
        allowed = longest_printable(lambda k: t**k)
        exhaustive._check_printable(t, allowed)
        with pytest.raises(EnumerationLimitError, match=rf"^length {allowed + 1} exceeds the "
                           rf"allowed length {allowed}: {t}\^{allowed + 1} has more than"):
            exhaustive._check_printable(t, allowed + 1)
    exhaustive._check_printable(1, 10**30)
    assert time.perf_counter() - start < 1


def test_the_meter_counts_every_child_the_tree_scores(work_meter):
    # a tree node scores all its children at once: counting prunes nothing,
    # 1! + .. + 5! = 153 nodes; avoiding 123 scores only the children of the
    # avoiders of S_0..S_4, 1 + 2 + 2 * 3 + 5 * 4 + 14 * 5 = 99
    exhaustive.perm_distributions(make_classical((1, 2, 3)), 5)
    exhaustive.perm_multi_avoiders([make_classical((1, 2, 3))], 5)
    assert [(rec.counted, rec.steps) for rec in work_meter.records] == [(153, 153), (99, 153)]


def test_the_meter_counts_every_transition_of_the_rank_dp(work_meter):
    # gp:2-31 keeps one rank: 1 + 2*1 + 3*2 + 4*3 + 5*4 + 6*5 = 71 transitions
    # to S_6, and 7*6 more to S_7, each weight within one chunk.  A child at
    # j searches with p = j: slot 1 tries its one gap and slot 0 the j - 2
    # before it, so 1 + 2*1 + 6*2 + 12*3 + 20*4 + 30*5 = 281 loop candidates,
    # and 42*6 more.  Then the 7 slots of row 6 (up to 6 occurrences), or the
    # 30 of rows 0..7.  Predicted: 71 transitions of 1 + (3 + 6) + 1 steps
    # and 16 slots, or 113 of 1 + (3 + 7) + 1 and 8 rows of 22.  The plan
    # opens one record, as it checks the dp it picked
    pat = parse_pattern("gp:2-31")
    exhaustive.perm_distribution(pat, 6)
    exhaustive.perm_distributions(pat, 7)
    counted = [(rec.counted, rec.steps) for rec in work_meter.records]
    assert counted == [(71 + 281 + 7, 797), (113 + 281 + 252 + 30, 1532)]
    assert [rec.what for rec in work_meter.records] == ["scan"] * 2


def test_a_word_scan_predicts_its_series_once(work_meter, monkeypatch):
    # the plan predicts the series once and checks it once, and the rows it
    # reads are charged to that one record
    pat = parse_pattern("12|P,{2},P|(1,2,{2})|P,P", Mode.WORD)
    predictions = []
    work = transfer.series_work
    monkeypatch.setattr(transfer, "series_work", lambda *a: predictions.append(a) or work(*a))
    assert exhaustive.word_distribution(pat, 4, 8).total() == 4**8
    steps = work((StatPattern(pat),), 4, 8, 1)[0]
    assert len(predictions) == 1
    assert [(rec.what, rec.steps) for rec in work_meter.records] == [("scan", steps)]
    assert 0 < work_meter.records[0].counted <= steps


def test_the_meter_counts_every_letter_a_word_node_scores(work_meter):
    # a word node scores its t letters at once: counting 12 over {1,2,3}^4
    # prunes nothing, 3 + 9 + 27 + 81 = 120 letters; avoiding it scores only
    # the letters after the 1 + 3 + 6 + 10 weakly decreasing words of length
    # 0..3, 20 * 3 = 60
    rise = make_classical((1, 2), Mode.WORD)
    exhaustive.word_distributions(rise, 3, 4)
    exhaustive.word_avoider_counts([rise], 3, 4)
    assert [(rec.counted, rec.steps) for rec in work_meter.records] == [(120, 120), (60, 120)]


def test_the_meter_sees_work_past_a_prediction(work_meter, monkeypatch):
    # a prediction cut to a tenth is caught: the meter is not vacuous
    work = transfer.series_work
    monkeypatch.setattr(transfer, "series_work",
                        lambda *args: (work(*args)[0] // 10, work(*args)[1]))
    transfer.dp_series(checks.stat_pattern("d4"), 4, 30)
    assert [rec.what for rec in work_meter.over()] == ["series"]
    work_meter.records.clear()


def _peak(run) -> tuple[int, int]:
    """(tracemalloc peak in bytes, largest admitted prediction in bits, 0 when
    none) of one call, after a first call has compiled and cached what it
    needs."""
    run()
    bits = [0]
    check = budget.check_work

    def spy(what, steps, held, refuse=True):
        fits = check(what, steps, held, refuse)
        if fits:
            bits.append(held)
        return fits

    budget.check_work = spy
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        budget.check_work = check
    return peak, max(bits)


def test_peak_memory_within_the_predicted_bits(monkeypatch):
    monkeypatch.undo()  # measure without the work meter's wrappers
    word = Mode.WORD
    anchored = parse_pattern("11|P,{1},{1}|-|P,P", word)  # not a statistic: walked
    repeat = parse_pattern("11|P,{1},P|-|P,P", word)
    odd_repeat = parse_pattern("11|O,{1},P|-|P,P", word)  # not a statistic: walked
    classical = parse_pattern("12|P,P,P|-|P,P", word)  # its partials are inherited
    one_value = parse_pattern("1|P,P|-|{1}")
    w4 = StatPattern(parse_pattern("12|P,{1,2,3},P|(1,2,{2})|P,P", word))
    single = StatPattern(parse_pattern("1|P,P|-|{2}", word))
    rise = StatPattern(parse_pattern("12|P,{1},P|(1,2,{2})|P,P", word))
    # the largest input of each kind, where the per-unit sizes dominate
    runs = {
        "walk": lambda: exhaustive.word_multi_avoiders([anchored], 1, 20000),
        # a counting walk keeps a count of about 6000 at each position
        "counting walk": lambda: exhaustive.word_distribution(odd_repeat, 1, 12000),
        "every-length walk": lambda: exhaustive.word_distributions(repeat, 1, 5000),
        # a word walk over many letters holds a family of up to t children
        # per depth, and the score arrays of the node it scores
        "walk over many letters": lambda: exhaustive.word_multi_avoiders([anchored], 300000, 1),
        "two-deep walk over many letters":
            lambda: exhaustive.word_multi_avoiders([anchored], 1000, 2),
        # an inheriting walk also holds, per depth, the array of its partials
        "inheriting walk over many letters":
            lambda: exhaustive.word_multi_avoiders([classical], 300000, 1),
        "two-deep inheriting walk over many letters":
            lambda: exhaustive.word_multi_avoiders([classical], 1000, 2),
        # a value walk over every position and one value: its plan holds the
        # cut of each length, with up to k weights below k!
        "every-length value walk": lambda: exhaustive.perm_distributions(one_value, 50),
        # the rank dp: classical 12 keeps one state whose weight holds up to
        # C(n, 2) + 1 slots (admitted up to S_191), gp:2-31 n states of up to
        # n(n-1)/2 + 1 slots and every row (up to S_85), consecutive 123
        # n(n-1) states of up to n + 1 slots (up to S_76, where the peak
        # measured 0.89 of the prediction)
        "rank dp": lambda: exhaustive.perm_distribution(make_classical((1, 2)), 100),
        "every-length rank dp": lambda: exhaustive.perm_distributions(parse_pattern("gp:2-31"), 50),
        "rank dp of many states": lambda: exhaustive.perm_distribution(parse_pattern("gp:123"), 30),
        # a word scan's series keeps one row: one state, and a row of up to
        # n + 1 coefficients as large as C(n, n/2)
        "series row": lambda: exhaustive.word_distribution(single.pattern, 2, 1500),
        "dp": lambda: transfer.dp_series(w4, 6, 60),
        "one-state dp": lambda: transfer.dp_series(single, 2, 300),
        "morphism word": lambda: problems.morphism_rises(17),
        # each phase of a solve predicts the bits held through it
        "solve": lambda: transfer.solve_transfer_system(w4, 4),
        "solve over many letters": lambda: transfer.solve_transfer_system(rise, 65),
    }
    for kind, run in runs.items():
        peak, bits = _peak(run)
        assert peak <= bits // 8, (kind, peak, bits // 8)


def test_malformed_budgets_are_named(monkeypatch):
    for raw in ("1e8", "-1", "", " 7 ", "1_000"):
        monkeypatch.setenv("PDVP_BUDGET", raw)
        if raw in ("1e8", "-1"):
            with pytest.raises(ValueError, match=rf"^PDVP_BUDGET must be a non-negative integer, got '{raw}'$"):
                check_work("scan", 0, 0)
        else:
            assert check_work("scan", 7, 0)
    monkeypatch.setenv("PDVP_BUDGET", "0")
    assert check_work("scan", 0, 0) and not check_work("scan", 1, 0, refuse=False)


def test_predictions_saturate_at_once(monkeypatch):
    start = time.perf_counter()
    top = budget.ceiling()
    assert budget.power(3, 10**12) == top and budget.power(1, 10**12) == 1
    assert budget.power(2, 10) == 1024
    with pytest.raises(EnumerationLimitError, match=r"^x of at least 10\^5177 steps exceeds the budget"):
        check_work("x", top, 0)
    # a rank dp window of 10^6 + 1 entries over S_(10^6): the sum of j! and
    # the falling factorials stop once they reach the top
    wide = parse_pattern("123|P,{1},{1000000},P|-|P,P,P")
    assert all(amount >= top for amount in transfer.rank_work(wide, 10**6, 1))
    assert transfer._falling(10, 5, 100) == 100  # 10 * 9 * 8 >= 100
    assert exhaustive._value_work(6, 6, 6, 10) == 36  # 6 + 30 nodes at d <= 2, of 1956
    # a value walk's plan stops at the length whose nodes reach the top,
    # before the k! test would: 15 nodes to S_3, and with S_4's 64 they reach 50
    fishburn = parse_pattern("231|P,{1},P,P|(1,3,{1})|P,P,P")
    monkeypatch.setattr(budget, "ceiling", lambda: 50)
    with pytest.raises(EnumerationLimitError, match=r"^scan of 50 steps exceeds the budget"):
        exhaustive.plan_scan([fishburn], None, None, 5, each_length=True)
    assert time.perf_counter() - start < 1
