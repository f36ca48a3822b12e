import json
import os
import subprocess
import sys
import time
import tracemalloc
from math import factorial
from pathlib import Path

import pytest

from conftest import longest_printable

from pdvp import cli, formulas, problems, transfer
from pdvp.cli import _zpoly_text, main
from pdvp.dsl import parse_pattern
from pdvp.pattern import Mode
from pdvp.transfer import StatPattern

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def _runs(capsys, argvs):
    """(exit code, stdout, stderr) of `main` on each argv; a usage error
    exits through SystemExit."""
    outputs = []
    for argv in argvs:
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        out = capsys.readouterr()
        outputs.append((rc, out.out, out.err))
    return outputs


def test_main_reuses_one_parser_and_prints_what_a_fresh_one_prints(capsys, monkeypatch):
    argvs = [
        ["match", "--pattern", "12", "--perm", "2 3 1"],
        ["--format", "json", "dist", "--pattern", "gp:2-31", "--perm-n", "4"],
        ["dist", "--pattern", "12", "--word-n", "3"],  # no --alphabet: a usage error
        ["avoid", "--pattern", "gp:231", "--pattern", "gp:132", "--perm-n", "5"],
        ["avoid", "--perm-n", "3"],
        ["verify", "--check", "fib-bij"],
        ["problem", "--which", "5"],  # not a choice
        ["--help"],
    ]
    assert cli.build_parser() is cli.build_parser()
    cached = _runs(capsys, argvs)
    assert _runs(capsys, argvs) == cached
    assert cached[2][0] == cached[6][0] == 2 and cached[7][0] == 0
    fresh = cli.build_parser.__wrapped__
    assert fresh() is not fresh() and fresh().format_help() == cli.build_parser().format_help()
    monkeypatch.setattr(cli, "build_parser", fresh)
    assert _runs(capsys, argvs) == cached


def test_match_worked_example(capsys):
    rc, out, _ = run(
        capsys, "match", "--pattern", "12|{1},{3,4},{1,2,3}|(1,2,E)|E,P",
        "--perm", "2 3 1 5 4",
    )
    assert rc == 0
    assert out.strip() == "(1,5) -> (2,4)"


def test_match_word_input(capsys):
    rc, out, _ = run(
        capsys, "match", "--pattern", "12|P,{2},P|(1,2,{2})|P,P",
        "--word", "1,3,2,3,1", "--alphabet", "3",
    )
    assert rc == 0
    assert out.strip() == "no occurrences"


def test_match_gp_prefix(capsys, monkeypatch):
    argv = ["match", "--pattern", "gp:2-31", "--perm", "5 1 6 4 2 3"]
    with monkeypatch.context() as patched:  # the text builds no JSON object
        patched.setattr(cli, "render_pattern", lambda pat: pytest.fail("JSON built for text"))
        assert run(capsys, *argv) == (0, "(1,3,4) -> (5,6,4)\n", "")
    want = {"pattern": "231|P,P,{1},P|-|P,P,P", "n": 6,
            "occurrences": [{"indices": [1, 3, 4], "values": ["5", "6", "4"]}]}
    assert run(capsys, "--format", "json", *argv) == (0, json.dumps(want, indent=2) + "\n", "")


def test_malformed_pattern_exits_2(capsys):
    rc, _, err = run(capsys, "match", "--pattern", "12|P|P", "--perm", "1 2")
    assert rc == 2
    assert "parse error" in err


@pytest.mark.parametrize(
    "pattern, message",
    [
        ("12|P,P,P|(0,4,P)|P,P",
         "at position 0: expected Y indices with 0 <= s < t <= 3, found (0,4)"),
        ("11|P,P,P|-|P,P",
         "at position 0: expected a valid pattern, found base (1, 1) is not a permutation of 1..2"),
        ("gp:11", "at position 0: expected a valid dashed pattern, found base (1, 1) is not a "
                  "permutation of 1..2"),
        ("gp:2 31", "at position 0: expected letters 1..9 separated by optional dashes, found "
                    "unexpected character ' ' in '2 31'"),
        (" gp:2+31 ", "at position 0: expected letters 1..9 separated by optional dashes, found "
                      "unexpected character '+' in '2+31'"),
        ("12|P,3,P|-|P,P", "at position 6: expected 'P' after a multiplier, found ','"),
        ("|P,P,P|-|P,P", "at position 0: expected a base letter, found '|'"),
        ("12|P,P,P|-|P,P x", "at position 15: expected end of input, found 'x'"),
    ],
)
def test_each_parse_error_exits_2_with_one_line(capsys, pattern, message):
    got = run(capsys, "match", "--pattern", pattern, "--perm", "1 2 3")
    assert got == (2, "", f"pattern parse error {message}\n")


@pytest.mark.parametrize("plain", ["gp:231", "231|P,P,{1},P|-|P,P,P", "12|P,P,P|-|O,P"])
@pytest.mark.parametrize(
    "command",
    [
        ["match", "--perm", "5 1 6 4 2 3"],
        ["match", "--word", "1 3 2 3 1", "--alphabet", "3"],
        ["dist", "--perm-n", "5"],
        ["dist", "--word-n", "4", "--alphabet", "3"],
        ["avoid", "--perm-n", "5"],
        ["avoid", "--word-n", "4", "--alphabet", "3"],
    ],
)
def test_whitespace_around_a_pattern_prints_what_the_plain_one_prints(capsys, plain, command):
    for fmt in ("text", "json"):
        want = run(capsys, "--format", fmt, *command, "--pattern", plain)
        assert want[0] == 0
        for text in (f" {plain}", f"{plain} ", f"\t{plain}\n"):
            assert run(capsys, "--format", fmt, *command, "--pattern", text) == want


def test_problem_notes_and_a_missing_offset_print_as_lines(capsys):
    got = run(capsys, "problem", "--which", "1", "--max-size", "8")
    assert got == (0, """problem 1: V-shaped avoiders vs morphism rises
  A (avoiders a(n, 2)), indices from 1:
    1, 2, 3, 6, 12, 24, 48, 96
  B (rises after n iterations), indices from 1:
    2, 3, 6, 12, 24, 48, 96, 192
  offset -1: A(i) = B(i - 1) on all 7 overlapping entries
  note: B counts rises of the full n-th morphism iterate of 1
  note: the length-7 example word 1231323 has 4 rises and is not the third iterate \
(length 12); no equality is asserted for this problem
""", "")
    got = run(capsys, "problem", "--which", "4", "--max-size", "2")
    assert got == (0, """problem 4: three-letter avoiders vs filtered 2-stack-sortable permutations
  A (avoiders over t=3), indices from 1:
    3, 7
  B (2-stack-sortable, 132-avoiding, exactly one 123), indices from 1:
    0, 0
  no constant offset aligns the sequences
  note: no offset in [-3, 3] aligns the sequences
""", "")


def test_dist_json_golden(capsys):
    rc, out, _ = run(
        capsys, "--format", "json", "dist", "--pattern", "gp:2-31", "--perm-n", "4"
    )
    assert rc == 0
    assert json.loads(out) == json.loads((GOLDEN / "dist_gp231_s4.json").read_text())


def test_dist_of_a_dashed_pattern_equals_its_walked_golden(capsys):
    # the rank dp's text and JSON, byte for byte, against the output of the
    # generating tree's walk, written before the dp counted these scans
    for argv, golden in (["--format", "json"], "dist_gp2-31_s9.json"), ([], "dist_gp2-31_s9.txt"):
        rc, out, _ = run(capsys, *argv, "dist", "--pattern", "gp:2-31", "--perm-n", "9")
        assert rc == 0 and out.encode() == (GOLDEN / golden).read_bytes(), golden


def test_gf_dp_json_golden(capsys):
    for pattern, alphabet, max_n, golden in [
        ("12|P,{1},P|(1,2,{2})|P,P", "3", "6", "gf_dp_adjacent_rise2_t3.json"),
        # 259 states and rows up to z^16: the rise within distance 3 over 6 letters
        ("12|P,{1,2,3},P|(1,2,{2})|P,P", "6", "12", "gf_dp_W4_t6.json"),
    ]:
        rc, out, _ = run(
            capsys, "--format", "json", "gf", "--pattern", pattern, "--alphabet", alphabet,
            "--dp", "--max-n", max_n,
        )
        assert rc == 0
        assert json.loads(out) == json.loads((GOLDEN / golden).read_text()), golden


_ONE_STATE = ["gf", "--pattern", "1|P,P|-|{2}", "--alphabet", "2", "--dp", "--max-n", "300"]


def _dp_table(max_n=300):
    return transfer.dp_series(StatPattern(parse_pattern(_ONE_STATE[2], Mode.WORD)), 2, max_n)


def test_gf_dp_prints_the_rows_and_the_json_as_one_string_would(capsys, tmp_path):
    # the text rows are written one at a time and the JSON in batches; the
    # bytes are those of the joined rows and of json.dumps, on stdout and in --out
    table = _dp_table()
    want = {
        "text": "".join(f"q^{n}: {_zpoly_text(table.z_poly(n))}\n" for n in range(301)),
        "json": json.dumps(table.to_json_obj(), indent=2) + "\n",
    }
    for fmt, text in want.items():
        assert run(capsys, "--format", fmt, *_ONE_STATE) == (0, text, "")
        target = tmp_path / fmt
        assert run(capsys, "--format", fmt, "--out", str(target), *_ONE_STATE) == (0, "", "")
        assert target.read_text() == text


def test_gf_dp_builds_only_the_format_asked_for(capsys, monkeypatch, tmp_path):
    def refuse(*args):
        raise AssertionError("the other format was built")

    with monkeypatch.context() as patched:
        patched.setattr(transfer.ZSeriesTable, "to_json_obj", refuse)
        patched.setattr(transfer.ZSeriesTable, "json_entry", refuse)
        assert run(capsys, *_ONE_STATE)[0] == 0
    with monkeypatch.context() as patched:
        patched.setattr(cli, "_zpoly_text", refuse)
        assert run(capsys, "--format", "json", *_ONE_STATE)[0] == 0
    # neither the text rows nor the JSON entries are held together: writing
    # them adds far less than the output's size to the peak of the dp itself.
    # The text needs 200 rows for that; the JSON needs about 300, because its
    # batch of 4096 pieces holds about 0.5 MB at any size
    def peak(run_once):
        tracemalloc.start()
        run_once()
        took = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        return took

    for fmt, max_n in (("text", 200), ("json", 300)):
        dp = peak(lambda: _dp_table(max_n))
        target = str(tmp_path / f"rows.{fmt}")
        argv = ["--format", fmt, "--out", target, *_ONE_STATE[:-1], str(max_n)]
        main(argv)
        written = peak(lambda: main(argv)) - dp
        assert written < Path(target).stat().st_size // 4, (fmt, written)


@pytest.mark.parametrize(
    "pattern, alphabet, golden",
    [
        ("12|P,{1,2},P|(1,2,{2})|P,P", "4", "gf_solve_d4_t4.json"),
        ("12|P,{2},P|(1,2,{2})|P,P", "3", "gf_solve_gap2_rise2_t3.json"),
        ("12|P,{1,2},P|(1,2,{2})|P,P", "5", "gf_solve_P_t5.json"),
        ("12|P,{1,2,3},P|(1,2,{2})|P,P", "3", "gf_solve_W4_t3.json"),
    ],
)
def test_gf_solve_json_golden(capsys, pattern, alphabet, golden):
    rc, out, _ = run(
        capsys, "--format", "json", "gf", "--pattern", pattern, "--alphabet", alphabet,
        "--solve",
    )
    assert rc == 0
    assert json.loads(out) == json.loads((GOLDEN / golden).read_text())


def test_gf_solve_text(capsys):
    rc, out, _ = run(
        capsys, "gf", "--pattern", "12|P,{1},P|(1,2,{2})|P,P", "--alphabet", "3",
        "--solve",
    )
    assert rc == 0
    assert "/" in out and "q" in out


@pytest.mark.parametrize("method", ["--solve", "--dp"])
def test_gf_accepts_boundary_sets_written_unusually(capsys, method):
    outs = [
        run(capsys, "gf", "--pattern", text, "--alphabet", "3", method)
        for text in ("12|P,{1},P|(1,2,{2})|P,P", "12|P+E,{1},P|(1,2,{2})|P,P")
    ]
    assert outs[0][0] == 0
    assert outs[1] == outs[0]


def _one_line_error(rc, out, err):
    return rc == 2 and out == "" and err.startswith("error: ") and err.count("\n") == 1


def test_unwritable_out_path_exits_2(tmp_path, capsys):
    target = str(tmp_path / "missing" / "out.txt")
    got = run(capsys, "--out", target, "dist", "--pattern", "gp:21", "--perm-n", "3")
    assert _one_line_error(*got)


def test_missing_patterns_file_exits_2(tmp_path, capsys):
    got = run(capsys, "avoid", "--patterns", str(tmp_path / "missing"), "--perm-n", "3")
    assert _one_line_error(*got)


@pytest.mark.parametrize("command", ["dist", "avoid"])
@pytest.mark.parametrize("size", [["--perm-n", "-1"], ["--word-n", "-1", "--alphabet", "2"]])
def test_negative_length_exits_2(capsys, command, size):
    got = run(capsys, command, "--pattern", "gp:21", *size)
    assert _one_line_error(*got)
    assert "non-negative" in got[2]


@pytest.mark.parametrize(
    "argv",
    [
        ["gf", "--pattern", "12|P,{1},P|(1,2,{2})|P,P", "--alphabet", "3", "--dp",
         "--max-n", "-1"],
        ["problem", "--which", "2", "--max-size", "-1"],
    ],
)
def test_negative_size_exits_2(capsys, argv):
    got = run(capsys, *argv)
    assert _one_line_error(*got)
    assert "non-negative" in got[2]


def test_problem_four_above_the_scan_limit_exits_2(monkeypatch, capsys):
    monkeypatch.delenv("PDVP_BUDGET", raising=False)
    got = run(capsys, "problem", "--which", "4", "--max-size", "12")
    assert _one_line_error(*got)
    assert got[2] == "error: scan of 522956313 steps exceeds the budget 100000000\n"


@pytest.mark.parametrize(
    "argv, nodes",
    [
        # one walk over the generating tree of S_1..S_8: 1! + 2! + ... + 8!
        (["problem", "--which", "4", "--max-size", "8"], 46233),
        # k4n scans S_8 after S_4 by values, over its 4 relevant positions and
        # 4 relevant values: 5 + 21 + 73 + 209 prefixes
        (["verify"], 308),
        # Z_1 = O: by values, 6 + 30 + 120 + 360 + 720 + 720 nodes
        (["dist", "--pattern", "21|P,{1},P|-|O,P", "--perm-n", "6"], 1956),
        (["dist", "--pattern", "12|P,{2},P|(1,2,{2})|P,P", "--word-n", "5", "--alphabet", "4"],
         1364),
        (["avoid", "--pattern", "gp:231", "--pattern", "12|P,P,P|-|O,P", "--perm-n", "6"], 1956),
        # the rise at any distance, no statistic: 3 + 9 + ... + 3^7 nodes
        (["avoid", "--pattern", "gp:1-2", "--word-n", "7", "--alphabet", "3"], 3279),
        # order-only: the generating tree, 1! + 2! + ... + 6! nodes
        (["dist", "--pattern", "gp:2-31-4", "--perm-n", "6"], 873),
        (["avoid", "--pattern", "gp:231", "--perm-n", "6"], 873),
        # a count with one finite interior gap set after X_0 = X_1 = P: the
        # rank dp, whose 71 transitions (1 + 7*6*5/3) each cost 1 + (3 + 6)
        # loop steps + 1 chunk, and 16 slots decoded, since the walk does
        # not fit either
        (["dist", "--pattern", "gp:2-31", "--perm-n", "6"], 797),
        # gp:12 is the adjacent rise, a statistic: its series' 164 steps are
        # fewer than the walk's 3279 nodes, and when neither fits, named
        (["avoid", "--pattern", "gp:12", "--word-n", "7", "--alphabet", "3"], 164),
    ],
)
def test_scans_obey_the_budget_env_var(monkeypatch, capsys, argv, nodes):
    monkeypatch.setenv("PDVP_BUDGET", "100")
    start = time.perf_counter()
    got = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert _one_line_error(*got)
    assert got[2] == f"error: scan of {nodes} steps exceeds the budget 100\n"


def test_scans_whose_counts_cannot_print_exit_2(capsys):
    # the value walk has one relevant position and value (the avoiders are
    # the n! - (n - 1)! permutations that do not start with 1), but 1700! has
    # more digits than an int may print with: refused before the walk
    digits, allowed = sys.get_int_max_str_digits(), longest_printable(factorial)
    start = time.perf_counter()
    got = run(capsys, "avoid", "--pattern", "1|{1},P|-|{1}", "--perm-n", "1700")
    assert time.perf_counter() - start < 1
    assert _one_line_error(*got)
    assert got[2] == (f"error: length 1700 exceeds the allowed length {allowed}: "
                      f"1700! has more than {digits} digits\n")
    rc, out, _ = run(capsys, "avoid", "--pattern", "1|{1},P|-|{1}", "--perm-n", str(allowed))
    assert rc == 0 and out.strip() == str(factorial(allowed) - factorial(allowed - 1))


def test_refusals_print_long_amounts_as_powers_of_ten(capsys):
    # the tree of S_1..S_1500 has 1! + .. + 1500! nodes, a number of 4115 digits
    got = run(capsys, "avoid", "--pattern", "gp:231", "--perm-n", "1500")
    assert _one_line_error(*got)
    nodes = sum(factorial(k) for k in range(1, 1501))
    assert got[2] == (f"error: scan of at least 10^{len(str(nodes)) - 1} steps "
                      "exceeds the budget 100000000\n")


def test_problem_one_above_the_printable_size_exits_2(capsys):
    start = time.perf_counter()
    got = run(capsys, "problem", "--which", "1", "--max-size", "15000")
    assert time.perf_counter() - start < 1
    assert _one_line_error(*got)
    assert "size 15000 exceeds the allowed size 14285" in got[2]


def test_gf_dp_series_budget_exits_2_at_once(capsys):
    got = run(capsys, "gf", "--pattern", "12|P,{1},P|(1,2,{2})|P,P", "--alphabet", "3",
              "--dp", "--max-n", "100000000")
    assert _one_line_error(*got)
    assert got[2].startswith("error: series of ") and " steps exceeds the budget 100000000" in got[2]


@pytest.mark.parametrize(
    "argv, sizes",
    [
        (["--pattern", "1|P,P|-|{2}", "--alphabet", "1000000000", "--dp", "--max-n", "1"],
         ("error: series of ", " steps exceeds the budget 100000000")),
        (["--pattern", "12|P,{1},P|(1,2,{2})|P,P", "--alphabet", "4000", "--solve"],
         ("error: solve of 64048008000 steps", "exceeds the budget 100000000")),
        # one state, but every step walks its 4096 edges
        (["--pattern", "1|P,P|-|{2}", "--alphabet", "4096", "--dp", "--max-n", "99999"],
         ("error: series of ", " steps exceeds the budget 100000000")),
        # 12002 edges, but the rows would hold about 6000^3 bits
        (["--pattern", "1|P,P|-|{2}", "--alphabet", "2", "--dp", "--max-n", "6000"],
         ("error: series of ", " bits exceeds the bound 1073741824")),
        # 2^(10^12) states: refused before they are counted
        (["--pattern", "12|P,{1000000000000},P|-|P,P", "--alphabet", "2", "--dp"],
         ("error: series of at least 10^5177", " steps exceeds the budget 100000000")),
        (["--pattern", "12|P,{1000000000000},P|-|P,P", "--alphabet", "2", "--solve"],
         ("error: solve of at least 10^5177", " steps exceeds the budget 100000000")),
    ],
)
def test_gf_budgets_exit_2_before_the_work(capsys, argv, sizes):
    start = time.perf_counter()
    got = run(capsys, "gf", *argv)
    assert time.perf_counter() - start < 1
    assert _one_line_error(*got)
    assert all(size in got[2] for size in sizes)


def test_avoid_repeated_flags(capsys):
    rc, out, _ = run(
        capsys, "avoid", "--pattern", "gp:231", "--pattern", "gp:132", "--perm-n", "6"
    )
    assert rc == 0
    assert out.strip() == "32"


def test_avoid_counts_k4n_past_the_old_cap(capsys):
    # the value walk of S_12 fills only odd positions with odd values
    # (18702 nodes); all of S_12 by values was 1302061344, past the budget
    got = run(capsys, "avoid", "--pattern", "12|O,4P,P|(1,2,4P)|O,P", "--perm-n", "12")
    assert got == (0, f"{formulas.k4n_exact(3)}\n", "") == (0, "360000000\n", "")


def test_avoid_pattern_file(tmp_path, capsys):
    listing = tmp_path / "pats.txt"
    listing.write_text("# consecutive pair\ngp:231\ngp:132\n")
    rc, out, _ = run(capsys, "avoid", "--patterns", str(listing), "--perm-n", "5")
    assert rc == 0
    assert out.strip() == "16"


@pytest.mark.parametrize(
    "listing",
    [
        "\ufeffgp:231\ngp:132\n",  # a UTF-8 byte-order mark
        "  # consecutive pair\ngp:231\n\t# and its reverse\ngp:132\n",
        "\ngp:231\n\n   \n\t\ngp:132\n\n",
    ],
    ids=["bom", "indented-comment", "blank-lines"],
)
def test_avoid_pattern_file_written_unusually(tmp_path, capsys, listing):
    plain, unusual = tmp_path / "plain.txt", tmp_path / "unusual.txt"
    plain.write_text("gp:231\ngp:132\n", encoding="utf-8")
    unusual.write_text(listing, encoding="utf-8")
    for fmt in ("text", "json"):
        want = run(capsys, "--format", fmt, "avoid", "--patterns", str(plain), "--perm-n", "5")
        assert want[0] == 0
        assert run(capsys, "--format", fmt, "avoid", "--patterns", str(unusual),
                   "--perm-n", "5") == want


def test_avoid_word_mode(capsys):
    rc, out, _ = run(
        capsys, "avoid",
        "--pattern", "12|P,{1},P|(1,2,{1})|P,P",
        "--pattern", "12|P,{2},P|(1,2,{2})|P,P",
        "--word-n", "5", "--alphabet", "3",
    )
    assert rc == 0
    assert out.strip() == "46"


def test_verify_single_pass_prints_series(capsys):
    rc, out, _ = run(capsys, "verify", "--check", "d3")
    assert rc == 0
    assert out.splitlines()[0] == "PASS d3"
    assert "[1, 3, 8, 20, 49, 119, 288]" in out


def test_verify_failing_check_documents_discrepancy(capsys):
    rc, out, _ = run(capsys, "verify", "--check", "k4n")
    assert rc == 1
    assert "FAIL k4n" in out
    assert "MISMATCH" in out


def test_verify_unknown_check(capsys):
    rc, _, err = run(capsys, "verify", "--check", "nope")
    assert rc == 2
    assert "unknown check" in err


def test_verify_json_schema(capsys):
    rc, out, _ = run(capsys, "--format", "json", "verify", "--check", "fib-bij")
    assert rc == 0
    obj = json.loads(out)
    assert obj["all_ok"] is True
    assert obj["checks"][0]["name"] == "fib-bij"


def test_problem_json(capsys, monkeypatch):
    with monkeypatch.context() as patched:  # the JSON run builds no text report
        patched.setattr(problems.ComparisonReport, "to_text",
                        lambda report: pytest.fail("text built for JSON"))
        rc, out, _ = run(capsys, "--format", "json", "problem", "--which", "3",
                         "--max-size", "8")
    assert rc == 0
    obj = json.loads(out)
    assert obj["offset"] == 2


def test_budget_env_var(monkeypatch, capsys):
    monkeypatch.setenv("PDVP_BUDGET", "100")
    rc, _, err = run(capsys, "dist", "--pattern", "gp:1-2", "--perm-n", "6")
    assert rc == 2
    assert "the budget 100" in err
    # int() spellings are valid; anything else, or a negative budget, is named
    monkeypatch.setenv("PDVP_BUDGET", " 1_956 ")
    assert run(capsys, "dist", "--pattern", "gp:1-2", "--perm-n", "6")[0] == 0
    for raw in ("1e8", "-1", "ten"):
        monkeypatch.setenv("PDVP_BUDGET", raw)
        got = run(capsys, "dist", "--pattern", "gp:1-2", "--perm-n", "0")
        assert _one_line_error(*got)
        assert got[2] == f"error: PDVP_BUDGET must be a non-negative integer, got {raw!r}\n"


def test_huge_finite_gap_sets_are_walked(capsys):
    # 2^(10^12) states are never built: the walk answers, at 14 nodes
    gap = "12|P,{1000000000000},P|-|P,P"
    start = time.perf_counter()
    assert run(capsys, "dist", "--pattern", gap, "--word-n", "3", "--alphabet", "2") == (
        0, "0 8\n", "")
    assert run(capsys, "avoid", "--pattern", gap, "--word-n", "3", "--alphabet", "2") == (
        0, "8\n", "")
    assert time.perf_counter() - start < 1


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    rc, out, _ = run(
        capsys, "--format", "json", "--out", str(target),
        "dist", "--pattern", "gp:2-31", "--perm-n", "4",
    )
    assert rc == 0
    assert out == ""
    assert json.loads(target.read_text())["n"] == 4


def test_alphabet_required_for_words(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["match", "--pattern", "gp:12", "--word", "1 2"])
    assert exc.value.code == 2


def test_readme_library_example_runs(capsys):
    import re

    md = (Path(__file__).parent.parent / "README.md").read_text()
    block = re.search(r"## Library\n\n```python\n(.*?)```", md, re.S).group(1)
    exec(compile(block, "README-library-example", "exec"), {})
    out = capsys.readouterr().out
    assert "[((1, 5), (2, 4))]" in out
    assert "[1, 3, 9, 24, 64, 168, 441]" in out


def test_python_dash_m_pdvp_runs_the_cli():
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    run = subprocess.run([sys.executable, "-m", "pdvp", "verify", "--check", "fib-bij"],
                         capture_output=True, text=True, env=env, timeout=120)
    assert (run.returncode, run.stderr) == (0, "")
    assert run.stdout.splitlines()[0] == "PASS fib-bij"
