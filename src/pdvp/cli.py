"""Command-line front end.

Subcommands: match, dist, avoid, gf, verify, problem.  Patterns are written
in the pipe notation ("12|P,{2},P|(1,2,{2})|P,P") or as dashed patterns with
a "gp:" prefix ("gp:2-31"), both read by `dsl.parse_pattern`, which ignores
whitespace around either.  An avoid --patterns file holds one pattern per
line; blank lines, lines whose first non-blank character is "#" and a
leading UTF-8 byte-order mark are skipped.  Sequences are whitespace- or
comma-separated integers, so lengths above 9 work.  All numeric output is
rendered as decimal strings; values can exceed 64 bits.

Every command but match predicts its work before it starts (gf --solve
before each of its phases) and exits 2 when its steps (about one matcher
call each) exceed the PDVP_BUDGET environment variable (10^8 when unset) or
its bits held 2^30; see `budget`.  A word dist or avoid whose patterns gf
accepts reads row n of the series gf --dp computes when that fits and is
predicted to take no more steps than walking the words, and walks the
words otherwise, with the same output.

Exit codes: 0 on success (verify: all checks pass), 1 when a verify check
fails, 2 on usage, pattern parse or file errors.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from contextlib import nullcontext
from functools import lru_cache
from itertools import islice
from typing import Callable, Iterable, Iterator

from . import checks, exhaustive, problems, transfer
from .dsl import ParseError, parse_pattern, render_pattern
from .matcher import PermSequence, WordSequence, iter_occurrences
from .pattern import Mode

_json = json.JSONEncoder(indent=2).iterencode  # the pieces of an object's indented JSON


def _parse_ints(text: str) -> tuple[int, ...]:
    toks = [tok for tok in re.split(r"[,\s]+", text.strip()) if tok]
    return tuple(int(tok) for tok in toks)


def _emit(args, lines: Iterable[str], json_chunks: Callable[[], Iterator[str]]) -> None:
    """Write the output to --out or stdout: the text `lines`, each as it is
    rendered, or the indented JSON whose pieces `json_chunks()` yields, in
    batches.  Only the format asked for is built, so `lines` may be a
    generator and `json_chunks` is called only for JSON."""
    with open(args.out, "w", encoding="utf-8") if args.out else nullcontext(sys.stdout) as fh:
        if args.format == "json":
            chunks = json_chunks()
            while batch := "".join(islice(chunks, 4096)):
                fh.write(batch)
            fh.write("\n")
        else:
            for line in lines:
                fh.write(line + "\n")


def _table_json(table: exhaustive.DistributionTable) -> dict:
    return {
        "n": table.length,
        "entries": {str(m): str(table.counts[m]) for m in sorted(table.counts)},
    }


def _series_json(table: transfer.ZSeriesTable) -> Iterator[str]:
    """The pieces of `_json(table.to_json_obj())`, encoding one entry at a time."""
    yield f'{{\n  "n": {table.n_max},\n  "entries": ['
    for n in range(table.n_max + 1):
        yield ",\n    " if n else "\n    "
        for chunk in _json(table.json_entry(n)):
            yield chunk.replace("\n", "\n    ")
    yield "\n  ]\n}"


def _zpoly_text(row: dict[int, int]) -> str:
    parts = []
    for j in sorted(row):
        c = row[j]
        if j == 0:
            parts.append(str(c))
        elif j == 1:
            parts.append(f"{c}*z" if c != 1 else "z")
        else:
            parts.append(f"{c}*z^{j}" if c != 1 else f"z^{j}")
    return " + ".join(parts)


def _cmd_match(args) -> int:
    mode = Mode.PERMUTATION if args.perm is not None else Mode.WORD
    pat = parse_pattern(args.pattern, mode)
    if args.perm is not None:
        seq = PermSequence(_parse_ints(args.perm))
    else:
        seq = WordSequence(_parse_ints(args.word), args.alphabet)
    occs = list(iter_occurrences(pat, seq))
    lines = (
        "({}) -> ({})".format(",".join(map(str, occ.indices)), ",".join(map(str, occ.values(seq))))
        for occ in occs
    )

    def json_chunks() -> Iterator[str]:
        return _json({
            "pattern": render_pattern(pat),
            "n": len(seq.entries),
            "occurrences": [
                {"indices": list(occ.indices), "values": [str(v) for v in occ.values(seq)]}
                for occ in occs
            ],
        })

    _emit(args, lines if occs else ["no occurrences"], json_chunks)
    return 0


def _cmd_dist(args) -> int:
    if args.perm_n is not None:
        pat = parse_pattern(args.pattern, Mode.PERMUTATION)
        table = exhaustive.perm_distribution(pat, args.perm_n)
    else:
        pat = parse_pattern(args.pattern, Mode.WORD)
        table = exhaustive.word_distribution(pat, args.alphabet, args.word_n)
    lines = [f"{m} {table.counts[m]}" for m in sorted(table.counts)]
    _emit(args, lines, lambda: _json(_table_json(table)))
    return 0


def _cmd_avoid(args) -> int:
    texts = list(args.pattern or [])
    if args.patterns:
        with open(args.patterns, encoding="utf-8-sig") as fh:
            texts.extend(t for t in map(str.strip, fh) if t and not t.startswith("#"))
    if args.perm_n is not None:
        pats = [parse_pattern(t, Mode.PERMUTATION) for t in texts]
        n = args.perm_n
        count = exhaustive.perm_multi_avoiders(pats, n)
    else:
        pats = [parse_pattern(t, Mode.WORD) for t in texts]
        n = args.word_n
        count = exhaustive.word_multi_avoiders(pats, args.alphabet, n)
    obj = {"n": n, "patterns": [render_pattern(p) for p in pats], "avoiders": str(count)}
    _emit(args, [str(count)], lambda: _json(obj))
    return 0


def _cmd_gf(args) -> int:
    pat = parse_pattern(args.pattern, Mode.WORD)
    sp = transfer.StatPattern(pat)
    if args.solve:
        gf = transfer.solve_transfer_system(sp, args.alphabet)
        _emit(args, [f"({gf.num!r}) / ({gf.den!r})"], lambda: _json(gf.to_json_obj()))
    else:
        table = transfer.dp_series(sp, args.alphabet, args.max_n)
        lines = (f"q^{n}: {_zpoly_text(table.z_poly(n))}" for n in range(table.n_max + 1))
        _emit(args, lines, lambda: _series_json(table))
    return 0


def _cmd_verify(args) -> int:
    if args.check in (None, "all"):
        results = checks.run_all()
    else:
        try:
            results = [checks.run_check(args.check)]
        except KeyError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 2
    detail = args.check not in (None, "all")
    lines = []
    for res in results:
        lines.append(f"{'PASS' if res.ok else 'FAIL'} {res.name}")
        if detail or not res.ok:
            lines.extend(res.lines)
    all_ok = all(res.ok for res in results)
    obj = {
        "checks": [{"name": r.name, "ok": r.ok, "lines": r.lines} for r in results],
        "all_ok": all_ok,
    }
    _emit(args, lines, lambda: _json(obj))
    return 0 if all_ok else 1


def _cmd_problem(args) -> int:
    report = problems.problem_report(args.which, args.max_size)
    text = (report.to_text() for _ in range(1))  # built only for text
    _emit(args, text, lambda: _json(report.to_json_obj()))
    return 0


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: `parse_args` keeps
    no state between calls."""
    parser = argparse.ArgumentParser(prog="pdvp", description=__doc__.split("\n\n")[0])
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--out", help="write output to this path instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("match", help="list pattern occurrences in one sequence")
    p.add_argument("--pattern", required=True)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--perm", help="permutation, e.g. '2 3 1 5 4'")
    g.add_argument("--word", help="word letters, e.g. '1 3 2 3 1'")
    p.add_argument("--alphabet", type=int, help="alphabet size for --word")
    p.set_defaults(func=_cmd_match)

    p = sub.add_parser("dist", help="occurrence-count distribution over S_n or {1..t}^n")
    p.add_argument("--pattern", required=True)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--perm-n", type=int)
    g.add_argument("--word-n", type=int)
    p.add_argument("--alphabet", type=int)
    p.set_defaults(func=_cmd_dist)

    p = sub.add_parser("avoid", help="count objects avoiding every listed pattern")
    p.add_argument("--pattern", action="append", help="repeatable pattern flag")
    p.add_argument("--patterns", help="file with one pattern per line")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--perm-n", type=int)
    g.add_argument("--word-n", type=int)
    p.add_argument("--alphabet", type=int)
    p.set_defaults(func=_cmd_avoid)

    p = sub.add_parser("gf", help="series table (--dp) or solved rational form (--solve)")
    p.add_argument("--pattern", required=True)
    p.add_argument("--alphabet", type=int, required=True)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--dp", action="store_true")
    g.add_argument("--solve", action="store_true")
    p.add_argument("--max-n", type=int, default=10)
    p.set_defaults(func=_cmd_gf)

    p = sub.add_parser("verify", help="run the named verification checks")
    p.add_argument("--check", default="all", help=f"one of: {', '.join(checks.CHECKS)}, or all")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("problem", help="equinumerosity report for one open question")
    p.add_argument("--which", type=int, required=True, choices=(1, 2, 3, 4))
    p.add_argument("--max-size", type=int, default=8)
    p.set_defaults(func=_cmd_problem)
    return parser


def _validate(parser: argparse.ArgumentParser, args) -> None:
    words = getattr(args, "word", None) is not None or getattr(args, "word_n", None) is not None
    if words and getattr(args, "alphabet", None) is None:
        parser.error("--alphabet is required for word input")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _validate(parser, args)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"pattern parse error {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:  # budget.EnumerationLimitError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
