"""Textual notation for patterns and set expressions.

Grammar (whitespace may separate any two tokens, but a run of digits is one
token, so "1 2|.." is not the base 12 and "{1 0}" is not {10}; the dashed
text after "gp:" takes whitespace only at either end):

    pattern  := "gp:" dashed | base "|" setlist "|" ytriples "|" setlist
    dashed   := letter ("-"? letter)*          letters 1..9, read by parse_gp
    base     := digit+ | nat ("," nat)+
    setlist  := set ("," set)*
    set      := term ("+" term)*
    term     := "P" | "E" | "O" | nat "P" | "{" nat ("," nat)* "}"
    ytriples := "-" | ytriple (";" ytriple)*
    ytriple  := "(" nat "," nat "," set ")"

"+" is set union, "-" denotes an empty Y component, and "kP" is the set of
positive multiples of k.  Example: "12|P,{2},P|(1,2,{2})|P,P" matches a rise
by exactly 2 between positions exactly 2 apart, and "gp:2-31" is the dashed
pattern 2-31.  `parse_pattern` reads both spellings, so callers never strip
the prefix themselves.
"""

from __future__ import annotations

from functools import reduce
from operator import or_
from typing import Callable

from .intset import EVENS, IntSet, ODDS, POSITIVES, finite, multiples
from .pattern import Mode, Pdvp, YTriple, _gp_parts, make_gp


class ParseError(Exception):
    """Malformed pattern text.  `position` is a 0-based character offset."""

    def __init__(self, position: int, expected: str, found: str):
        self.position = position
        self.expected = expected
        self.found = found
        super().__init__(f"at position {position}: expected {expected}, found {found}")


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self) -> str:
        ch = self.peek()
        if ch:
            self.pos += 1
        return ch

    def expect(self, ch: str):
        got = self.peek()
        if got != ch:
            self.fail(repr(ch))
        self.pos += 1

    def at_end(self) -> bool:
        return self.peek() == ""

    def fail(self, expected: str):
        found = self.peek() or "end of input"
        raise ParseError(self.pos, expected, repr(found) if found != "end of input" else found)

    def digits(self, expected: str) -> str:
        """The run of digits at the next token: one token, so "1 2" is two."""
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            self.fail(expected)
        return self.text[start:self.pos]

    def nat(self) -> int:
        return int(self.digits("a number"))

    def items(self, item: Callable[[_Scanner], object], sep: str) -> list:
        """item (sep item)*"""
        out = [item(self)]
        while self.peek() == sep:
            self.pos += 1
            out.append(item(self))
        return out


_NAMED = {"P": POSITIVES, "E": EVENS, "O": ODDS}


def _parse_term(s: _Scanner) -> IntSet:
    ch = s.peek()
    if ch in _NAMED:
        s.take()
        return _NAMED[ch]
    if ch == "{":
        s.take()
        members = s.items(_Scanner.nat, ",")
        s.expect("}")
        return finite(members)
    if ch.isdigit():
        pos = s.pos
        k = s.nat()
        if s.peek() != "P":
            s.fail("'P' after a multiplier")
        s.take()
        if k == 0:
            raise ParseError(pos, "a positive multiplier", "0")
        return multiples(k)
    s.fail("a set term (P, E, O, kP or {..})")


def parse_set(text: str) -> IntSet:
    """Parse a standalone set expression such as "E+{1}" or "4P"."""
    s = _Scanner(text)
    out = _parse_set(s)
    if not s.at_end():
        s.fail("end of input")
    return out


def _parse_set(s: _Scanner) -> IntSet:
    return reduce(or_, s.items(_parse_term, "+"))


def _parse_base(s: _Scanner) -> tuple[int, ...]:
    token = s.digits("a base letter")
    start = s.pos - len(token)
    if s.peek() == ",":
        s.pos += 1
        letters = [int(token), *s.items(_Scanner.nat, ",")]
    else:
        letters = [int(ch) for ch in token]
    if any(v < 1 for v in letters):
        raise ParseError(start, "positive base letters", "0")
    return tuple(letters)


def _parse_ytriples(s: _Scanner) -> list[YTriple]:
    if s.peek() == "-":
        s.take()
        return []
    return s.items(_parse_ytriple, ";")


def _parse_ytriple(s: _Scanner) -> YTriple:
    s.expect("(")
    a = s.nat()
    s.expect(",")
    b = s.nat()
    s.expect(",")
    d = _parse_set(s)
    s.expect(")")
    return YTriple(a, b, d)


def parse_pattern(text: str, mode: Mode = Mode.PERMUTATION) -> Pdvp:
    """Parse "base|X-sets|Y-triples|Z-sets", or "gp:" and a dashed pattern
    read by `parse_gp`, into a pattern quadruple."""
    head = text.lstrip()
    if head.startswith("gp:"):
        return parse_gp(head[3:], mode)
    s = _Scanner(text)
    start = s.pos
    base = _parse_base(s)
    s.expect("|")
    xs = s.items(_parse_set, ",")
    s.expect("|")
    ys = _parse_ytriples(s)
    s.expect("|")
    zs = s.items(_parse_set, ",")
    if not s.at_end():
        s.fail("end of input")
    m = len(base)
    if len(xs) != m + 1:
        raise ParseError(start, f"{m + 1} X sets for a base of length {m}", f"{len(xs)} sets")
    if len(zs) != m:
        raise ParseError(start, f"{m} Z sets for a base of length {m}", f"{len(zs)} sets")
    for a, b, _ in ys:
        if not (0 <= a < b <= m + 1):
            raise ParseError(start, f"Y indices with 0 <= s < t <= {m + 1}", f"({a},{b})")
    try:
        return Pdvp(mode, base, tuple(xs), tuple(ys), tuple(zs))
    except ValueError as exc:
        raise ParseError(start, "a valid pattern", str(exc)) from exc


def parse_gp(text: str, mode: Mode = Mode.PERMUTATION) -> Pdvp:
    """Parse dashed notation like "2-31" (undashed neighbours must be adjacent).
    Whitespace at either end is ignored; inside, it is an error."""
    dashed = text.strip()
    try:
        _gp_parts(dashed)
    except ValueError as exc:
        raise ParseError(0, "letters 1..9 separated by optional dashes", str(exc)) from exc
    try:
        return make_gp(dashed, mode)
    except ValueError as exc:
        raise ParseError(0, "a valid dashed pattern", str(exc)) from exc


def render_set(s: IntSet) -> str:
    """Canonical text from the normal form: P, E, O, kP (ascending k), then {rest}.

    Equal sets render alike, so "O+P" renders as "P" and "2P+{0}" as "E".
    """
    rest = set(s.extra)
    parts = ["O"] if s.odd else []  # under O every step is >= 3: no P or E to precede it
    for k in s.steps:
        if k == 2 and 0 in rest:
            rest.discard(0)
            parts.append("E")
        else:
            parts.append("P" if k == 1 else f"{k}P")
    if rest:
        parts.append("{" + ",".join(str(v) for v in sorted(rest)) + "}")
    return "+".join(parts)


def _render_base(base: tuple[int, ...]) -> str:
    if all(b <= 9 for b in base):
        return "".join(str(b) for b in base)
    return ",".join(str(b) for b in base)


def render_pattern(p: Pdvp) -> str:
    """Canonical text form; reparsing gives a pattern with the same matches."""
    xs = ",".join(render_set(s) for s in p.x)
    zs = ",".join(render_set(s) for s in p.z)
    if p.y:
        ys = ";".join(f"({a},{b},{render_set(d)})" for a, b, d in p.y)
    else:
        ys = "-"
    return f"{_render_base(p.base)}|{xs}|{ys}|{zs}"
