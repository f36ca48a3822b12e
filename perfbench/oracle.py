"""Naive occurrence counting, independent of the pdvp package.

Patterns here are plain specs, so the oracle shares no parser, set type or
search code with the program it checks:

    {"mode": "perm" | "word", "base": [..], "x": [set, ..], "y": [[s, t, set], ..],
     "z": [set, ..]}

where a set is "P" (positive integers), "E" (evens, with 0), "O" (odds) or a
list of members.  `render` writes a spec in the pipe notation the program
parses.  Counting tries every index subsequence against the definition.
"""

from __future__ import annotations

from itertools import combinations


def member(x: int, s) -> bool:
    if s == "P":
        return x >= 1
    if s == "E":
        return x % 2 == 0
    if s == "O":
        return x % 2 == 1
    return x in s


def _render_set(s) -> str:
    return s if isinstance(s, str) else "{" + ",".join(map(str, s)) + "}"


def render(spec: dict) -> str:
    base = "".join(map(str, spec["base"]))
    xs = ",".join(_render_set(s) for s in spec["x"])
    ys = ";".join(f"({s},{t},{_render_set(d)})" for s, t, d in spec["y"]) or "-"
    zs = ",".join(_render_set(s) for s in spec["z"])
    return f"{base}|{xs}|{ys}|{zs}"


def _sign(d: int) -> int:
    return (d > 0) - (d < 0)


def count(spec: dict, entries, alphabet: int | None = None) -> int:
    """Occurrences of `spec` in a permutation, or in a word over {1..alphabet}."""
    n = len(entries)
    base = spec["base"]
    m = len(base)
    upper = n + 1 if spec["mode"] == "perm" else alphabet
    total = 0
    for combo in combinations(range(1, n + 1), m):
        vals = [entries[i - 1] for i in combo]
        if any(
            _sign(vals[b] - vals[a]) != _sign(base[b] - base[a])
            for a in range(m)
            for b in range(a + 1, m)
        ):
            continue
        idx = (0,) + combo + (n + 1,)
        if not all(member(idx[k + 1] - idx[k], spec["x"][k]) for k in range(m + 1)):
            continue
        padded = [0] + vals + [upper]
        if not all(member(abs(padded[s] - padded[t]), d) for s, t, d in spec["y"]):
            continue
        if all(member(v, z) for v, z in zip(vals, spec["z"])):
            total += 1
    return total


def avoids_all(specs, entries, alphabet: int | None = None) -> bool:
    return all(count(spec, entries, alphabet) == 0 for spec in specs)
