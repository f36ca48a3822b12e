"""One work model: before any work, each scan, window automaton, series,
phase of a solve and morphism iterate bounds its steps, each at most about
one matcher call (2-7 us per window, 3 us per walk node), and the bits it
holds, at the sizes below (measured).  `check_work` refuses steps above
PDVP_BUDGET (10^8 when unset) and bits above 2^30.  Predictions stop
counting at `ceiling()`, so an input of any size is refused at once, and a
refusal prints an amount of more than 30 digits as a power of ten below it.
"""

from __future__ import annotations

import os
import sys

WALK_POSITION_BITS = 8 * 96  # per position of a walk
COUNT_POSITION_BITS = 8 * 128  # per position of a walk that counts, with its count
FAMILY_CHILD_BITS = 8 * 64  # per letter and depth of a word walk: its family, and the score arrays
ROW_BITS = 8 * 600  # per row an every-length scan returns
EDGE_BITS = 8 * 160  # per automaton edge, with its lumping and its quotient
COEFF_BITS = 8 * 112  # per decoded series coefficient, beside its value
CHUNK_BITS = 4096  # a dp edge costs a step per this many bits it adds
LETTER_BITS = 8 * 8  # per letter of a morphism iterate

DEFAULT_BUDGET = 10**8  # steps, when PDVP_BUDGET is unset
DEFAULT_BITS_BUDGET = 2**30


class EnumerationLimitError(ValueError):
    """The predicted work exceeds a budget; raised before any work starts."""


def ceiling() -> int:
    """16^D > 10^D, D the digits an int may print with: above PDVP_BUDGET."""
    return 1 << 4 * (sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits)


def power(t: int, k: int) -> int:
    """t^k, or `ceiling()` when that is smaller, then found without the power."""
    top = ceiling()
    return top if k * (t.bit_length() - 1) >= top.bit_length() else min(t**k, top)


def _shown(amount: int) -> str:
    """`amount` in full, or "at least 10^k" (10^k <= amount) when it has more
    than 30 digits."""
    if amount < 10**30:
        return str(amount)
    k = (amount.bit_length() - 1) * 3010 // 10000  # 2^(b-1) <= amount, and log10(2) > 0.301
    while 10 ** (k + 1) <= amount:
        k += 1
    return f"at least 10^{k}"


def check_work(what: str, steps: int, bits: int, refuse: bool = True) -> bool:
    """Whether the predicted work of `what` is within every limit; if not, raise
    EnumerationLimitError naming the first it exceeds, unless `refuse` is false.
    A malformed PDVP_BUDGET raises ValueError."""
    var = "PDVP_BUDGET"
    raw = os.environ.get(var)
    try:
        budget = int(raw) if raw else DEFAULT_BUDGET
    except ValueError:
        budget = -1
    if budget < 0:
        raise ValueError(f"{var} must be a non-negative integer, got {raw!r}")
    top = ceiling()
    for amount, unit, name, limit in (
        (steps, "steps", "budget", budget),
        (bits, "bits", "bound", DEFAULT_BITS_BUDGET),
    ):
        if amount > limit or amount >= top:
            if not refuse:
                return False
            size = f"at least 2^{top.bit_length() - 1}" if amount >= top else _shown(amount)
            raise EnumerationLimitError(f"{what} of {size} {unit} exceeds the {name} {limit}")
    return True
