"""Signed integers extended with negative/positive infinity.

Cost bounds live in this domain: either a plain Python ``int`` restricted
to the signed 64-bit range, or one of the IEEE infinities ``NEG_INF`` and
``POS_INF`` (``-math.inf`` and ``math.inf``).  Python orders floats
against ints of any size exactly, and compares and hashes them in C, so
bounds mix freely in ``min``/``max``, ``bisect`` searches and dict keys.
An infinity is never a cost, and no finite float is a bound.

No sum is range-checked where it is formed.  :func:`check_costs` requires
each sign's cost sum to fit in the signed 64-bit range, so every sum of
some of the costs fits, and the Bounder gives every bound headroom
against those sums.  A value that either entry check refuses raises
:class:`CostOverflowError`.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1

NEG_INF = -math.inf
POS_INF = math.inf

# Either a checked finite int or one of the two infinities.
ExtInt = int | float


class CostOverflowError(OverflowError):
    """A cost, a cost mass or a bound outside the signed 64-bit range."""


def check_finite(v: int) -> int:
    """Return ``v`` as an int if it fits in int64.

    Raises CostOverflowError outside that range (an infinity included)
    and TypeError for any other value that is not an int, NaN included.
    A bool counts as the int it equals.
    """
    if isinstance(v, int):
        if INT64_MIN <= v <= INT64_MAX:
            return int(v)
    elif v != POS_INF and v != NEG_INF:
        raise TypeError(f"cost must be an int, got {type(v).__name__} {v!r}")
    raise CostOverflowError(f"cost value {v} outside signed 64-bit range")


def check_costs(costs: Iterable[int]) -> tuple[list[int], int, int]:
    """Return the costs as ints, with the sum of the positive ones and the
    sum of the negative ones.

    Raises what check_finite raises for a cost, and CostOverflowError when
    either sum leaves the signed 64-bit range; with both sums inside it,
    so is every sum of some of the costs.
    """
    out: list[int] = []
    pos = neg = 0
    for c in costs:
        c = check_finite(c)
        out.append(c)
        if c > 0:
            pos += c
        else:
            neg += c
    if pos > INT64_MAX or neg < INT64_MIN:
        raise CostOverflowError("total cost mass exceeds the 64-bit range")
    return out, pos, neg


def format_ext(x: ExtInt) -> str:
    """Render a bound for reports and diagnostics: ``-inf``, ``+inf``, or digits."""
    if type(x) is int:
        return str(x)
    return "+inf" if x > 0 else "-inf"


def parse_ext(text: str) -> ExtInt:
    """Parse a bound as written on the command line.

    Accepts an optionally signed integer, ``-inf``, ``inf``, or ``+inf``
    (case-insensitive), and raises ValueError otherwise.  The integer is
    not range-checked here: the Bounder checks every bound it is given.
    """
    t = text.strip().lower()
    if t in ("-inf", "-infinity"):
        return NEG_INF
    if t in ("inf", "+inf", "infinity", "+infinity"):
        return POS_INF
    try:
        return int(t)
    except ValueError:
        raise ValueError(f"not a bound: {text!r} (expected integer, -inf, or +inf)") from None
