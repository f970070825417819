"""Signed integers extended with negative/positive infinity.

Cost bounds live in this domain: either a plain Python ``int`` restricted
to the signed 64-bit range, or one of the IEEE infinities ``NEG_INF`` and
``POS_INF`` (``-math.inf`` and ``math.inf``).  Python orders floats
against ints of any size exactly, and compares and hashes them in C, so
bounds mix freely in ``min``/``max``, ``bisect`` searches and dict keys.
An infinity is never a cost, and no finite float is a bound.

Finite arithmetic is range-checked: any operation whose result would leave
the signed 64-bit range raises :class:`CostOverflowError` instead of
silently producing a number the engine cannot justify.
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
    """A cost sum left the signed 64-bit range."""


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


def ext_add(a: ExtInt, c: int) -> ExtInt:
    """``a + c`` where ``a`` may be infinite and ``c`` is finite."""
    if type(a) is int:
        r = a + c
        if INT64_MIN <= r <= INT64_MAX:
            return r
        raise CostOverflowError(f"cost sum {r} outside signed 64-bit range")
    return a


def format_ext(x: ExtInt) -> str:
    """Render a bound for reports and diagnostics: ``-inf``, ``+inf``, or digits."""
    if type(x) is int:
        return str(x)
    return "+inf" if x > 0 else "-inf"


def parse_ext(text: str) -> ExtInt:
    """Parse a bound as written on the command line.

    Accepts an optionally signed integer, ``-inf``, ``inf``, or ``+inf``
    (case-insensitive).  Raises ValueError otherwise, and
    CostOverflowError for an integer outside the signed 64-bit range.
    """
    t = text.strip().lower()
    if t in ("-inf", "-infinity"):
        return NEG_INF
    if t in ("inf", "+inf", "infinity", "+infinity"):
        return POS_INF
    try:
        v = int(t)
    except ValueError:
        raise ValueError(f"not a bound: {text!r} (expected integer, -inf, or +inf)") from None
    if not INT64_MIN <= v <= INT64_MAX:
        raise CostOverflowError(f"bound {v} outside the 64-bit range")
    return v
