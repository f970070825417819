"""Signed integers extended with negative/positive infinity.

Cost bounds live in this domain: either a plain Python ``int`` restricted
to the signed 64-bit range, or one of the two sentinels ``NEG_INF`` and
``POS_INF``.  The sentinels compare and hash like ordinary values, so they
can be used directly as dict keys, in ``min``/``max``, and in ``bisect``
searches over mixed lists.

Finite arithmetic is range-checked: any operation whose result would leave
the signed 64-bit range raises :class:`CostOverflowError` instead of
silently producing a number the engine cannot justify.
"""

from __future__ import annotations

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1


class CostOverflowError(OverflowError):
    """A cost sum left the signed 64-bit range."""


class _Infinity:
    """Signed infinity sentinel, totally ordered against ints and itself."""

    __slots__ = ("_sign",)

    def __init__(self, sign: int):
        self._sign = sign

    def __lt__(self, other):
        if isinstance(other, _Infinity):
            return self._sign < other._sign
        if isinstance(other, int):
            return self._sign < 0
        return NotImplemented

    def __le__(self, other):
        if isinstance(other, _Infinity):
            return self._sign <= other._sign
        if isinstance(other, int):
            return self._sign < 0
        return NotImplemented

    def __gt__(self, other):
        if isinstance(other, _Infinity):
            return self._sign > other._sign
        if isinstance(other, int):
            return self._sign > 0
        return NotImplemented

    def __ge__(self, other):
        if isinstance(other, _Infinity):
            return self._sign >= other._sign
        if isinstance(other, int):
            return self._sign > 0
        return NotImplemented

    def __eq__(self, other):
        return isinstance(other, _Infinity) and self._sign == other._sign

    def __hash__(self):
        return hash(("extint-infinity", self._sign))

    def __neg__(self):
        return NEG_INF if self._sign > 0 else POS_INF

    def __repr__(self):
        return "POS_INF" if self._sign > 0 else "NEG_INF"


NEG_INF = _Infinity(-1)
POS_INF = _Infinity(+1)

# Either a checked finite int or one of the two sentinels.
ExtInt = int | _Infinity


def is_finite(x: ExtInt) -> bool:
    return type(x) is int


def check_finite(v: int) -> int:
    """Return ``v`` if it fits in int64, else raise CostOverflowError."""
    if INT64_MIN <= v <= INT64_MAX:
        return v
    raise CostOverflowError(f"cost value {v} outside signed 64-bit range")


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
    return "+inf" if x is POS_INF or x == POS_INF else "-inf"


def parse_ext(text: str) -> ExtInt:
    """Parse a bound as written on the command line.

    Accepts an optionally signed integer, ``-inf``, ``inf``, or ``+inf``
    (case-insensitive).  Raises ValueError otherwise.
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
    return check_finite(v)
