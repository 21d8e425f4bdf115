"""Exact rational scalars and their text format.

Every computation in this package runs over arbitrary-precision rationals;
no floating point appears anywhere, in memory or in output. The scalar is
the standard library Fraction, which already keeps the canonical form we
need (reduced, positive denominator, zero stored as 0/1). This module adds
the strict text format used by all external output ("p/q", or just "p"
when the denominator is 1) and the parser that reads it back.
"""

from __future__ import annotations

import re
from fractions import Fraction

_RATIONAL_RE = re.compile(r"^\s*([+-]?\d+)\s*(?:/\s*([+-]?\d+)\s*)?$", re.ASCII)


def rational(value: int | str | Fraction) -> Fraction:
    """Coerce an int, Fraction, or "p/q" string to a canonical rational.

    Decimal notation is rejected on purpose: the text formats of this
    package carry exact fractions only.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        m = _RATIONAL_RE.match(value)
        if m is None:
            raise ValueError(f"not an exact rational: {value!r}")
        num = int(m.group(1))
        den = int(m.group(2)) if m.group(2) is not None else 1
        if den == 0:
            raise ValueError(f"zero denominator: {value!r}")
        return Fraction(num, den)
    raise TypeError(f"cannot build an exact rational from {type(value).__name__}")


def format_rational(q: Fraction | int) -> str:
    """Render as "p/q", or "p" when the denominator is 1."""
    return str(q if type(q) is Fraction else Fraction(q))
