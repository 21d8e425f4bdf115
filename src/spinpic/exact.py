"""Exact rational scalars and the exact linear solve.

Every computation in this package runs over arbitrary-precision rationals;
no floating point appears anywhere, in memory or in output. The scalar is
the standard library Fraction, which already keeps the canonical form we
need (reduced, positive denominator, zero stored as 0/1). This module adds
the strict text format used by all external output ("p/q", or just "p"
when the denominator is 1) and an exact Gaussian-elimination solver for
the small square systems of the theta-null re-derivation.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Sequence

from .errors import DimensionMismatchError, SingularMatrixError

Rational = Fraction

_RATIONAL_RE = re.compile(r"^\s*([+-]?\d+)\s*(?:/\s*([+-]?\d+)\s*)?$")


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


def _check_rect(a: Sequence[Sequence[Fraction]]) -> tuple[int, int]:
    if not a:
        raise DimensionMismatchError("empty matrix")
    cols = len(a[0])
    for row in a:
        if len(row) != cols:
            raise DimensionMismatchError("ragged matrix rows")
    return len(a), cols


def solve_exact(a: Sequence[Sequence[Fraction]], b: Sequence[Fraction]) -> list[Fraction]:
    """Solve A x = b exactly for square nonsingular A.

    Plain exact Gaussian elimination; the pivot is the first nonzero entry
    in the column, which is all partial pivoting means over exact
    rationals. The systems this package builds stay tiny, so no
    fraction-free variant is needed.

    Raises SingularMatrixError when elimination finds rank < n and
    DimensionMismatchError for non-square or ill-matched shapes.
    """
    rows, cols = _check_rect(a)
    if rows != cols:
        raise DimensionMismatchError(f"matrix is {rows}x{cols}, expected square")
    n = rows
    if len(b) != n:
        raise DimensionMismatchError(f"matrix is {n}x{n}, right-hand side has length {len(b)}")

    m = [[Fraction(v) for v in row] + [Fraction(b[i])] for i, row in enumerate(a)]

    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            raise SingularMatrixError(f"rank deficiency discovered in column {col}")
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
        for r in range(col + 1, n):
            if m[r][col] == 0:
                continue
            factor = m[r][col] / m[col][col]
            for c in range(col, n + 1):
                m[r][c] -= factor * m[col][c]

    x = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        acc = m[i][n] - sum((m[i][j] * x[j] for j in range(i + 1, n)), Fraction(0))
        x[i] = acc / m[i][i]
    return x
