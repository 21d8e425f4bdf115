"""Formal divisor-class vector spaces over genus-parametric bases.

Two bases exist for each genus g >= 2, with h = floor(g/2):

* curve side ("M"): lambda, d0, d1, ..., dh
* spin side  ("S"): lambda, a0, b0s, a1, b1, ..., ah, bh

A class is a sparse coefficient vector over its basis: only the nonzero
exact-rational coefficients are stored. A test curve is a class too, read
as its vector of intersection numbers against the same basis. The
spin-side label for the second genus-0 boundary class is spelled ``b0s``
in every text format so that it can never be confused with the divisor
slope coefficient b_0 used elsewhere.

Every scalar is a standard library Fraction, which already keeps the
canonical form (reduced, positive denominator, zero stored as 0/1), and
no floating point appears anywhere, in memory or in output. External
output prints a rational as str(q): "p/q", or just "p" when the
denominator is 1. rational() is the strict parser that reads it back.

Text grammar (ASCII; the Unicode forms λ, δi, αi, βi are accepted on
input and βi maps to b0s for i = 0):

    class  := "0" | term (("+" | "-") term)*
    term   := [rational "*"] label
    rational := integer ["/" positive-integer]
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import lcm
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import ClassSyntaxError, MixedBasisError, UnknownLabelError

M_SIDE = "M"
S_SIDE = "S"

_RATIONAL_RE = re.compile(r"^\s*([+-]?\d+)\s*(?:/\s*(\d+)\s*)?$", re.ASCII)


def _ints(p: str, q: str | None) -> tuple[int, int]:
    """The integer pair of "p/q" from its digit strings, q = None meaning 1: the one p/q reader of both grammars."""
    d = 1 if q is None else int(q)
    if d == 0:
        raise ValueError(f"zero denominator: {f'{p}/{q}'!r}")
    return int(p), d


def rational(value: int | str | Fraction) -> Fraction:
    """Coerce an int, Fraction, or "p/q" string to a canonical rational.

    Decimal notation is rejected on purpose: the text formats of this
    package carry exact fractions only. A bool is not read as 0 or 1.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and type(value) is not bool:
        return Fraction(value)
    if isinstance(value, str):
        m = _RATIONAL_RE.match(value)
        if m is None:
            raise ValueError(f"not an exact rational: {value!r}")
        return Fraction(*_ints(m[1], m[2]))
    raise TypeError(f"cannot build an exact rational from {type(value).__name__}")


class _Value:
    """What a frozen dataclass would generate over the fields in __match_args__: ==, hash, repr, no assignment.

    Written out because importing dataclasses also loads inspect, ast, dis and
    tokenize, which would weigh on every CLI start. __init__ sets fields by _init.
    """

    __slots__ = __match_args__ = ()

    def _init(self, **fields) -> None:
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other):
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(f'{n}={getattr(self, n)!r}' for n in self.__match_args__)})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __reduce__(self):  # copy and pickle rebuild through __init__, since __setattr__ refuses
        return type(self), self._values()


class GenusCtx(_Value):
    """Genus context; h = floor(g/2) is derived, never stored."""

    __slots__ = __match_args__ = ("g",)

    def __init__(self, g: int) -> None:
        self._init(g=g)
        self.__post_init__()

    def __post_init__(self) -> None:
        if not isinstance(self.g, int) or self.g < 2:
            raise ValueError(f"genus must be an integer >= 2, got {self.g!r}")

    @property
    def h(self) -> int:
        return self.g // 2


def require_classification_genus(ctx: GenusCtx) -> None:
    """Reject g = 2: the named classes, the test curves and the certificates need g >= 3."""
    if ctx.g < 3:
        raise ValueError(f"this operation needs genus >= 3, got {ctx.g}")


@lru_cache(maxsize=8)
def _basis(g: int, side: str) -> Mapping[str, None]:
    """Read-only, ordered label set of the side basis at genus g.

    Cached, so a label check costs one lookup. It is keyed by the int genus,
    so a lookup never compares GenusCtx objects. The cache is small because
    a sweep visits each genus once, and a basis near g = 700 holds about a
    thousand labels.
    """
    h = GenusCtx(g).h
    if side == M_SIDE:
        labels = ["lambda", *(f"d{i}" for i in range(h + 1))]
    elif side == S_SIDE:
        labels = ["lambda", "a0", "b0s", *(f"{k}{i}" for i in range(1, h + 1) for k in "ab")]
    else:
        raise ValueError(f"side must be {M_SIDE!r} or {S_SIDE!r}, got {side!r}")
    return MappingProxyType(dict.fromkeys(labels))


def labels_for(ctx: GenusCtx, side: str) -> tuple[str, ...]:
    """The basis labels in order: lambda, d0, ..., dh on side M; lambda, a0, b0s, a1, b1, ..., ah, bh on side S."""
    return tuple(_basis(ctx.g, side))


def _unknown_labels(labels: Iterable[str], ctx: GenusCtx, side: str) -> UnknownLabelError:
    """The one error for labels outside the side basis at ctx.g; it names one label alone, several as a list."""
    labels = sorted(labels)
    what = f"label {labels[0]!r} is" if len(labels) == 1 else f"labels {labels} are"
    return UnknownLabelError(f"{what} not in the side-{side} basis at genus {ctx.g} "
                             f"(basis: {', '.join(_basis(ctx.g, side))})")


_ZERO, _ONE = Fraction(0), Fraction(1)


class DivisorClass(_Value):
    """A formal divisor class: exact coefficients over a fixed basis.

    Instances are immutable and store only their nonzero coefficients, in
    a read-only mapping; zeros given at construction are dropped and labels
    outside the basis of the genus context are rejected. Indexing with a
    basis label that is not stored gives 0.
    """

    __match_args__ = ("ctx", "side", "coeff")

    def __init__(self, ctx: GenusCtx, side: str, coeff: Mapping[str, Fraction] = MappingProxyType({})) -> None:
        self._init(ctx=ctx, side=side, coeff=coeff)
        self.__post_init__()

    def __post_init__(self) -> None:
        basis = _basis(self.ctx.g, self.side)
        if not self.coeff.keys() <= basis.keys():
            raise _unknown_labels(self.coeff.keys() - basis.keys(), self.ctx, self.side)
        values = ((l, v if type(v) is Fraction else rational(v)) for l, v in self.coeff.items())
        object.__setattr__(self, "coeff", MappingProxyType({l: v for l, v in values if v}))

    def __reduce__(self):  # the read-only coeff mapping does not pickle; a plain dict does
        return DivisorClass, (self.ctx, self.side, dict(self.coeff))

    def __getitem__(self, label: str) -> Fraction:
        if label not in _basis(self.ctx.g, self.side):
            raise _unknown_labels((label,), self.ctx, self.side)
        return self.coeff.get(label, _ZERO)

    def labels(self) -> tuple[str, ...]:
        return labels_for(self.ctx, self.side)

    def is_zero(self) -> bool:
        return not self.coeff

    def _require_compatible(self, other: "DivisorClass") -> None:
        if not isinstance(other, DivisorClass):
            raise TypeError(f"expected a DivisorClass, got {type(other).__name__}")
        # GenusCtx holds only g, so comparing genera compares contexts without a GenusCtx.__eq__ call
        if self.ctx.g != other.ctx.g or self.side != other.side:
            raise MixedBasisError(
                f"cannot combine side-{self.side} genus-{self.ctx.g} with "
                f"side-{other.side} genus-{other.ctx.g}"
            )

    def __eq__(self, other):  # genera by g, as in _require_compatible; this also leaves classes unhashable
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.ctx.g == other.ctx.g and self.side == other.side and self.coeff == other.coeff

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        return lincomb((1, 1), (self, other))

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        return lincomb((1, -1), (self, other))

    def __neg__(self) -> "DivisorClass":
        return self.scaled(-1)

    def scaled(self, scalar) -> "DivisorClass":
        return lincomb((scalar,), (self,))

    __mul__ = scaled
    __rmul__ = scaled

    def __str__(self) -> str:
        return render_class(self)


def zero_class(ctx: GenusCtx, side: str) -> DivisorClass:
    return DivisorClass(ctx, side, {})


def basis_class(ctx: GenusCtx, side: str, label: str) -> DivisorClass:
    if label not in _basis(ctx.g, side):
        raise _unknown_labels((label,), ctx, side)
    return _trusted(ctx, side, {label: _ONE})


def lincomb(scalars: Sequence, classes: Sequence[DivisorClass]) -> DivisorClass:
    """Exact linear combination sum(scalars[k] * classes[k]), over nonzeros only.

    `+`, `-` and scalar multiples call it too. Each term goes through
    _sum_terms, the integer kernel that the parser and the transfer maps
    share.
    """
    if not classes or len(scalars) != len(classes):
        raise MixedBasisError("lincomb needs equally long, nonempty scalar and class lists")
    first = classes[0]
    scaled = []
    for s, cls in zip(scalars, classes):
        first._require_compatible(cls)
        q = rational(s)
        scaled.append((q.numerator, q.denominator, cls))
    return _sum_terms(first.ctx, first.side, (
        (label, sn * v.numerator, sd * v.denominator)
        for sn, sd, cls in scaled
        for label, v in cls.coeff.items()
    ))


def _sum_terms(ctx: GenusCtx, side: str, terms: Iterable[tuple[str, int, int]]) -> DivisorClass:
    """The class summing (label, numerator, denominator) terms; the labels must be in the basis.

    The one arithmetic kernel for classes. Each label's terms are summed as
    an integer numerator over that label's own common denominator, and each
    nonzero sum becomes one reduced Fraction at the end.
    """
    acc: dict[str, tuple[int, int]] = {}
    for label, n, d in terms:
        if label in acc:
            an, ad = acc[label]
            if ad != d:
                m = lcm(ad, d)
                an, n, d = an * (m // ad), n * (m // d), m
            n += an
        acc[label] = (n, d)
    # Fraction(n) skips the gcd that Fraction(n, 1) would take
    return _trusted(ctx, side, {
        l: Fraction(n) if d == 1 else Fraction(n, d) for l, (n, d) in acc.items() if n
    })


def _trusted(ctx: GenusCtx, side: str, coeff: dict[str, Fraction]) -> DivisorClass:
    """A class from coefficients already known to be nonzero reduced Fractions under basis labels.

    Skips the validation and coercion of DivisorClass.__post_init__, which
    every class built by the public constructor still goes through. Built
    here: the kernel's outputs (lincomb, parse_class, pushforward), basis_class,
    pullback, catalog's closed forms and divisor_class, the test curves,
    solve_thetanull, and decompose_canonical's lambda and slope-only D.
    """
    cls = object.__new__(DivisorClass)
    vars(cls).update(ctx=ctx, side=side, coeff=MappingProxyType(coeff))
    return cls


# --- text format -----------------------------------------------------------

_TERM_RE = re.compile(
    r"(?:(?P<p>\d+)(?:\s*/\s*(?P<q>\d+))?\s*\*\s*)?"
    r"(?P<label>λ|lambda|[dab]\d+s?|[δαβ]\d+)",
    re.ASCII,  # \d and \s match ASCII only; the λ/δ/α/β literals still match
)
_SIGN_RE = re.compile(r"\s*([+-])\s*", re.ASCII)
_ASCII_WHITESPACE = " \t\n\r\f\v"  # what \s matches under re.ASCII

_UNICODE_HEADS = {"δ": "d", "α": "a", "β": "b"}


def _canonical_label(token: str) -> str:
    if token in ("λ", "lambda"):
        return "lambda"
    head = token[0]
    if head in _UNICODE_HEADS:
        # the index digits are kept as written, so δ01 is rejected like d01
        return "b0s" if token == "β0" else _UNICODE_HEADS[head] + token[1:]
    return token


def parse_class(text: str, ctx: GenusCtx, side: str) -> DivisorClass:
    """Parse a class expression against the basis of (ctx, side).

    Raises UnknownLabelError for labels outside the basis and
    ClassSyntaxError for anything that does not match the grammar. The
    terms are summed by the same integer kernel as lincomb.
    """
    s = text.strip(_ASCII_WHITESPACE)
    if s == "0":
        return zero_class(ctx, side)
    if not s:
        raise ClassSyntaxError("empty class expression")
    return _sum_terms(ctx, side, _parse_terms(s, text, ctx, side))


def _parse_terms(s: str, text: str, ctx: GenusCtx, side: str) -> Iterator[tuple[str, int, int]]:
    """Each term of the stripped expression s as (label, numerator, denominator)."""
    basis = _basis(ctx.g, side)
    # s is stripped, so whitespace after a term is always followed by a sign
    pos = 0
    while pos < len(s):
        sign = 1
        m = _SIGN_RE.match(s, pos)
        if m is not None:
            sign = 1 if m.group(1) == "+" else -1
            pos = m.end()
        elif pos:
            raise ClassSyntaxError(f"expected '+' or '-' before position {pos} in {text!r}")
        m = _TERM_RE.match(s, pos)
        if m is None:
            raise ClassSyntaxError(f"expected a term at position {pos} in {text!r}")
        label = _canonical_label(m.group("label"))
        if label not in basis:
            raise _unknown_labels((m.group("label"),), ctx, side)  # the token as written, λ or δ included
        n, d = _ints(m["p"] or "1", m["q"])
        yield label, sign * n, d
        pos = m.end()


def render_class(x: DivisorClass) -> str:
    """Canonical text form: basis order, zero terms omitted, "0" for zero.

    Unit coefficients render as the bare label, so the output stays inside
    the input grammar and parse_class(render_class(x)) == x.
    """
    terms = []
    coeff = x.coeff
    for label in _basis(x.ctx.g, x.side):
        v = coeff.get(label)
        if v is None:
            continue
        n, d = v.numerator, v.denominator
        mag = abs(n)
        terms.append((n < 0, f"{mag}/{d}*{label}" if d != 1 else f"{mag}*{label}" if mag != 1 else label))
    return _join_signed(terms)


def _join_signed(terms: Iterable[tuple[bool, str]]) -> str:
    """The signed sum "-t1 + t2 - t3" of (negative, term) pairs in order, or "0" when there are none."""
    text = " ".join([f"- {term}" if negative else f"+ {term}" for negative, term in terms])
    if not text:
        return "0"
    # the first term keeps a minus sign without the space, and drops a plus
    return text[2:] if text[0] == "+" else "-" + text[2:]
