"""Formal divisor-class vector spaces over genus-parametric bases.

Two bases exist for each genus g >= 2, with h = floor(g/2):

* curve side ("M"): lambda, d0, d1, ..., dh
* spin side  ("S"): lambda, a0, b0s, a1, b1, ..., ah, bh

A class is a sparse coefficient vector over its basis: one positive
common denominator den and the nonzero integer numerators num, with
gcd(den, *num) = 1, so that the arithmetic sums integers and builds no
Fraction per label. coeff is the read-only view label -> reduced Fraction,
built on demand. A test curve is a class too, read as its vector of
intersection numbers against the same basis. The spin-side label for the
second genus-0 boundary class is spelled ``b0s`` in every text format so
that it can never be confused with the divisor slope coefficient b_0 used
elsewhere.

The indexed labels d[i], a[i] and b[i] (b[0] is "b0s") do not depend on the
genus, and the engine serves g <= MAX_GENUS only, so the label table is a
constant: _spell writes it once, at import, through index MAX_GENUS // 2 + 1.
_LABELS holds the tuples d, a and b by index and the read-only maps m (of
_M: lambda, d0, d1, ...) and s (of _S: lambda, a0, b0s, a1, b1, ...) of each
side's labels, in basis order, to their index i (lambda -> 0). Genus g's
basis is the first h+2 labels of _M or 2h+3 of _S: those of index i <= h.
The table ends one index past the largest basis, so a slice past any basis
reads a label outside it. The engine modules read labels and indices only
through _LABELS and _basis, and no code parses an index out of a label.
verify reads _oracle's own spelling of them, an independent check of the table.

Scalars are standard library Fractions, and no floating point appears
anywhere, in memory or in output. External output prints a rational as
"p/q" in lowest terms, or just "p" when the denominator is 1, as str() of
a Fraction does; _ratios writes a list of them from numerators over one
denominator, and rational() is the strict parser that reads one back.

Text grammar (ASCII; the Unicode forms λ, δi, αi, βi are accepted on
input and βi maps to b0s for i = 0):

    class  := "0" | term (("+" | "-") term)*
    term   := [rational "*"] label
    rational := integer ["/" positive-integer]

parse_class reads each signed term with one regex match, left to right.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import islice, repeat
from math import gcd, lcm
from types import MappingProxyType, SimpleNamespace
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import ClassSyntaxError, EngineFaultError, MixedBasisError, UnknownLabelError

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


# The largest genus the engine serves; GenusCtx refuses a larger one, and the cli checks its ranges against it first.
MAX_GENUS = 1000


class GenusCtx(_Value):
    """Genus context, 2 <= g <= MAX_GENUS; h = floor(g/2) is derived, never stored."""

    __slots__ = __match_args__ = ("g",)

    def __init__(self, g: int) -> None:
        self._init(g=g)
        self.__post_init__()

    def __post_init__(self) -> None:
        if not isinstance(self.g, int) or self.g < 2:
            raise ValueError(f"genus must be an integer >= 2, got {self.g!r}")
        if self.g > MAX_GENUS:
            raise ValueError(f"genus {self.g} is above the maximum {MAX_GENUS}")

    @property
    def h(self) -> int:
        return self.g // 2


def require_classification_genus(ctx: GenusCtx) -> None:
    """Reject g = 2: the named classes, the test curves and the certificates need g >= 3."""
    if ctx.g < 3:
        raise ValueError(f"this operation needs genus >= 3, got {ctx.g}")


# The label table (see the module docstring), which only _spell writes; m and s are read-only views of _M and _S.
_M: dict[str, int] = {"lambda": 0}
_S: dict[str, int] = {"lambda": 0}


def _spell(n: int) -> SimpleNamespace:
    """The label table through index n, with _M and _S filled: the only code that spells an indexed label.

    It runs once, at import. Each label is one string object per process,
    shared by its family's tuple and its side's map, so its hash is computed
    once however many classes and genera store it.
    """
    d, a, b = [], [], []
    for i in range(n + 1):
        x, y, z = f"d{i}", f"a{i}", f"b{i}" if i else "b0s"
        _M[x] = _S[y] = _S[z] = i
        d.append(x)
        a.append(y)
        b.append(z)
    return SimpleNamespace(d=tuple(d), a=tuple(a), b=tuple(b), m=MappingProxyType(_M), s=MappingProxyType(_S))


_LABELS = _spell(MAX_GENUS // 2 + 1)  # one index past the largest basis


def _basis(side: str) -> Mapping[str, int]:
    """The side's read-only ordered map label -> index: genus g's basis is its labels of index i <= h."""
    if side == M_SIDE:
        return _LABELS.m
    if side == S_SIDE:
        return _LABELS.s
    raise ValueError(f"side must be {M_SIDE!r} or {S_SIDE!r}, got {side!r}")


def _ordered(g: int, side: str) -> Iterator[str]:
    """The basis labels at genus g in order: the first h+2 of side M's map, or the first 2h+3 of side S's."""
    return islice(_basis(side), (g // 2 + 1) * (1 if side == M_SIDE else 2) + 1)


def labels_for(ctx: GenusCtx, side: str) -> tuple[str, ...]:
    """The basis labels in order: lambda, d0, ..., dh on side M; lambda, a0, b0s, a1, b1, ..., ah, bh on side S."""
    return tuple(_ordered(ctx.g, side))


def _index(label: str, ctx: GenusCtx, side: str) -> int:
    """The label's index in the side basis at ctx.g, or _unknown_labels raised: the basis holds the i <= h."""
    h = ctx.h
    if (i := _basis(side).get(label, h + 1)) > h:  # h + 1 stands for no index
        raise _unknown_labels((label,), ctx, side)
    return i


def _unknown_labels(labels: Iterable[str], ctx: GenusCtx, side: str) -> UnknownLabelError:
    """The one error for labels outside the side basis at ctx.g; it names one label alone, several as a list."""
    labels = sorted(labels)
    what = f"label {labels[0]!r} is" if len(labels) == 1 else f"labels {labels} are"
    return UnknownLabelError(f"{what} not in the side-{side} basis at genus {ctx.g} "
                             f"(basis: {', '.join(_ordered(ctx.g, side))})")


_ZERO = Fraction(0)


def _ratios(ns: Iterable[int], d: int, ks: list[int] | None = None) -> list[str]:
    """[str(Fraction(n, d)) for n in ns] for d >= 1, without building a Fraction: the one p/q writer of the package.

    Over d = 1, the case of most cli calls (pair, class, solve-thetanull),
    each entry is str(n). Otherwise the gcds with d are taken by one map,
    or given as ks, gcd(n, d) for each n, by a caller that shares them
    between entries it knows to have equal gcds; each distinct "/q" tail is
    formatted once, and an entry is str(n // k) + its tail. ns may be a
    one-shot iterator, as render_class's map(abs, ...) is.
    """
    if d == 1:
        return list(map(str, ns))
    if ks is None:
        if not isinstance(ns, (list, tuple)):  # read twice below
            ns = list(ns)
        ks = list(map(gcd, ns, repeat(d)))
    tails = {k: "" if k == d else f"/{d // k}" for k in set(ks)}
    return [str(n // k) + tails[k] for n, k in zip(ns, ks)]


class DivisorClass(_Value):
    """A formal divisor class: exact coefficients over a fixed basis.

    Instances are immutable and store one positive common denominator den
    and a read-only mapping num of the nonzero integer numerators, with
    gcd(den, *num) = 1, so equal classes store equal integers. coeff is
    the read-only view label -> reduced Fraction, built on each read; no
    engine path reads it. The constructor drops zeros and rejects labels
    outside the basis of the genus context. Indexing with a basis label
    that is not stored gives 0.
    """

    __match_args__ = ("ctx", "side", "coeff")

    def __init__(self, ctx: GenusCtx, side: str, coeff: Mapping[str, Fraction] = MappingProxyType({})) -> None:
        self._init(ctx=ctx, side=side, num=coeff)  # __post_init__ turns the given coefficients into num and den
        self.__post_init__()

    def __post_init__(self) -> None:
        basis, h = _basis(self.side), self.ctx.h
        if unknown := [label for label in self.num if basis.get(label, h + 1) > h]:  # as in _index
            raise _unknown_labels(unknown, self.ctx, self.side)
        groups = [(q.numerator, q.denominator, ((label, 1),))
                  for label, q in zip(self.num, map(rational, self.num.values()))]
        built = _sum_terms(self.ctx, self.side, groups)  # one group per value: zeros dropped, the given order kept
        vars(self).update(num=built.num, den=built.den)

    @property
    def coeff(self) -> Mapping[str, Fraction]:
        return MappingProxyType({label: Fraction(n, self.den) for label, n in self.num.items()})

    def __reduce__(self):  # the read-only coeff mapping does not pickle; a plain dict does
        return DivisorClass, (self.ctx, self.side, dict(self.coeff))

    def __getitem__(self, label: str) -> Fraction:
        _index(label, self.ctx, self.side)
        return Fraction(self.num[label], self.den) if label in self.num else _ZERO

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
        return (self.ctx.g == other.ctx.g and self.side == other.side and self.den == other.den
                and self.num == other.num)

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
    _index(label, ctx, side)
    return _trusted(ctx, side, {label: 1}, 1)


def lincomb(scalars: Sequence, classes: Sequence[DivisorClass]) -> DivisorClass:
    """Exact linear combination sum(scalars[k] * classes[k]), over nonzeros only.

    `+`, `-` and scalar multiples call it too. Each class is one group of
    _sum_terms, the integer kernel that the parser and the transfer maps
    share.
    """
    if not classes or len(scalars) != len(classes):
        raise MixedBasisError("lincomb needs equally long, nonempty scalar and class lists")
    first = classes[0]
    groups = []
    for s, cls in zip(scalars, classes):
        first._require_compatible(cls)
        if type(s) is int:  # a bool is not an int here, so rational() rejects it
            groups.append((s, cls.den, cls.num.items()))
        else:
            q = rational(s)
            groups.append((q.numerator, q.denominator * cls.den, cls.num.items()))
    return _sum_terms(first.ctx, first.side, groups)


def _sum_terms(ctx: GenusCtx, side: str,
               groups: Iterable[tuple[int, int, Iterable[tuple[str, int]]]]) -> DivisorClass:
    """The class sum over groups (n, d, pairs) of n/d times sum(m * label) over pairs (label, m).

    The one arithmetic kernel for classes, which the public constructor,
    lincomb, parse_class, pushforward, solve_thetanull and a decomposition's
    remainder call; the labels must be in the basis. It takes one lcm of the
    group denominators (a single group's own denominator), sums integer
    numerators over it, and divides out their one common gcd, so no
    Fraction is built. The gcd is taken over the sums as they stand, since a
    zero does not change it, and one pass then drops the zeros and divides.
    Over den = 1 the result is already in lowest terms, so the gcd is
    skipped.
    """
    groups = list(groups)
    den = groups[0][1] if len(groups) == 1 else lcm(*(d for _, d, _ in groups))
    acc: dict[str, int] = {}
    for n, d, pairs in groups:
        if n:
            k = n * (den // d)
            for label, m in pairs:
                acc[label] = acc.get(label, 0) + k * m
    if den != 1 and (k := gcd(den, *acc.values())) != 1:
        return _trusted(ctx, side, {label: m // k for label, m in acc.items() if m}, den // k)
    return _trusted(ctx, side, {label: m for label, m in acc.items() if m}, den)


def _trusted(ctx: GenusCtx, side: str, num: dict[str, int], den: int) -> DivisorClass:
    """A class from nonzero integer numerators under basis labels over den >= 1, with gcd(den, *num) = 1.

    Skips the validation and coercion of DivisorClass.__post_init__, which
    every class built by the public constructor still goes through. Built
    here: the kernel's outputs (every class that _sum_terms reduces),
    basis_class, pullback, catalog's closed forms (each genus's own D among
    them) and the test curves, none of which reduces; tests/test_imports.py
    lists these call sites, and tests/conftest.py checks every class they
    build against this contract. The fields go straight into the instance
    dict, with no keyword dict built.
    """
    cls = object.__new__(DivisorClass)
    fields = cls.__dict__
    fields["ctx"], fields["side"], fields["num"], fields["den"] = ctx, side, MappingProxyType(num), den
    return cls


# --- text format -----------------------------------------------------------

# one signed term: the sign is optional in the pattern and required, by _parse_terms, after position 0
_SIGNED_TERM_RE = re.compile(
    r"\s*(?P<sign>[+-]?)\s*(?:(?P<p>\d+)(?:\s*/\s*(?P<q>\d+))?\s*\*\s*)?"
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
    ClassSyntaxError for anything that does not match the grammar, each at
    the first term where it occurs. The terms are summed by the same integer
    kernel as lincomb.
    """
    s = text.strip(_ASCII_WHITESPACE)
    if s == "0":
        return zero_class(ctx, side)
    if not s:
        raise ClassSyntaxError("empty class expression")
    return _sum_terms(ctx, side, _parse_terms(s, text, ctx, side))


def _parse_terms(s: str, text: str, ctx: GenusCtx, side: str) -> list[tuple[int, int, tuple[tuple[str, int]]]]:
    """Each term of the stripped expression s as a _sum_terms group (numerator, denominator, ((label, 1),)).

    One match of _SIGNED_TERM_RE per term; the terms must follow each other
    with no gap, each after the first with its sign, up to the end of s.
    """
    basis, h = _basis(side), ctx.h
    groups, pos = [], 0
    for m in _SIGNED_TERM_RE.finditer(s):
        sign, p, q, token = m.groups()
        if m.start() != pos or (pos and not sign):
            break
        label = _canonical_label(token)
        if basis.get(label, h + 1) > h:  # as in _index
            raise _unknown_labels((token,), ctx, side)  # the token as written, λ or δ included
        n, d = _ints(p or "1", q)
        groups.append((-n if sign == "-" else n, d, ((label, 1),)))
        pos = m.end()
    if pos < len(s):  # no signed term starts at pos, so the sign alone words the error
        m = _SIGN_RE.match(s, pos)  # s is stripped, so whitespace after a term is always followed by a sign
        if m is None and pos:
            raise ClassSyntaxError(f"expected '+' or '-' before position {pos} in {text!r}")
        raise ClassSyntaxError(f"expected a term at position {pos if m is None else m.end()} in {text!r}")
    return groups


def render_class(x: DivisorClass) -> str:
    """Canonical text form: basis order, zero terms omitted, "0" for zero.

    Unit coefficients render as the bare label, so the output stays inside
    the input grammar and parse_class(render_class(x)) == x. A stored label
    outside the basis, which only a faulty trusted builder writes, raises
    EngineFaultError.
    """
    num = x.num
    mags = dict(zip(num, _ratios(map(abs, num.values()), x.den)))
    terms = []
    for label in _ordered(x.ctx.g, x.side):
        if (mag := mags.get(label)) is not None:
            term = label if mag == "1" else f"{mag}*{label}"
            terms.append(f"- {term}" if num[label] < 0 else f"+ {term}")
    if len(terms) < len(num):  # the walk left out a stored label, which no input can give
        raise EngineFaultError(str(_unknown_labels(num.keys() - set(_ordered(x.ctx.g, x.side)), x.ctx, x.side)))
    text = " ".join(terms)
    if not text:
        return "0"
    # the first term keeps a minus sign without the space, and drops a plus
    return text[2:] if text[0] == "+" else "-" + text[2:]
