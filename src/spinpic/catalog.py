"""Named divisor classes, effective-divisor specifications, and the choice of D.

This module owns every class that the rest of the package refers to by
name: the canonical classes on both sides of the covering, the theta-null
divisor class on the spin side, its pushforward (the vanishing-theta-null
locus on the curve side), and the Brill-Noether divisor for composite g+1.
_rule alone writes the auxiliary effective divisor D that the classification
uses (its provenance, a and b0), and choose_d(ctx) builds the genus's own D;
the slope of that D is the genus's slope bound. A DivisorSpec holds D as one
curve-side class, and divisor_class returns that class. A named provenance
(BrillNoether, K3, GiesekerPetri) is accepted only for that D; any other
divisor is UserSupplied(name).
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import compress
from math import lcm
from pathlib import Path
from typing import Mapping, Union

from .errors import (
    DivisorSpecError,
    GenusMismatchError,
    NotCompositeError,
    SlopeViolationError,
)
from .picard import (M_SIDE, S_SIDE, DivisorClass, GenusCtx, _LABELS, _trusted, _Value, rational,
                     require_classification_genus)


def rho(g: int, r: int, d: int) -> int:
    """Brill-Noether number g - (r+1)(g-d+r)."""
    return g - (r + 1) * (g - d + r)


def _smallest_prime_factor(n: int) -> int:
    p = 2
    while p * p <= n:
        if n % p == 0:
            return p
        p += 1
    return n


# --- divisor specifications -------------------------------------------------


class BrillNoether(_Value):
    __slots__ = __match_args__ = ("r", "d")

    def __init__(self, r: int, d: int) -> None:
        self._init(r=r, d=d)


class K3(_Value):
    __slots__ = ()


class GiesekerPetri(_Value):
    __slots__ = __match_args__ = ("k",)

    def __init__(self, k: int) -> None:
        self._init(k=k)


class UserSupplied(_Value):
    __slots__ = __match_args__ = ("name",)

    def __init__(self, name: str) -> None:
        self._init(name=name)


Provenance = Union[BrillNoether, K3, GiesekerPetri, UserSupplied]


class DivisorSpec(_Value):
    """An effective divisor D = a*lambda - b0*d0 - sum b_i*di on the curve side, held as its class.

    divisor is D's DivisorClass, and a, b0, b, slope and complete are
    Fractions read off it. b holds (b_1, ..., b_h) when all boundary
    coefficients are known; each is positive, so the class stores every di.
    Specs with b = None store only lambda and d0, carry only the slope data
    (a, b0) and mark every computation that would need the b_i as
    conditional. A spec whose provenance is not UserSupplied must equal its
    genus's own D, the one choose_d(ctx) builds; any other divisor is
    UserSupplied(name).

    Invariant: divisor.num stores lambda, d0, d1, ..., dh in that order
    (lambda and d0 alone without b), so kodaira.decompose_canonical reads
    the di numerators by position, from the third value on. Both builders
    write that order: _own_d in closed form, and __post_init__ through the
    validating constructor, which keeps the order of the coefficients it
    is given; copy and pickle rebuild through __init__.
    """

    __match_args__ = ("ctx", "provenance", "a", "b0", "b")

    def __init__(self, ctx: GenusCtx, provenance: Provenance, a: Fraction, b0: Fraction,
                 b: tuple[Fraction, ...] | None = None) -> None:
        self._init(ctx=ctx, provenance=provenance)
        self.__post_init__(a, b0, b)

    @property
    def a(self) -> Fraction:
        return Fraction(self.divisor.num["lambda"], self.divisor.den)

    @property
    def b0(self) -> Fraction:
        return Fraction(-self.divisor.num["d0"], self.divisor.den)

    @property
    def b(self) -> tuple[Fraction, ...] | None:
        if not self.complete:
            return None
        num, den, ctx = self.divisor.num, self.divisor.den, self.ctx
        return tuple([Fraction(-num[label], den) for label in _LABELS.d[1:ctx.h + 1]])

    @property
    def complete(self) -> bool:
        return len(self.divisor.num) > 2  # lambda and d0, and every di once the b_i are known

    @property
    def slope(self) -> Fraction:
        return Fraction(self.divisor.num["lambda"], -self.divisor.num["d0"])

    def __post_init__(self, a: Fraction, b0: Fraction, b: tuple[Fraction, ...] | None) -> None:
        """Check a, b0 and b as given, store D's class, and check a named provenance against the own D."""
        a, b0 = rational(a), rational(b0)
        g, h = self.ctx.g, self.ctx.h
        if a <= 0 or b0 <= 0:
            raise DivisorSpecError(f"divisor needs a > 0 and b0 > 0, got a={a}, b0={b0}")
        if b is not None:
            b = tuple([rational(v) for v in b])
            if len(b) != h:
                raise DivisorSpecError(f"expected {h} boundary coefficients at genus {g}, got {len(b)}")
            if any(v <= 0 for v in b):
                raise DivisorSpecError("all boundary coefficients b_i must be positive")
        # zip stops at the h+1 or 1 values given, so it reads no label past dh
        coeff = {"lambda": a, **{label: -v for label, v in zip(_LABELS.d, (b0, *(b or ())))}}
        self._init(divisor=DivisorClass(self.ctx, M_SIDE, coeff))
        if not isinstance(self.provenance, UserSupplied) and self != (own := _own_d(self.ctx)):
            # the provenance may be any object, so the message names only own's
            raise DivisorSpecError(
                f"a named provenance, here {self.provenance!r}, is accepted only for genus {g}'s own D: "
                f"{provenance_name(own.provenance)} with a={own.a}, b0={own.b0} and "
                f"{'its' if own.complete else 'no'} b_i; give any other divisor as UserSupplied(name)"
            )


def divisor_class(spec: DivisorSpec) -> DivisorClass:
    """The curve-side class of a complete divisor spec: the one it holds."""
    if not spec.complete:
        raise DivisorSpecError(
            f"divisor at genus {spec.ctx.g} has no boundary coefficients b_i; only its slope "
            f"a/b0 = {spec.slope} is known"
        )
    return spec.divisor


def _spec_value(key: str, value) -> Fraction:
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise DivisorSpecError(f'divisor file: {key} must be an integer or a "p/q" string, got {value!r}')
    return rational(value)


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object as a dict; a repeated key is rejected, not silently overwritten."""
    out: dict = {}
    for key, value in pairs:
        if key in out:
            raise DivisorSpecError(f"divisor file: key {key!r} is repeated")
        out[key] = value
    return out


def load_divisor_spec(data: Mapping | str | Path, ctx: GenusCtx) -> DivisorSpec:
    """Build a user-supplied spec from the JSON object format.

    The format is {"name": str, "genus": int, "a": "p/q", "b0": "p/q",
    "b": ["p/q", ...]} with "b" optional. name must be a JSON string of
    printable characters, genus a JSON integer, and each of a, b0 and the
    entries of the list b a JSON integer or a "p/q" string with q a
    positive integer; floats and bools are rejected, and so are any other
    key and a key that appears twice in one object. Paths and JSON strings
    are accepted as well as already-parsed mappings.
    """
    if isinstance(data, Path):
        try:
            data = data.read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise DivisorSpecError(f"cannot read divisor file: {exc}") from exc
    if isinstance(data, str):
        try:
            data = json.loads(data, object_pairs_hook=_unique_keys)
        except DivisorSpecError:  # a ValueError too, whose own message names the repeated key
            raise
        except RecursionError as exc:
            raise DivisorSpecError("divisor file: JSON is nested too deeply to read") from exc
        except ValueError as exc:
            raise DivisorSpecError(f"divisor file is not valid JSON: {exc}") from exc
    if not isinstance(data, Mapping):
        raise DivisorSpecError("divisor file must hold a JSON object")
    missing = {"name", "genus", "a", "b0"} - set(data)
    if missing:
        raise DivisorSpecError(f"divisor file is missing keys: {sorted(missing)}")
    unknown = set(data) - {"name", "genus", "a", "b0", "b"}
    if unknown:  # a misspelt b would otherwise certify as if no b_i were given
        raise DivisorSpecError(f"divisor file has unknown keys: {sorted(unknown, key=repr)}")
    # a line break or other control character in name would forge certificate lines
    if not isinstance(data["name"], str) or not data["name"].isprintable():
        raise DivisorSpecError(f"divisor file: name must be a printable string, got {data['name']!r}")
    if isinstance(data["genus"], bool) or not isinstance(data["genus"], int):
        raise DivisorSpecError(f"divisor file: genus must be an integer, got {data['genus']!r}")
    if data["genus"] != ctx.g:
        raise GenusMismatchError(f"divisor file is for genus {data['genus']}, expected {ctx.g}")
    b = data.get("b")
    if b is not None and not isinstance(b, list):
        raise DivisorSpecError(f"divisor file: b must be a JSON list, got {b!r}")
    return DivisorSpec(
        ctx=ctx,
        provenance=UserSupplied(data["name"]),
        a=_spec_value("a", data["a"]),
        b0=_spec_value("b0", data["b0"]),
        b=None if b is None else tuple(_spec_value("b", v) for v in b),
    )


# --- canonical and theta-null classes ---------------------------------------

# K (spin side) and theta are constant in i past i = 1, so each is written
# once as a slot form (den, lambda, a0, b0s, a1, b1, ai, bi): numerators over
# den, the pair (ai, bi) standing for every 2 <= i <= h. canonical_s and
# thetanull_class build from them by _slot_class, one pass whatever entries
# of the form are zero, and kodaira.decompose_canonical reads them. The four
# closed forms below, and each genus's own D (_own_d), hold nonzero integer
# numerators under basis labels over a denominator prime to them by
# construction, so they skip the constructor's validation (picard._trusted);
# tests/test_catalog.py checks each against the validating constructor.
_CANONICAL_S_FORM = (1, 13, -2, -3, -3, -3, -2, -2)
_THETANULL_FORM = (16, 4, -1, 0, 0, -8, 0, -8)


def _slot_class(ctx: GenusCtx, form: tuple[int, ...]) -> DivisorClass:
    """The spin-side class of a slot form at ctx's genus, in basis order with zeros dropped.

    The form's values, its (ai, bi) pair repeated for i = 2..h, are zipped
    onto the basis labels in order, and compress keeps the nonzero ones.
    """
    den, lam, a0, b0s, a1, b1, ai, bi = form
    values = [lam, a0, b0s, a1, b1, *[ai, bi] * (ctx.h - 1)]
    return _trusted(ctx, S_SIDE, dict(compress(zip(_LABELS.s, values), values)), den)


def canonical_m(ctx: GenusCtx) -> DivisorClass:
    """Canonical class on the curve side: 13*lambda - 2*d0 - 3*d1 - 2*(d2 + ...)."""
    require_classification_genus(ctx)
    d = _LABELS.d
    num = {"lambda": 13, d[0]: -2, d[1]: -3}
    num.update(dict.fromkeys(d[2:ctx.h + 1], -2))
    return _trusted(ctx, M_SIDE, num, 1)


def canonical_s(ctx: GenusCtx) -> DivisorClass:
    """Canonical class on the spin side: 13*lambda - 2*a0 - 3*b0s - 3*(a1+b1) - 2*sum(ai+bi).

    It is built from _CANONICAL_S_FORM and equals pullback(canonical_m) + b0s;
    verify's canonical:splitting check compares the two routes.
    """
    require_classification_genus(ctx)
    return _slot_class(ctx, _CANONICAL_S_FORM)


def thetanull_class(ctx: GenusCtx) -> DivisorClass:
    """Class of the theta-null divisor, built from _THETANULL_FORM: 1/4*lambda - 1/16*a0 - 1/2*sum(bi), over 16."""
    require_classification_genus(ctx)
    return _slot_class(ctx, _THETANULL_FORM)


def m1_theta_class(ctx: GenusCtx) -> DivisorClass:
    """Curve-side class of the vanishing-theta-null locus.

    2^(g-3) * ((2^g+1)*lambda - 2^(g-3)*d0 - sum (2^(g-i)-1)(2^i-1)*di).
    """
    require_classification_genus(ctx)
    g = ctx.g
    scale = 1 << (g - 3)  # shifts, as transfer._even: cheaper than powers of 2 at large g
    d = _LABELS.d
    num = {"lambda": scale * ((1 << g) + 1), d[0]: -scale * scale}
    for i in range(1, ctx.h + 1):
        num[d[i]] = -scale * ((1 << (g - i)) - 1) * ((1 << i) - 1)
    return _trusted(ctx, M_SIDE, num, 1)


def bn_class(ctx: GenusCtx) -> tuple[DivisorClass, DivisorSpec]:
    """Normalized Brill-Noether divisor class and its spec, for composite g+1."""
    require_classification_genus(ctx)
    spec = _own_d(ctx)
    if not isinstance(spec.provenance, BrillNoether):  # only if g+1 is prime, as at K3's g = 10
        raise NotCompositeError(f"g+1 = {ctx.g + 1} is prime; no Brill-Noether divisor at genus {ctx.g}")
    return divisor_class(spec), spec


# --- the choice of D ---------------------------------------------------------


def _rule(g: int) -> tuple[Provenance, Fraction, Fraction]:
    """(provenance, a, b0) of genus g's D: K3 at g = 10, Brill-Noether if g+1 is composite, else Gieseker-Petri."""
    if g == 10:
        return K3(), Fraction(7), Fraction(1)
    f = _smallest_prime_factor(g + 1)
    if f <= g:
        r = f - 1  # the normalized class does not depend on this choice, which only labels the provenance
        d = g + r - (g + 1) // f  # (r+1)(g-d+r) = f * (g+1)/f = g+1, so rho = -1
        return BrillNoether(r, d), Fraction(g + 3), Fraction(g + 1, 6)
    # g+1 an odd prime forces g even here (g+1 = 2 would mean g = 1); slope (6k^2+k-6)/(k(k-1))
    k = g // 2 + 1
    return GiesekerPetri(k), Fraction(6 * k * k + k - 6), Fraction(k * (k - 1))


def _own_d(ctx: GenusCtx) -> DivisorSpec:
    """Genus ctx.g's own D, unvalidated: DivisorSpec validates a named provenance by comparing with it.

    D = a*lambda - b0*d0, less sum i(g-i)*di for the normalized
    Brill-Noether divisor, is written in closed form, as canonical_m is,
    over den = lcm of a's and b0's reduced denominators, where each di
    numerator is -den*i(g-i). That is lowest terms with no gcd: each prime
    of den divides a's or b0's denominator to its full power in den, so it
    does not divide that one's numerator over den. Every numerator is
    nonzero, in basis order, the storage order DivisorSpec promises;
    tests/test_catalog.py checks the class against the validating
    constructor.
    """
    g = ctx.g
    provenance, a, b0 = _rule(g)
    den = lcm(a.denominator, b0.denominator)
    num = {"lambda": a.numerator * (den // a.denominator), "d0": -b0.numerator * (den // b0.denominator)}
    if isinstance(provenance, BrillNoether):  # the normalized divisor's b_i = i(g-i)
        num.update(zip(_LABELS.d[1:ctx.h + 1], [-den * i * (g - i) for i in range(1, ctx.h + 1)]))
    spec = object.__new__(DivisorSpec)
    spec._init(ctx=ctx, provenance=provenance, divisor=_trusted(ctx, M_SIDE, num, den))
    return spec


def choose_d(ctx: GenusCtx, user: DivisorSpec | None = None) -> DivisorSpec:
    """Build the genus's own D, or validate a user-supplied one against it.

    D's slope a/b0 is the genus's bound: a steeper user spec cannot support
    the classification argument and raises SlopeViolationError. Checking a
    user spec reads the bound from _rule and builds no D.
    """
    require_classification_genus(ctx)
    if user is None:
        return _own_d(ctx)
    if user.ctx != ctx:
        raise GenusMismatchError(f"divisor is for genus {user.ctx.g}, expected {ctx.g}")
    _, a, b0 = _rule(ctx.g)
    if user.slope > a / b0:
        raise SlopeViolationError(f"slope a/b0 = {user.slope} exceeds the genus-{ctx.g} bound {a / b0}")
    return user


def provenance_name(p: Provenance) -> str:
    if isinstance(p, BrillNoether):
        return f"brill-noether(r={p.r}, d={p.d})"
    if isinstance(p, K3):
        return "k3"
    if isinstance(p, GiesekerPetri):
        return f"gieseker-petri(k={p.k})"
    return f"user-supplied({p.name})"
