"""Transfer maps of the finite covering from even spin curves to curves.

The forgetful covering of degree 2^(2g) splits into an even component of
relative degree E(g) = 2^(g-1)(2^g+1) and an odd one of degree
O(g) = 2^(g-1)(2^g-1); everything here lives on the even component.
Pullback splits boundary classes (d0 -> a0 + 2*b0s, di -> ai + bi) and
fixes lambda, a rule written once as _PULLBACK, which pullback applies
label by label and kodaira's decomposition slot by slot. Pushforward
multiplies each spin-side basis class by the covering degree of the
boundary stratum it sits on, a product of theta-characteristic counts by
Cornalba's description of the spin boundary: A_i and B_i (i >= 1) carry
even or odd ones on both components, A_0 any and B_0 even ones on the
genus-(g-1) normalization. _degree(g, kind, i) writes each of these
degrees once, in shifts and sums, and every reader (pushforward, the
covering curve R, the theta-null chain, the counts command) calls it by
kind and index where it reads it; pushforward alone maps a spin label to
its (kind, i). degree_identities ties the degrees to the component degrees.
"""

from __future__ import annotations

from .errors import SideMismatchError
from .picard import M_SIDE, S_SIDE, DivisorClass, GenusCtx, _LABELS, _sum_terms, _trusted


def _even(n: int) -> int:
    return (1 << (n - 1)) * ((1 << n) + 1)  # 2^(n-1)(2^n+1); a shift is cheaper than a power of 2 at large n


def _odd(n: int) -> int:
    return (1 << (n - 1)) * ((1 << n) - 1)  # 2^(n-1)(2^n-1)


def total_degree(g: int) -> int:
    return 2 ** (2 * g)


def even_component_degree(g: int) -> int:
    return _even(g)


def odd_component_degree(g: int) -> int:
    return _odd(g)


def _degree(g: int, kind: str, i: int) -> int:
    """The covering degree of lambda (kind "lambda", i = 0) or of the stratum A_i or B_i (kind "a" or "b") at genus g.

    lambda: E(g); A_0: 2^(2g-2), as A_0 carries any characteristic on the
    genus-(g-1) normalization; B_0: E(g-1). For i >= 1, A_i = E(i)E(g-i)
    and B_i = O(i)O(g-i), which expand to 2^(g-2)(2^g + 1 +- (2^i + 2^(g-i))):
    only the term 2^i + 2^(g-i) depends on i, and it cancels in A_i + B_i.
    E is _even, not the public component degree, so degree_identities
    checks these degrees against formulas written apart from them.
    """
    if i:
        mixed = (1 << i) + (1 << (g - i))
        return ((1 << g) + 1 + (mixed if kind == "a" else -mixed)) << (g - 2)
    return _even(g) if kind == "lambda" else 1 << (2 * g - 2) if kind == "a" else _even(g - 1)


# The pullback rule as multiplicities: lambda's on lambda; d0's on a0 and on
# b0s; di's on ai and on bi, the same for every i >= 1.
_PULLBACK = (1, 1, 2, 1, 1)


def pullback(x: DivisorClass) -> DivisorClass:
    """Pullback to the spin side, one nonzero coefficient at a time, by the rule _PULLBACK."""
    if x.side != M_SIDE:
        raise SideMismatchError("pullback takes a curve-side class")
    a, b, index = _LABELS.a, _LABELS.b, _LABELS.m
    lam, a0, b0s, ai, bi = _PULLBACK
    out: dict[str, int] = {}
    for label, n in x.num.items():
        if label == "lambda":
            out["lambda"] = lam * n
        elif label == "d0":
            out["a0"], out["b0s"] = a0 * n, b0s * n
        else:
            i = index[label]
            out[a[i]], out[b[i]] = ai * n, bi * n
    # images of basis labels are basis labels, and each numerator of x is kept once
    # (on lambda, a0 or ai, of multiplicity 1), so gcd(den, *out) = 1
    return _trusted(x.ctx, S_SIDE, out, x.den)


def pushforward(x: DivisorClass) -> DivisorClass:
    """Pushforward to the curve side, one _sum_terms group of integers over x.den.

    a0 and b0s both land on d0, where their terms may cancel.
    """
    if x.side != S_SIDE:
        raise SideMismatchError("pushforward takes a spin-side class")
    ctx = x.ctx
    g, s, d, a = ctx.g, _LABELS.s, _LABELS.d, _LABELS.a
    # lambda keeps its label; i is read first, and a[i] and b[i] land on d[i]
    pairs = [(label, _degree(g, "lambda", 0) * n) if label == "lambda"
             else (d[(i := s[label])], _degree(g, "a" if label == a[i] else "b", i) * n) for label, n in x.num.items()]
    return _sum_terms(ctx, M_SIDE, ((1, x.den, pairs),))


def degree_identities(ctx: GenusCtx) -> list[tuple[str, int, int]]:
    """The identities (name, lhs, rhs) tying the stratum degrees to the component degrees.

    They are this package's first defense against transcription errors in
    the stratum degrees, which they read off _degree by index.
    """
    g, n_even = ctx.g, even_component_degree(ctx.g)
    out = [
        ("even+odd=total", n_even + odd_component_degree(g), total_degree(g)),
        ("a0+2*b0=even", _degree(g, "a", 0) + 2 * _degree(g, "b", 0), n_even),
    ]
    for i in range(1, ctx.h + 1):
        out.append((f"a{i}+b{i}=even", _degree(g, "a", i) + _degree(g, "b", i), n_even))
    return out
