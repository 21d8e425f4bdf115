"""Transfer maps of the finite covering from even spin curves to curves.

The forgetful covering of degree 2^(2g) splits into an even component of
relative degree 2^(g-1)(2^g+1) and an odd one of degree 2^(g-1)(2^g-1);
everything here lives on the even component. Pullback splits boundary
classes (d0 -> a0 + 2*b0s, di -> ai + bi) and fixes lambda; pushforward
multiplies each spin-side basis class by the covering degree of the
boundary stratum it sits on, a product of theta-characteristic counts by
Cornalba's description of the spin boundary: A_i and B_i (i >= 1) carry
even or odd ones on both components, A_0 any and B_0 even ones on the
genus-(g-1) normalization. pushforward_degree is that one table, and
degree_identities ties it to the component degrees.
"""

from __future__ import annotations

from .errors import SideMismatchError
from .picard import M_SIDE, S_SIDE, DivisorClass, GenusCtx, _Labels, _labels, _sum_terms, _trusted, _unknown_labels


def total_degree(g: int) -> int:
    return 2 ** (2 * g)


def even_component_degree(g: int) -> int:
    return 2 ** (g - 1) * (2**g + 1)


def odd_component_degree(g: int) -> int:
    return 2 ** (g - 1) * (2**g - 1)


def pushforward_degree(ctx: GenusCtx, label: str) -> int:
    """Covering degree multiplying the image of one spin-side basis class."""
    g = ctx.g
    if label == "lambda":
        return even_component_degree(g)
    if label == "a0":
        return total_degree(g - 1)
    if label == "b0s":
        return even_component_degree(g - 1)
    # the index and the family from the label table, which R's three labels above do not need
    table = _labels(g)
    i = table.s.get(label)
    if i is None:
        raise _unknown_labels((label,), ctx, S_SIDE)
    if label == table.a[i]:
        return even_component_degree(i) * even_component_degree(g - i)
    return odd_component_degree(i) * odd_component_degree(g - i)


def _m_image(table: _Labels, label: str) -> str:
    """The curve-side label under a spin-side basis label: lambda, or d[i] under a[i] and b[i]."""
    if label == "lambda":
        return label
    if label in ("a0", "b0s"):  # answered first, as in pushforward_degree, so R's lift reads no index
        return "d0"
    return table.d[table.s[label]]


def pullback(x: DivisorClass) -> DivisorClass:
    """Pullback to the spin side, one nonzero coefficient at a time."""
    if x.side != M_SIDE:
        raise SideMismatchError("pullback takes a curve-side class")
    table = _labels(x.ctx.g)
    a, b, index = table.a, table.b, table.m
    out: dict[str, int] = {}
    for label, n in x.num.items():
        if label == "lambda":
            out["lambda"] = n
        elif label == "d0":
            out["a0"], out["b0s"] = n, 2 * n
        else:
            i = index[label]
            out[a[i]] = out[b[i]] = n
    # images of basis labels are basis labels, and every numerator of x is kept, so gcd(den, *out) = 1
    return _trusted(x.ctx, S_SIDE, out, x.den)


def pushforward(x: DivisorClass) -> DivisorClass:
    """Pushforward to the curve side, one _sum_terms group of integers over x.den.

    a0 and b0s both land on d0, where their terms may cancel.
    """
    if x.side != S_SIDE:
        raise SideMismatchError("pushforward takes a spin-side class")
    ctx = x.ctx
    table = _labels(ctx.g)
    pairs = ((_m_image(table, label), pushforward_degree(ctx, label) * n) for label, n in x.num.items())
    return _sum_terms(ctx, M_SIDE, ((1, x.den, pairs),))


def degree_identities(ctx: GenusCtx) -> list[tuple[str, int, int]]:
    """The identities (name, lhs, rhs) tying the stratum degrees to the component degrees.

    They are this package's first defense against transcription errors in
    the multiplicity table.
    """
    n_even = even_component_degree(ctx.g)
    out = [
        ("even+odd=total", n_even + odd_component_degree(ctx.g), total_degree(ctx.g)),
        ("a0+2*b0=even", pushforward_degree(ctx, "a0") + 2 * pushforward_degree(ctx, "b0s"), n_even),
    ]
    table = _labels(ctx.g)
    for i in range(1, ctx.h + 1):
        lhs = pushforward_degree(ctx, table.a[i]) + pushforward_degree(ctx, table.b[i])
        out.append((f"a{i}+b{i}=even", lhs, n_even))
    return out
