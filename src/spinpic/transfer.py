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
from .picard import M_SIDE, S_SIDE, DivisorClass, GenusCtx, _basis, _sum_terms, _trusted, _unknown_labels


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
    # checked only here, so that R's three labels above build no genus basis
    if label not in _basis(g, S_SIDE):
        raise _unknown_labels((label,), ctx, S_SIDE)
    i = int(label[1:])
    if label[0] == "a":
        return even_component_degree(i) * even_component_degree(g - i)
    return odd_component_degree(i) * odd_component_degree(g - i)


def _m_image(label: str) -> str:
    if label == "lambda":
        return "lambda"
    if label in ("a0", "b0s"):
        return "d0"
    return f"d{label[1:]}"


def pullback(x: DivisorClass) -> DivisorClass:
    """Pullback to the spin side, one nonzero coefficient at a time."""
    if x.side != M_SIDE:
        raise SideMismatchError("pullback takes a curve-side class")
    out: dict[str, int] = {}
    for label, n in x.num.items():
        if label == "lambda":
            out["lambda"] = n
        elif label == "d0":
            out["a0"], out["b0s"] = n, 2 * n
        else:
            out[f"a{label[1:]}"] = out[f"b{label[1:]}"] = n
    # images of basis labels are basis labels, and every numerator of x is kept, so gcd(den, *out) = 1
    return _trusted(x.ctx, S_SIDE, out, x.den)


def pushforward(x: DivisorClass) -> DivisorClass:
    """Pushforward to the curve side, one _sum_terms group of integers over x.den.

    a0 and b0s both land on d0, where their terms may cancel.
    """
    if x.side != S_SIDE:
        raise SideMismatchError("pushforward takes a spin-side class")
    ctx = x.ctx
    pairs = ((_m_image(label), pushforward_degree(ctx, label) * n) for label, n in x.num.items())
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
    for i in range(1, ctx.h + 1):
        lhs = pushforward_degree(ctx, f"a{i}") + pushforward_degree(ctx, f"b{i}")
        out.append((f"a{i}+b{i}=even", lhs, n_even))
    return out
