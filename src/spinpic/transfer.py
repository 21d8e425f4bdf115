"""Transfer maps of the finite covering from even spin curves to curves.

The forgetful covering of degree 2^(2g) splits into an even component of
relative degree 2^(g-1)(2^g+1) and an odd one of degree 2^(g-1)(2^g-1);
everything here lives on the even component. Pullback splits boundary
classes (d0 -> a0 + 2*b0s, di -> ai + bi) and fixes lambda; pushforward
multiplies each spin-side basis class by the covering degree of the
boundary stratum it sits on, a product of theta-characteristic counts by
Cornalba's description of the spin boundary: A_i and B_i (i >= 1) carry
even or odd ones on both components, A_0 any and B_0 even ones on the
genus-(g-1) normalization. _degrees(g), cached by the int genus, is that
one table, and degree_identities ties it to the component degrees.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import SideMismatchError
from .picard import M_SIDE, S_SIDE, DivisorClass, GenusCtx, _spelled, _sum_terms, _trusted, _unknown_labels, _Value


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


class _Degrees(_Value):
    """The stratum degrees of one genus by index: lam for lambda, a[i] and b[i] for i = 0..h (see _degrees)."""

    __slots__ = __match_args__ = ("lam", "a", "b")

    def __init__(self, lam: int, a: tuple[int, ...], b: tuple[int, ...]) -> None:
        self._init(lam=lam, a=a, b=b)


@lru_cache(maxsize=8)
def _degrees(g: int) -> _Degrees:
    """The degree table of genus g: lam = E(g); a[0] = 4^(g-1), a[i] = E(i)E(g-i); b[0] = E(g-1), b[i] = O(i)O(g-i).

    Unlike the labels, the degrees depend on g, so each genus has its own
    table; the cache is small, since a sweep visits each genus once. E and
    O are _even and _odd, not the public degrees, so a patch of those never
    stays in the cache.
    """
    ks = range(1, g // 2 + 1)
    return _Degrees(_even(g), (4 ** (g - 1), *[_even(k) * _even(g - k) for k in ks]),
                    (_even(g - 1), *[_odd(k) * _odd(g - k) for k in ks]))


def pushforward_degree(ctx: GenusCtx, label: str) -> int:
    """Covering degree multiplying the image of one spin-side basis class, read off _degrees."""
    deg = _degrees(ctx.g)
    if label in ("lambda", "a0", "b0s"):  # R's labels, answered without the label sequences
        return deg.lam if label == "lambda" else deg.a[0] if label == "a0" else deg.b[0]
    table, h = _spelled(ctx.g), ctx.h
    if (i := table.s.get(label, h + 1)) > h:  # as in picard._index, without its two calls per label
        raise _unknown_labels((label,), ctx, S_SIDE)
    return (deg.a if label == table.a[i] else deg.b)[i]


def pullback(x: DivisorClass) -> DivisorClass:
    """Pullback to the spin side, one nonzero coefficient at a time."""
    if x.side != M_SIDE:
        raise SideMismatchError("pullback takes a curve-side class")
    table = _spelled(x.ctx.g)
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
    table, deg = _spelled(ctx.g), _degrees(ctx.g)
    s, d, a = table.s, table.d, table.a
    # lambda keeps its label; i is read first, and a[i] and b[i] land on d[i]
    pairs = [(label, deg.lam * n) if label == "lambda"
             else (d[(i := s[label])], (deg.a if label == a[i] else deg.b)[i] * n) for label, n in x.num.items()]
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
    table = _spelled(ctx.g)
    for i in range(1, ctx.h + 1):
        lhs = pushforward_degree(ctx, table.a[i]) + pushforward_degree(ctx, table.b[i])
        out.append((f"a{i}+b{i}=even", lhs, n_even))
    return out
