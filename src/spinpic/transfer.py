"""Transfer maps of the finite covering from even spin curves to curves.

The forgetful covering of degree 2^(2g) splits into an even component of
relative degree 2^(g-1)(2^g+1) and an odd one of degree 2^(g-1)(2^g-1);
everything here lives on the even component. Pullback splits boundary
classes (d0 -> a0 + 2*b0s, di -> ai + bi) and fixes lambda; pushforward
multiplies each spin-side basis class by the covering degree of the
boundary stratum it sits on.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import SideMismatchError, UnknownLabelError
from .picard import (
    M_SIDE,
    S_SIDE,
    DivisorClass,
    GenusCtx,
    _sum_terms,
    _trusted,
    basis_class,
    s_labels,
)


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
        return 2 ** (2 * g - 2)
    if label == "b0s":
        return 2 ** (g - 2) * (2 ** (g - 1) + 1)
    kind, i = label[0], int(label[1:])
    if kind not in ("a", "b") or not 1 <= i <= ctx.h:
        raise UnknownLabelError(f"no pushforward degree for label {label!r} at genus {g}")
    if kind == "a":
        return 2 ** (g - 2) * (2**i + 1) * (2 ** (g - i) + 1)
    return 2 ** (g - 2) * (2**i - 1) * (2 ** (g - i) - 1)


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
    out: dict[str, Fraction] = {}
    for label, v in x.coeff.items():
        if label == "lambda":
            out["lambda"] = v
        elif label == "d0":
            out["a0"], out["b0s"] = v, 2 * v
        else:
            out[f"a{label[1:]}"] = out[f"b{label[1:]}"] = v
    # images of basis labels are basis labels, and v and 2*v are nonzero reduced Fractions
    return _trusted(x.ctx, S_SIDE, out)


def pushforward(x: DivisorClass) -> DivisorClass:
    """Pushforward to the curve side, summed in integers per curve-side label.

    a0 and b0s both land on d0, where their terms may cancel.
    """
    if x.side != S_SIDE:
        raise SideMismatchError("pushforward takes a spin-side class")
    ctx = x.ctx
    return _sum_terms(ctx, M_SIDE, (
        (_m_image(label), pushforward_degree(ctx, label) * v.numerator, v.denominator)
        for label, v in x.coeff.items()
    ))


def pushforward_matrix(ctx: GenusCtx) -> dict[str, DivisorClass]:
    """Columns of pushforward: each spin-side basis label mapped to its image class."""
    return {s: pushforward(basis_class(ctx, S_SIDE, s)) for s in s_labels(ctx)}


@dataclass(frozen=True)
class SpinCounts:
    """Degree bookkeeping for the covering at one genus.

    The three identities returned by identities() tie the stratum degrees
    to the component degrees; they are this package's first defense against
    transcription errors in the multiplicity table.
    """

    ctx: GenusCtx
    total_degree: int
    n_even: int
    n_odd: int
    deg_a0: int
    deg_b0: int
    deg_a: tuple[int, ...]
    deg_b: tuple[int, ...]

    def identities(self) -> list[tuple[str, int, int]]:
        out = [
            ("even+odd=total", self.n_even + self.n_odd, self.total_degree),
            ("a0+2*b0=even", self.deg_a0 + 2 * self.deg_b0, self.n_even),
        ]
        for i in range(1, self.ctx.h + 1):
            out.append((f"a{i}+b{i}=even", self.deg_a[i - 1] + self.deg_b[i - 1], self.n_even))
        return out


def spin_counts(ctx: GenusCtx) -> SpinCounts:
    g = ctx.g
    return SpinCounts(
        ctx=ctx,
        total_degree=2 ** (2 * g),
        n_even=even_component_degree(g),
        n_odd=odd_component_degree(g),
        deg_a0=pushforward_degree(ctx, "a0"),
        deg_b0=pushforward_degree(ctx, "b0s"),
        deg_a=tuple(pushforward_degree(ctx, f"a{i}") for i in range(1, ctx.h + 1)),
        deg_b=tuple(pushforward_degree(ctx, f"b{i}") for i in range(1, ctx.h + 1)),
    )
