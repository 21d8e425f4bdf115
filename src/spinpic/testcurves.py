"""Test curves and the pencil re-derivation of the theta-null class.

A test curve is a DivisorClass on its own side whose coefficients are its
intersection numbers with the basis classes, so a curve stores only its
nonzero entries and pairing costs one term per entry. The standard table
at genus g is:

    B     curve side   B.lambda = g+1, B.d0 = 6g+18, B.di = 0
    R     spin side    the fibre-product lift of B over the covering: R.x = B.pushforward(x)
    F0    spin side    elliptic-tail pencil through an odd theta on the tail complement
    G0    spin side    elliptic-tail pencil sweeping the three even spin tails
    H0    spin side    pencil inside the non-split genus-0 boundary stratum
    Fi,Gi spin side    one-entry curves with value 2-2i at ai / bi

Fi and Gi are exposed for 1 <= i <= h only; at i = 1 both vectors vanish
(2-2i = 0). solve_thetanull derives theta-null as the paper does, from the
rows of pi_*theta = m1 (Teixidor's class over the covering degrees) and the
pencils, which meet theta in 0: the lambda row gives lambda; H0 gives
a1 = (g-1)*b0s; the d0 row and G0 give a0 and b0s by one 2x2 step; F0 gives
b1; for i >= 2, Fi gives ai = 0 (2-2i != 0) and then the di row gives bi.
The d1 row and Gi.theta = i-1 are left over, and verify's theta:pushforward
and pairing:Gi*theta checks hold them.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Callable, Iterator

from . import catalog, transfer
from .errors import GenusMismatchError, SideMismatchError, SingularMatrixError
from .picard import (M_SIDE, S_SIDE, DivisorClass, GenusCtx, _LABELS, _ratios, _sum_terms, _trusted,
                     require_classification_genus)


def intersect(curve: DivisorClass, x: DivisorClass) -> int | Fraction:
    """Exact pairing: the sum over the curve's nonzero entries of entry times coefficient.

    The only pairing in the package; verify's compat rows call it too. The
    numerators are summed as integers over the labels both store. When the
    product of the denominators divides that sum, the pairing is the int
    quotient, and no Fraction is built; otherwise it is one reduced Fraction
    over that product.
    """
    if curve.side != x.side:
        raise SideMismatchError(
            f"a side-{curve.side} curve pairs with side-{curve.side} classes, got side-{x.side}"
        )
    if curve.ctx.g != x.ctx.g:
        raise GenusMismatchError(f"curve is at genus {curve.ctx.g}, class at genus {x.ctx.g}")
    xn, total = x.num, 0
    for label, n in curve.num.items():  # a curve stores a few entries, too few to pay for a comprehension
        if label in xn:
            total += n * xn[label]
    if curve.den == x.den == 1:
        return total
    q, r = divmod(total, d := curve.den * x.den)
    return Fraction(total, d) if r else q


def _b_entries(g: int) -> dict[str, int]:
    """B's entries at genus g, which curve_map stores as B and covering_curve lifts to R."""
    return {"lambda": g + 1, "d0": 6 * g + 18}


def covering_curve(ctx: GenusCtx) -> DivisorClass:
    """curve_map's R alone: B's entries at each label's image (d0 under a0 and b0s) times its covering degree."""
    require_classification_genus(ctx)
    g = ctx.g
    b, degree = _b_entries(g), transfer._degree
    lift = ((s, b[m] * degree(g, kind, 0))
            for s, m, kind in (("lambda", "lambda", "lambda"), ("a0", "d0", "a"), ("b0s", "d0", "b")))
    # the degrees are read at call time, and one of 0 leaves no entry, as the constructor would drop it
    return _trusted(ctx, S_SIDE, {s: v for s, v in lift if v}, 1)


def curve_map(ctx: GenusCtx) -> dict[str, DivisorClass]:
    """The standard test curves at genus ctx.g, by name, built on every call.

    R is covering_curve(ctx), looked up at call time, and the dict is fresh,
    so a caller may rebind or delete its entries. Every entry is a nonzero
    integer under a basis label by construction, so the curves skip the
    constructor's validation (picard._trusted), as catalog's closed forms
    do; tests/test_catalog.py checks each against the validating constructor.
    """
    require_classification_genus(ctx)
    g = ctx.g
    curves = {
        "B": _trusted(ctx, M_SIDE, _b_entries(g), 1),
        "R": covering_curve(ctx),
        "F0": _trusted(ctx, S_SIDE, {"lambda": 1, "a0": 12, "b1": -1}, 1),
        "G0": _trusted(ctx, S_SIDE, {"lambda": 3, "a0": 12, "b0s": 12, "a1": -3}, 1),
        "H0": _trusted(ctx, S_SIDE, {"b0s": 1 - g, "a1": 1}, 1),
        # 2 - 2i vanishes at i = 1, so F1 and G1 store nothing
        "F1": _trusted(ctx, S_SIDE, {}, 1),
        "G1": _trusted(ctx, S_SIDE, {}, 1),
    }
    a, b = _LABELS.a, _LABELS.b
    for i in range(2, ctx.h + 1):
        curves[f"F{i}"] = _trusted(ctx, S_SIDE, {a[i]: 2 - 2 * i}, 1)
        curves[f"G{i}"] = _trusted(ctx, S_SIDE, {b[i]: 2 - 2 * i}, 1)
    return curves


def _quotient(n: int, d: int) -> tuple[int, int]:
    """n/d in lowest terms with a positive denominator, as (n, d) in ints; d = 0 raises as Fraction would."""
    if not d:
        raise ZeroDivisionError(f"{n}/0")
    k = gcd(n, d) if d > 0 else -gcd(n, d)
    return n // k, d // k


def _steps(ctx: GenusCtx, curves: dict[str, DivisorClass], m1: DivisorClass) -> Iterator[tuple[str, str, int, int]]:
    """Yield (relation, label, n, d) per coefficient n/d of theta-null, in lowest terms, in the chain's order.

    A pencil relation is homogeneous, so only the pencil's numerators are
    read. The chain works in ints, one gcd per coefficient, and its 2x2 step
    raises SingularMatrixError on a zero determinant.
    """
    g, row, den, degree = ctx.g, m1.num, m1.den, transfer._degree
    f0, g0, h0 = (curves[name].num for name in ("F0", "G0", "H0"))
    a, b, d = _LABELS.a, _LABELS.b, _LABELS.d
    a1, b1 = a[1], b[1]
    # the lambda row reads degree(lambda)*lambda = m1 at lambda, so lambda = ln/ld
    ln, ld = _quotient(row.get("lambda", 0), den * degree(g, "lambda", 0))
    # H0.theta = 0 gives a1 = (rn/rd)*b0s. With it, den times the d0 row and
    # rd*ld times G0.theta = 0 read u*a0 + v*b0s = s and p*a0 + q*b0s = t in ints
    rn, rd = -h0.get("b0s", 0), h0.get(a1, 0)
    u, v, s = den * degree(g, "a", 0), den * degree(g, "b", 0), row.get(d[0], 0)
    p, q = g0.get("a0", 0) * rd * ld, (g0.get("b0s", 0) * rd + g0.get(a1, 0) * rn) * ld
    t = -g0.get("lambda", 0) * ln * rd
    det = u * q - v * p
    if det == 0:
        raise SingularMatrixError("the d0 row and G0.theta = 0 are dependent in (a0, b0s) (determinant 0)")
    a0, b0s = s * q - v * t, u * t - p * s  # over det
    yield "pi_*theta = m1 at lambda", "lambda", ln, ld
    yield ("pi_*theta = m1 at d0, G0.theta = 0", "a0", *_quotient(a0, det))
    yield ("pi_*theta = m1 at d0, G0.theta = 0", "b0s", *_quotient(b0s, det))
    yield ("H0.theta = 0", a1, *_quotient(rn * b0s, rd * det))
    # F0.theta = 0 gives b1 = -(F0 at lambda * lambda + F0 at a0 * a0) / F0 at b1
    yield ("F0.theta = 0", b1,
           *_quotient(f0.get("lambda", 0) * ln * det + f0.get("a0", 0) * a0 * ld, -f0.get(b1, 0) * ld * det))
    for i in range(2, ctx.h + 1):
        # Fi stores (2-2i)*ai alone, so Fi.theta = 0 gives ai = 0; with it, the di row reads degree(bi)*bi = m1 at di
        name = f"F{i}"
        yield (f"{name}.theta = 0", a[i], *_quotient(0, curves[name].num.get(a[i], 0)))
        yield (f"pi_*theta = m1 at {d[i]}", b[i], *_quotient(row.get(d[i], 0), den * degree(g, "b", i)))


def solve_thetanull(ctx: GenusCtx, show: Callable[[str], object] | None = None) -> DivisorClass:
    """Re-derive the theta-null class from the test curves and m1 by the chain of _steps, summed by _sum_terms.

    show, if given, takes one line per step, as `spinpic solve-thetanull`
    prints it. No zero is stored. The result is not compared with the closed
    form here: verify's solve:thetanull check and the CLI's MATCH/MISMATCH
    line do that.
    """
    steps = list(_steps(ctx, curve_map(ctx), catalog.m1_theta_class(ctx)))
    if show is not None:
        for relation, label, n, d in steps:
            show(f"  {relation}: {label} = {_ratios((n,), d)[0]}")
    return _sum_terms(ctx, S_SIDE, [(n, d, ((label, 1),)) for _, label, n, d in steps])
