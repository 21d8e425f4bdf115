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
(2-2i = 0), which is why the solve below needs the three pencils F0, G0,
H0 rather than more of the same.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import transfer
from .errors import GenusMismatchError, SideMismatchError, SingularMatrixError
from .picard import (_ZERO, M_SIDE, S_SIDE, DivisorClass, GenusCtx, _labels, _sum_terms, _trusted,
                     require_classification_genus)


def intersect(curve: DivisorClass, x: DivisorClass) -> Fraction:
    """Exact pairing: the sum over the curve's nonzero entries of entry times coefficient.

    The only pairing in the package; verify's compat rows call it too. The
    numerators are summed as integers over the labels both store, and a
    nonzero sum becomes one Fraction over the product of the denominators,
    so a pairing that sums to 0 builds no Fraction at all.
    """
    if curve.side != x.side:
        raise SideMismatchError(
            f"a side-{curve.side} curve pairs with side-{curve.side} classes, got side-{x.side}"
        )
    if curve.ctx.g != x.ctx.g:
        raise GenusMismatchError(f"curve is at genus {curve.ctx.g}, class at genus {x.ctx.g}")
    xn = x.num
    total = sum([n * xn[label] for label, n in curve.num.items() if label in xn])
    return Fraction(total, curve.den * x.den) if total else _ZERO


def curve_map(ctx: GenusCtx) -> dict[str, DivisorClass]:
    """The standard test curves at genus ctx.g, by name, built on every call.

    R's entries are B's at each label's image (d0 under a0 and b0s) times the
    covering degrees of transfer.pushforward_degree at call time, and the
    dict is fresh, so a caller may rebind or delete its entries. Every entry
    is a nonzero integer under a basis label by construction, so the curves
    skip the constructor's validation (picard._trusted), as catalog's closed
    forms do; tests/test_catalog.py checks each against the validating constructor.
    """
    require_classification_genus(ctx)
    g = ctx.g
    table = _labels(g)
    b = {"lambda": g + 1, "d0": 6 * g + 18}
    lift = ((s, b[m] * transfer.pushforward_degree(ctx, s))
            for s, m in (("lambda", "lambda"), ("a0", "d0"), ("b0s", "d0")))
    curves = {
        "B": _trusted(ctx, M_SIDE, b, 1),
        # a degree of 0 leaves no entry, as the constructor would drop it
        "R": _trusted(ctx, S_SIDE, {s: v for s, v in lift if v}, 1),
        "F0": _trusted(ctx, S_SIDE, {"lambda": 1, "a0": 12, "b1": -1}, 1),
        "G0": _trusted(ctx, S_SIDE, {"lambda": 3, "a0": 12, "b0s": 12, "a1": -3}, 1),
        "H0": _trusted(ctx, S_SIDE, {"b0s": 1 - g, "a1": 1}, 1),
        # 2 - 2i vanishes at i = 1, so F1 and G1 store nothing
        "F1": _trusted(ctx, S_SIDE, {}, 1),
        "G1": _trusted(ctx, S_SIDE, {}, 1),
    }
    for i in range(2, ctx.h + 1):
        curves[f"F{i}"] = _trusted(ctx, S_SIDE, {table.a[i]: 2 - 2 * i}, 1)
        curves[f"G{i}"] = _trusted(ctx, S_SIDE, {table.b[i]: 2 - 2 * i}, 1)
    return curves


def thetanull_system(ctx: GenusCtx) -> tuple[list[list[Fraction]], list[Fraction]]:
    """The 3x3 linear system in (lambda-bar, a0-bar, b0s-bar).

    Each pencil P among F0, G0, H0 annihilates the theta-null class. With
    the ai coefficients known to vanish and the bi coefficients known to
    equal 1/2, and with the expansion carrying minus signs on every
    boundary term, the relation P . theta = 0 reads

        P.lambda * L - P.a0 * A - P.b0s * B = 1/2 * sum_i P.bi

    in the unknowns (L, A, B). Rows are built from the stored curve
    entries, so any corruption of those entries surfaces here.
    """
    curves = curve_map(ctx)
    b = _labels(ctx.g).b[1:]
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    for name in ("F0", "G0", "H0"):
        c = curves[name]
        rows.append([c["lambda"], -c["a0"], -c["b0s"]])
        rhs.append(Fraction(sum(c.num.get(label, 0) for label in b), 2 * c.den))
    return rows, rhs


def _det3(m) -> int:
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def _solve3(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    """Solve the 3x3 system rows . x = rhs exactly.

    Each equation is scaled to integers by the lcm of its denominators, and
    Cramer's rule runs in exact ints, so each unknown becomes one Fraction.
    Raises SingularMatrixError when the determinant is 0.
    """
    scaled = []
    for eq in (row + [r] for row, r in zip(rows, rhs)):
        scale = math.lcm(*(v.denominator for v in eq))
        scaled.append([v.numerator * (scale // v.denominator) for v in eq])
    # det(A) = det(A^T), so Cramer's rule replaces a row of the transpose, not a column of A
    cols = list(zip(*scaled))
    det = _det3(cols[:3])
    if det == 0:
        raise SingularMatrixError("the pencil relations are dependent (determinant 0)")
    return [Fraction(_det3(cols[:k] + cols[3:] + cols[k + 1:3]), det) for k in range(3)]


def solve_thetanull(ctx: GenusCtx) -> DivisorClass:
    """Re-derive the theta-null class from the pencil relations.

    Solves the system of thetanull_system exactly and sums the class by the
    kernel of parse_class, with the boundary coefficients entered
    negatively; the ai coefficients vanish, and no zero is stored. The
    result is not compared with the closed form here: verify's
    solve:thetanull check and the CLI's MATCH/MISMATCH line do that.
    """
    rows, rhs = thetanull_system(ctx)
    lam, a0, b0 = _solve3(rows, rhs)
    terms = [(sign * v.numerator, v.denominator, ((label, 1),))
             for sign, v, label in ((1, lam, "lambda"), (-1, a0, "a0"), (-1, b0, "b0s"))]
    terms.append((-1, 2, [(label, 1) for label in _labels(ctx.g).b[1:]]))
    return _sum_terms(ctx, S_SIDE, terms)
