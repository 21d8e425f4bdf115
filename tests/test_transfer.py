from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spinpic import picard, transfer
from spinpic.errors import SideMismatchError
from spinpic.picard import (
    DivisorClass,
    GenusCtx,
    M_SIDE,
    S_SIDE,
    basis_class,
    labels_for,
    lincomb,
    zero_class,
)
from spinpic.kodaira import MAX_RK_GENUS, classify
from spinpic.testcurves import curve_map
from spinpic.transfer import (
    degree_identities,
    even_component_degree,
    odd_component_degree,
    pullback,
    pushforward,
    total_degree,
)

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=32)


def _m_class(ctx, draw):
    return DivisorClass(ctx, M_SIDE, {l: draw(rationals) for l in labels_for(ctx, M_SIDE)})


def test_pullback_splits_d0():
    ctx = GenusCtx(5)
    got = pullback(basis_class(ctx, M_SIDE, "d0"))
    assert got == DivisorClass(ctx, S_SIDE, {"a0": 1, "b0s": 2})


def test_pullback_fixes_lambda_and_zero():
    for g in (3, 7, 12):
        ctx = GenusCtx(g)
        assert pullback(basis_class(ctx, M_SIDE, "lambda")) == basis_class(ctx, S_SIDE, "lambda")
        assert pullback(zero_class(ctx, M_SIDE)).is_zero()


def test_pushforward_degrees():
    assert pushforward(basis_class(GenusCtx(4), S_SIDE, "a0")) == 64 * basis_class(
        GenusCtx(4), M_SIDE, "d0"
    )
    assert pushforward(basis_class(GenusCtx(3), S_SIDE, "lambda")) == 36 * basis_class(
        GenusCtx(3), M_SIDE, "lambda"
    )
    # 2^3 * (2^2-1) * (2^3-1) = 8 * 3 * 7
    assert pushforward(basis_class(GenusCtx(5), S_SIDE, "b2")) == 168 * basis_class(
        GenusCtx(5), M_SIDE, "d2"
    )


def test_sides_enforced():
    ctx = GenusCtx(5)
    with pytest.raises(SideMismatchError):
        pullback(zero_class(ctx, S_SIDE))
    with pytest.raises(SideMismatchError):
        pushforward(zero_class(ctx, M_SIDE))


@pytest.mark.parametrize("g", range(3, 26))
def test_projection_identity_on_basis(g):
    ctx = GenusCtx(g)
    n = even_component_degree(g)
    for label in labels_for(ctx, M_SIDE):
        x = basis_class(ctx, M_SIDE, label)
        assert pushforward(pullback(x)) == n * x


@given(st.integers(3, 14), st.data())
def test_projection_identity_random(g, data):
    ctx = GenusCtx(g)
    x = _m_class(ctx, data.draw)
    assert pushforward(pullback(x)) == even_component_degree(g) * x


@given(st.integers(3, 12), st.data())
def test_transfer_maps_are_linear(g, data):
    ctx = GenusCtx(g)
    x = _m_class(ctx, data.draw)
    y = _m_class(ctx, data.draw)
    s = data.draw(rationals)
    t = data.draw(rationals)
    assert pullback(lincomb([s, t], [x, y])) == lincomb([s, t], [pullback(x), pullback(y)])
    xs, ys = pullback(x), pullback(y)
    assert pushforward(lincomb([s, t], [xs, ys])) == lincomb(
        [s, t], [pushforward(xs), pushforward(ys)]
    )


@pytest.mark.parametrize("g", (3, 5, 10, 19))
def test_matrix_product_is_scaled_identity(g):
    ctx = GenusCtx(g)
    n = even_component_degree(g)
    push = {s: pushforward(basis_class(ctx, S_SIDE, s)) for s in labels_for(ctx, S_SIDE)}
    columns = {m: pullback(basis_class(ctx, M_SIDE, m)) for m in labels_for(ctx, M_SIDE)}
    prod = {m: lincomb(list(col.coeff.values()), [push[s] for s in col.coeff]) for m, col in columns.items()}
    assert prod == {m: n * basis_class(ctx, M_SIDE, m) for m in labels_for(ctx, M_SIDE)}


def test_spin_counts_small_genera():
    assert (total_degree(3), even_component_degree(3), odd_component_degree(3)) == (64, 36, 28)
    deg_a0, deg_b0 = transfer._degree(3, "a", 0), transfer._degree(3, "b", 0)
    assert (deg_a0, deg_b0) == (16, 10)
    assert deg_a0 + 2 * deg_b0 == even_component_degree(3)

    assert (even_component_degree(2), odd_component_degree(2), total_degree(2)) == (10, 6, 16)


@pytest.mark.parametrize("g", range(2, 61))
def test_spin_counts_identities_full_range(g):
    assert [name for name, lhs, rhs in degree_identities(GenusCtx(g)) if lhs != rhs] == []


def test_component_degrees_sum():
    for g in range(2, 61):
        assert even_component_degree(g) + odd_component_degree(g) == 2 ** (2 * g)


def _arf_counts(top):
    """Even and odd theta-characteristic counts E(h), O(h) for h <= top, by counting, not closed form.

    A genus-(h+1) characteristic is a genus-h one beside a genus-1 one, and
    their Arf invariants add: E(1) = 3, O(1) = 1, E(h+1) = 3E(h) + O(h),
    O(h+1) = E(h) + 3O(h). Index 0 is unused.
    """
    even, odd = [0, 3], [0, 1]
    while len(even) <= top:
        e, o = even[-1], odd[-1]
        even.append(3 * e + o)
        odd.append(e + 3 * o)
    return even, odd


_E, _O = _arf_counts(1000)


def _degrees_by_recursion(g):
    """Each covering degree at genus g by (kind, i), from the recursion's products."""
    want = {("lambda", 0): _E[g], ("a", 0): _E[g - 1] + _O[g - 1], ("b", 0): _E[g - 1]}
    for i in range(1, g // 2 + 1):
        want["a", i], want["b", i] = _E[i] * _E[g - i], _O[i] * _O[g - i]
    return want


@pytest.mark.parametrize("g", range(2, 61))
def test_stratum_degrees_match_the_arf_recursion(g):
    assert odd_component_degree(g) == _O[g]
    want = _degrees_by_recursion(g)
    assert len(want) == len(labels_for(GenusCtx(g), S_SIDE))  # one degree per spin basis class
    assert {key: transfer._degree(g, *key) for key in want} == want


def test_degree_table_matches_the_arf_recursion():
    # the one formula that pushforward reads, degree by degree against the
    # recursion's products, and then basis class by basis class
    formula = transfer._degree
    for g in (*range(2, 301), 1000):
        ctx = GenusCtx(g)
        want = _degrees_by_recursion(g)
        assert {key: formula(g, *key) for key in want} == want
        # and each basis class, (kind, i) in basis order, is pushed forward by its own degree
        for label, ((kind, i), degree) in zip(labels_for(ctx, S_SIDE), want.items(), strict=True):
            image = "lambda" if kind == "lambda" else f"d{i}"
            assert dict(pushforward(basis_class(ctx, S_SIDE, label)).num) == {image: degree}


# --- the transfer maps against per-label Fraction oracles ---------------------

# Denominators up to 10^12 are almost always pairwise unrelated.
_unrelated = st.builds(
    Fraction, st.integers(-10**6, 10**6), st.integers(1, 12) | st.integers(1, 10**12)
)


def _sparse_class(ctx, side, draw):
    return DivisorClass(ctx, side, draw(st.dictionaries(st.sampled_from(labels_for(ctx, side)), _unrelated)))


def _assert_canonical_in_basis(cls):
    basis = set(labels_for(cls.ctx, cls.side))
    for label, v in cls.coeff.items():
        assert label in basis
        assert type(v) is Fraction
        assert v != 0 and v.denominator > 0 and gcd(v.numerator, v.denominator) == 1


def _pullback_oracle(x):
    out = {"lambda": x["lambda"], "a0": x["d0"], "b0s": 2 * x["d0"]}
    for i in range(1, x.ctx.h + 1):
        out[f"a{i}"] = out[f"b{i}"] = x[f"d{i}"]
    return {label: v for label, v in out.items() if v}


def _pushforward_oracle(x):
    g, degree = x.ctx.g, transfer._degree
    out = {
        "lambda": degree(g, "lambda", 0) * x["lambda"],
        "d0": degree(g, "a", 0) * x["a0"] + degree(g, "b", 0) * x["b0s"],
    }
    for i in range(1, x.ctx.h + 1):
        out[f"d{i}"] = sum(degree(g, k, i) * x[f"{k}{i}"] for k in "ab")
    return {label: v for label, v in out.items() if v}


@given(st.integers(3, 40), st.data())
def test_pullback_matches_per_label_oracle(g, data):
    x = _sparse_class(GenusCtx(g), M_SIDE, data.draw)
    got = pullback(x)
    _assert_canonical_in_basis(got)
    assert dict(got.coeff) == _pullback_oracle(x)


@given(st.integers(3, 40), st.data(), st.sets(st.sampled_from(["d0", "di", "all"])))
def test_pushforward_matches_per_label_oracle(g, data, cancel):
    ctx = GenusCtx(g)
    x = _sparse_class(ctx, S_SIDE, data.draw)
    coeff = dict(x.coeff)
    # a0 against b0s cancels into d0, ai against bi into di
    if "d0" in cancel:
        a0 = coeff.setdefault("a0", Fraction(1, 3))
        coeff["b0s"] = -a0 * transfer._degree(g, "a", 0) / transfer._degree(g, "b", 0)
    i = data.draw(st.integers(1, ctx.h))
    if "di" in cancel:
        ai = coeff.setdefault(f"a{i}", Fraction(-7, 5))
        coeff[f"b{i}"] = -ai * transfer._degree(g, "a", i) / transfer._degree(g, "b", i)
    if "all" in cancel:
        coeff = {}
    x = DivisorClass(ctx, S_SIDE, coeff)
    got = pushforward(x)
    _assert_canonical_in_basis(got)
    assert dict(got.coeff) == _pushforward_oracle(x)
    if "d0" in cancel:
        assert "d0" not in got.coeff
    if "di" in cancel:
        assert f"d{i}" not in got.coeff


def test_pushforward_drops_cancelled_d0():
    ctx = GenusCtx(3)  # deg a0 = 16, deg b0s = 10
    x = DivisorClass(ctx, S_SIDE, {"a0": 5, "b0s": -8, "lambda": Fraction(1, 36)})
    assert dict(pushforward(x).coeff) == {"lambda": Fraction(1)}


def test_the_covering_curve_builds_no_genus_basis(monkeypatch):
    # R's entries need the degrees of lambda, a0 and b0s only, which are
    # answered before transfer reads the label sequences, so R.K
    # certificates look up no basis and no label list
    reads, spelled, basis = [], picard._spelled, picard._basis
    monkeypatch.setattr(transfer, "_spelled", lambda g: reads.append(("labels", g)) or spelled(g))
    monkeypatch.setattr(picard, "_basis", lambda g, side: reads.append(("basis", g, side)) or basis(g, side))
    for g in range(3, MAX_RK_GENUS + 1):
        ctx = GenusCtx(g)
        assert curve_map(ctx)["R"].coeff.keys() == {"lambda", "a0", "b0s"}
        assert classify(ctx).rk < 0
    assert reads == []
