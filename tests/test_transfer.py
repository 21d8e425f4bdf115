import pytest
from hypothesis import given
from hypothesis import strategies as st

from spinpic.errors import SideMismatchError
from spinpic.picard import (
    DivisorClass,
    GenusCtx,
    M_SIDE,
    S_SIDE,
    basis_class,
    labels_for,
    lincomb,
    m_labels,
    zero_class,
)
from spinpic.transfer import (
    even_component_degree,
    odd_component_degree,
    pullback,
    pullback_matrix,
    pushforward,
    pushforward_matrix,
    spin_counts,
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
    for label in m_labels(ctx):
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
    push = pushforward_matrix(ctx)
    prod = {
        m: lincomb(list(col.coeff.values()), [push[s] for s in col.coeff])
        for m, col in pullback_matrix(ctx).items()
    }
    assert prod == {m: n * basis_class(ctx, M_SIDE, m) for m in m_labels(ctx)}


def test_spin_counts_small_genera():
    sc3 = spin_counts(GenusCtx(3))
    assert (sc3.total_degree, sc3.n_even, sc3.n_odd) == (64, 36, 28)
    assert (sc3.deg_a0, sc3.deg_b0) == (16, 10)
    assert sc3.deg_a0 + 2 * sc3.deg_b0 == sc3.n_even

    sc2 = spin_counts(GenusCtx(2))
    assert (sc2.n_even, sc2.n_odd, sc2.total_degree) == (10, 6, 16)


@pytest.mark.parametrize("g", range(2, 61))
def test_spin_counts_identities_full_range(g):
    assert spin_counts(GenusCtx(g)).violations() == []


def test_component_degrees_sum():
    for g in range(2, 61):
        assert even_component_degree(g) + odd_component_degree(g) == 2 ** (2 * g)
