from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spinpic import cli, testcurves, transfer, verify
from spinpic.catalog import canonical_s, m1_theta_class, thetanull_class
from spinpic.errors import GenusMismatchError, SideMismatchError
from spinpic.picard import (
    DivisorClass,
    GenusCtx,
    M_SIDE,
    S_SIDE,
    basis_class,
    labels_for,
)
from spinpic.testcurves import (
    covering_curve,
    curve_map,
    intersect,
    solve_thetanull,
)
from spinpic.transfer import even_component_degree, pullback, pushforward

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=32)


def test_curve_inventory():
    ctx = GenusCtx(7)
    names = set(curve_map(ctx))
    assert names == {"B", "R", "F0", "G0", "H0", "F1", "F2", "F3", "G1", "G2", "G3"}


def test_r_vector_genus7():
    r = curve_map(GenusCtx(7))["R"]
    assert r["lambda"] == 8 * 64 * 129
    assert r["a0"] == 60 * 4096
    assert r["b0s"] == 60 * 32 * 65
    assert r["a1"] == 0 and r["b3"] == 0


def test_h0_vector_genus5():
    h0 = curve_map(GenusCtx(5))["H0"]
    assert h0["b0s"] == -4
    assert h0["a1"] == 1
    assert h0["lambda"] == 0 and h0["a0"] == 0 and h0["b1"] == 0


@pytest.mark.parametrize("g", (3, 6, 11, 20))
def test_f0_meets_lambda_once(g):
    assert curve_map(GenusCtx(g))["F0"]["lambda"] == 1


def test_g0_branching_consistency():
    # a0 + 2*b0s must equal three times the degree-12 elliptic pencil on d0
    g0 = curve_map(GenusCtx(6))["G0"]
    assert g0["a0"] + 2 * g0["b0s"] == 36


def test_intersect_errors():
    ctx = GenusCtx(5)
    b = curve_map(ctx)["B"]
    with pytest.raises(SideMismatchError):
        intersect(b, thetanull_class(ctx))
    with pytest.raises(GenusMismatchError):
        intersect(b, basis_class(GenusCtx(7), M_SIDE, "lambda"))


@pytest.mark.parametrize("g", range(3, 26))
def test_vanishing_suite(g):
    ctx = GenusCtx(g)
    curves = curve_map(ctx)
    theta = thetanull_class(ctx)
    for name in ("F0", "G0", "H0"):
        assert intersect(curves[name], theta) == 0
    for i in range(1, ctx.h + 1):
        assert intersect(curves[f"F{i}"], theta) == 0
        assert intersect(curves[f"G{i}"], theta) == i - 1


def test_g1_theta_regression():
    # the sign convention pins G1 . theta = 0 (the i-1 count at i = 1)
    ctx = GenusCtx(3)
    assert intersect(curve_map(ctx)["G1"], thetanull_class(ctx)) == 0


@pytest.mark.parametrize("g", range(3, 26))
def test_lift_identity_on_basis(g):
    ctx = GenusCtx(g)
    curves = curve_map(ctx)
    n = even_component_degree(g)
    for label in labels_for(ctx, M_SIDE):
        x = basis_class(ctx, M_SIDE, label)
        assert intersect(curves["R"], pullback(x)) == n * intersect(curves["B"], x)


@given(st.integers(3, 14), st.data())
def test_lift_identity_random(g, data):
    ctx = GenusCtx(g)
    curves = curve_map(ctx)
    x = DivisorClass(ctx, M_SIDE, {l: data.draw(rationals) for l in labels_for(ctx, M_SIDE)})
    assert intersect(curves["R"], pullback(x)) == even_component_degree(g) * intersect(
        curves["B"], x
    )


@pytest.mark.parametrize("g", (3, 5, 8, 13))
def test_pullback_compatibility(g):
    ctx = GenusCtx(g)
    curves = curve_map(ctx)
    for i in range(1, ctx.h + 1):
        for j in range(1, ctx.h + 1):
            x = pullback(basis_class(ctx, M_SIDE, f"d{j}"))
            want = 2 - 2 * i if i == j else 0
            assert intersect(curves[f"F{i}"], x) == want
    d0_up = pullback(basis_class(ctx, M_SIDE, "d0"))
    assert intersect(curves["H0"], d0_up) == 2 - 2 * g


def test_thetanull_chain_genus5():
    ctx = GenusCtx(5)
    assert list(testcurves._steps(ctx, curve_map(ctx), m1_theta_class(ctx))) == [
        ("pi_*theta = m1 at lambda", "lambda", 1, 4),
        ("pi_*theta = m1 at d0, G0.theta = 0", "a0", -1, 16),
        ("pi_*theta = m1 at d0, G0.theta = 0", "b0s", 0, 1),
        ("H0.theta = 0", "a1", 0, 1),
        ("F0.theta = 0", "b1", -1, 2),
        ("F2.theta = 0", "a2", 0, 1),
        ("pi_*theta = m1 at d2", "b2", -1, 2),
    ]


@pytest.mark.parametrize("g", [*range(3, 301), 1000])
def test_solve_thetanull_matches_closed_form(g):
    ctx = GenusCtx(g)
    solved = solve_thetanull(ctx)
    assert solved == thetanull_class(ctx)
    assert solved["lambda"] == Fraction(1, 4)
    assert solved["a0"] == Fraction(-1, 16)
    assert solved["b0s"] == 0
    # the two equations the chain leaves over: the d1 row of pi_*theta = m1, and Gi.theta = i-1
    assert pushforward(solved)["d1"] == m1_theta_class(ctx)["d1"]
    curves = curve_map(ctx)
    assert [intersect(curves[f"G{i}"], solved) for i in range(2, ctx.h + 1)] == list(range(1, ctx.h))


def test_solve_residuals_vanish():
    ctx = GenusCtx(9)
    solved = solve_thetanull(ctx)
    curves = curve_map(ctx)
    for name in ("F0", "G0", "H0"):
        assert intersect(curves[name], solved) == 0


@pytest.fixture
def dependent_pencils(monkeypatch):
    """curve_map with G0's a0 entry dropped. At genus 5, H0 makes a1 = 4*b0s, which cancels
    G0's b0s entry, so G0.theta = 0 meets neither a0 nor b0s and the 2x2 step is singular."""
    original = testcurves.curve_map

    def patched(ctx):
        curves = original(ctx)
        g0 = curves["G0"]
        curves["G0"] = DivisorClass(ctx, S_SIDE, {l: v for l, v in g0.coeff.items() if l != "a0"})
        return curves

    monkeypatch.setattr(testcurves, "curve_map", patched)


def test_singular_pencil_system_fails_the_cli(dependent_pencils, capsys):
    code = cli.run(["solve-thetanull", "-g", "5"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("FAIL: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_singular_pencil_system_fails_verify(dependent_pencils):
    failed = {c.name: c.got for c in verify.run_genus(5) if not c.ok}
    assert failed["solve:exception"].startswith("SingularMatrixError: ")


def test_r_pairs_canonical_negative_then_positive():
    assert intersect(curve_map(GenusCtx(7))["R"], canonical_s(GenusCtx(7))) == -7296
    assert intersect(curve_map(GenusCtx(8))["R"], canonical_s(GenusCtx(8))) == 51456


@st.composite
def sparse_classes(draw, genus, side, den=None):
    """A class on a few labels with any rational values, or, given den, with values n/den on the first three."""
    ctx = GenusCtx(genus)
    pool = labels_for(ctx, side) if den is None else labels_for(ctx, side)[:3]
    labels = draw(st.lists(st.sampled_from(pool), unique=True))
    values = rationals if den is None else st.integers(-50, 50).filter(bool).map(lambda n: Fraction(n, den))
    return DivisorClass(ctx, side, {label: draw(values) for label in labels})


# a shared small denominator, so that curve and class often store the same den,
# which intersect multiplies in (or, at den 1, skips), and share a label
_SHARED_DEN = st.none() | st.sampled_from([1, 2, 3, 4, 6])


@given(st.integers(3, 14), st.sampled_from([M_SIDE, S_SIDE]), _SHARED_DEN, st.data())
def test_intersect_matches_full_basis_sum(g, side, den, data):
    curve = data.draw(sparse_classes(g, side, den))
    x = data.draw(sparse_classes(g, side, den))
    got = intersect(curve, x)
    want = sum(curve[l] * x[l] for l in labels_for(GenusCtx(g), side))
    # an int exactly when the value is one, else a reduced Fraction
    assert type(got) is (int if want.denominator == 1 else Fraction)
    assert got == want


@given(st.integers(3, 14), st.integers(3, 14), st.sampled_from([M_SIDE, S_SIDE]), st.data())
def test_intersect_rejects_other_side_and_genus(g, other_g, side, data):
    curve = data.draw(sparse_classes(g, side))
    other_side = S_SIDE if side == M_SIDE else M_SIDE
    with pytest.raises(SideMismatchError):
        intersect(curve, data.draw(sparse_classes(g, other_side)))
    if other_g != g:
        with pytest.raises(GenusMismatchError):
            intersect(curve, data.draw(sparse_classes(other_g, side)))


def test_curve_map_returns_a_fresh_table():
    ctx = GenusCtx(6)
    curves = curve_map(ctx)
    curves["H0"] += basis_class(ctx, S_SIDE, "a1")
    del curves["G2"]
    again = curve_map(ctx)
    assert again["H0"]["a1"] == 1
    assert "G2" in again


@pytest.mark.parametrize("g", range(3, 61))
def test_covering_curve_is_curve_maps_r(g):
    ctx = GenusCtx(g)
    assert covering_curve(ctx) == curve_map(ctx)["R"]


def test_a_patched_covering_curve_fails_the_r_table_and_rk(monkeypatch):
    # curve_map and kodaira's R . K both read R through the module attribute;
    # -R pairs positively with K, which kodaira:rk-sign reads
    monkeypatch.setattr(testcurves, "covering_curve", lambda ctx, original=testcurves.covering_curve: -original(ctx))
    failed = {c.name for c in verify.run_genus(5) if not c.ok}
    assert {"curves:table:R", "kodaira:rk-sign"} <= failed


def test_zero_covering_degree_leaves_no_entry_in_r(monkeypatch):
    ctx = GenusCtx(6)
    original = transfer._degree

    def zero_b0s(g, kind, i):  # b0s's degree, which R reads by (kind, i)
        return 0 if (kind, i) == ("b", 0) else original(g, kind, i)

    monkeypatch.setattr(transfer, "_degree", zero_b0s)
    r = curve_map(ctx)["R"]
    assert "b0s" not in r.coeff
    assert r == DivisorClass(ctx, S_SIDE, {"lambda": 14560, "a0": 55296, "b0s": 0})
