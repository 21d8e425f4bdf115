import re
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import _sweep
from spinpic._oracle import basis as oracle_basis
from spinpic.catalog import canonical_m, canonical_s, choose_d, divisor_class, m1_theta_class, thetanull_class
from spinpic.errors import ClassSyntaxError, EngineFaultError, MixedBasisError, UnknownLabelError
from spinpic.picard import (
    MAX_GENUS,
    DivisorClass,
    GenusCtx,
    M_SIDE,
    S_SIDE,
    _LABELS,
    _basis,
    _ratios,
    _unknown_labels,
    _trusted,
    basis_class,
    labels_for,
    lincomb,
    parse_class,
    render_class,
    zero_class,
)
from spinpic.testcurves import curve_map, solve_thetanull
from spinpic.transfer import pullback, pushforward

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=32)


@st.composite
def classes(draw, side=None, genus=None):
    g = genus if genus is not None else draw(st.integers(3, 14))
    ctx = GenusCtx(g)
    s = side if side is not None else draw(st.sampled_from([M_SIDE, S_SIDE]))
    labels = labels_for(ctx, s)
    coeff = {label: draw(rationals) for label in labels}
    return DivisorClass(ctx, s, coeff)


def test_genus_ctx():
    assert GenusCtx(7).h == 3
    assert GenusCtx(8).h == 4
    with pytest.raises(ValueError):
        GenusCtx(1)


def test_genus_ctx_is_bounded_by_max_genus():
    assert GenusCtx(MAX_GENUS).h == 500
    # the message the cli prints for a genus above the ceiling
    with pytest.raises(ValueError, match=r"^genus 1001 is above the maximum 1000$"):
        GenusCtx(1001)
    assert labels_for(GenusCtx(MAX_GENUS), S_SIDE)[-2:] == ("a500", "b500")
    assert labels_for(GenusCtx(MAX_GENUS), M_SIDE)[-1] == "d500"


@pytest.mark.parametrize("g", range(3, 16))
def test_basis_sizes(g):
    ctx = GenusCtx(g)
    assert len(labels_for(ctx, M_SIDE)) == ctx.h + 2
    assert len(labels_for(ctx, S_SIDE)) == 2 * ctx.h + 3


@pytest.mark.parametrize(("g", "m", "s"), [
    (5, ("lambda", "d0", "d1", "d2"), ("lambda", "a0", "b0s", "a1", "b1", "a2", "b2")),
    (6, ("lambda", "d0", "d1", "d2", "d3"), ("lambda", "a0", "b0s", "a1", "b1", "a2", "b2", "a3", "b3")),
])
def test_basis_labels_in_order(g, m, s):
    assert labels_for(GenusCtx(g), M_SIDE) == m
    assert labels_for(GenusCtx(g), S_SIDE) == s


@pytest.mark.parametrize("g", range(2, 61))
def test_label_table_spells_each_label_once_and_the_bases_follow_it(g):
    # the label table serves every genus: genus g reads its first h+1 labels of each family
    ctx, table = GenusCtx(g), _LABELS
    h = ctx.h
    assert table.d[:h + 1] == tuple(f"d{i}" for i in range(h + 1))
    assert table.a[:h + 1] == tuple(f"a{i}" for i in range(h + 1))
    assert table.b[:h + 1] == ("b0s", *(f"b{i}" for i in range(1, h + 1)))
    # each side's map sends a label to its index i, lambda to 0, and is read-only; genus g's basis is its i <= h
    m, s = _basis(M_SIDE), _basis(S_SIDE)
    assert {label: i for label, i in m.items() if i <= h} == {"lambda": 0, **{table.d[i]: i for i in range(h + 1)}}
    assert {label: i for label, i in s.items() if i <= h} == {
        "lambda": 0, **{label: i for i in range(h + 1) for label in (table.a[i], table.b[i])}}
    for basis, label in ((m, "d0"), (s, "a0")):
        with pytest.raises(TypeError):
            basis[label] = 1
    # the bases, spelled as the oracle spells them, are prefixes of the maps in order, and store the table's own strings
    assert labels_for(ctx, M_SIDE) == oracle_basis(g, M_SIDE) == tuple(m)[:h + 2]
    assert labels_for(ctx, S_SIDE) == oracle_basis(g, S_SIDE) == tuple(s)[:2 * h + 3]
    assert all(x is y for x, y in zip(labels_for(ctx, M_SIDE)[1:], table.d))
    # the maps are the table's own
    assert m is table.m and s is table.s


# Each public way to test a label against a basis, as (name, code) at genus ctx, side and label; the __getitem__
# case indexes a class that the kernel's constructor built, which tests no label itself.
_ENTRY_POINTS = {
    "basis_class": "basis_class(ctx, side, label)",
    "parse_class": "parse_class(label, ctx, side)",
    "DivisorClass": "DivisorClass(ctx, side, {label: 1})",
    "__getitem__": "_trusted(ctx, side, {}, 1)[label]",
}


def _call(entry, ctx, side, label):
    return eval(_ENTRY_POINTS[entry], {**globals(), "ctx": ctx, "side": side, "label": label})


@pytest.mark.parametrize("label", ["d5", "a5", "b5"])
@pytest.mark.parametrize("entry", _ENTRY_POINTS)
def test_labels_spelled_for_a_higher_genus_stay_outside_a_lower_genus_basis(entry, label):
    ctx = GenusCtx(9)  # h = 4
    side = S_SIDE if label != "d5" else M_SIDE
    with pytest.raises(UnknownLabelError) as raised:
        _call(entry, ctx, side, label)
    assert str(raised.value) == (
        f"label {label!r} is not in the side-{side} basis at genus 9 (basis: {', '.join(oracle_basis(9, side))})"
    )


@pytest.mark.parametrize("genera", [range(2, 61), range(60, 1, -1)], ids=["ascending", "descending"])
def test_the_bases_do_not_depend_on_the_order_genera_are_visited_in(genera):
    probe = f"""
from spinpic.picard import GenusCtx, labels_for
bases = {{g: (labels_for(GenusCtx(g), "M"), labels_for(GenusCtx(g), "S")) for g in {genera!r}}}
print(sorted(bases.items()))
"""
    want = [(g, (oracle_basis(g, M_SIDE), oracle_basis(g, S_SIDE))) for g in range(2, 61)]
    assert _sweep.child("-c", probe) == f"{want}\n"


def test_a_fresh_process_holds_the_whole_label_table():
    # spelled at import through MAX_GENUS // 2 + 1 = 501, one index past the largest basis, as tuples; each label
    # is one string object, the same in its family's tuple and as a key of its side's map
    probe = """
from spinpic import picard
t = picard._LABELS
keys = {k: k for k in (*picard._M, *picard._S)}
print([type(f).__name__ for f in (t.d, t.a, t.b)], list(t.d), list(t.a), list(t.b))
print(list(picard._M.items()), list(picard._S.items()))
print(all(keys[x] is x for x in (*t.d, *t.a, *t.b)))
"""
    d, a, b = ([f"{k}{i}" for i in range(502)] for k in "dab")
    b[0] = "b0s"
    m = [("lambda", 0), *((x, i) for i, x in enumerate(d))]
    s = [("lambda", 0), *((x, i) for i, pair in enumerate(zip(a, b)) for x in pair)]
    assert _sweep.child("-c", probe) == f"{['tuple'] * 3} {d} {a} {b}\n{m} {s}\nTrue\n"


def test_slot_set_is_frozen():
    cls = zero_class(GenusCtx(5), S_SIDE)
    with pytest.raises(TypeError):
        cls.coeff["a9"] = Fraction(1)
    with pytest.raises(TypeError):
        cls.coeff["lambda"] = Fraction(2)


def test_unknown_labels_rejected():
    ctx = GenusCtx(5)
    with pytest.raises(UnknownLabelError):
        DivisorClass(ctx, M_SIDE, {"d9": 1})
    with pytest.raises(UnknownLabelError):
        DivisorClass(ctx, S_SIDE, {"d0": 1})
    with pytest.raises(UnknownLabelError):
        basis_class(ctx, M_SIDE, "a0")
    # one label is named alone, several as a list, each with the basis
    basis = "not in the side-M basis at genus 5 (basis: lambda, d0, d1, d2)"
    with pytest.raises(UnknownLabelError) as raised:
        zero_class(ctx, M_SIDE)["d3"]
    assert str(raised.value) == f"label 'd3' is {basis}"
    with pytest.raises(UnknownLabelError) as raised:
        DivisorClass(ctx, M_SIDE, {"d9": 1, "a0": 1})
    assert str(raised.value) == f"labels ['a0', 'd9'] are {basis}"


def test_a_side_other_than_m_or_s_is_refused():
    with pytest.raises(ValueError) as raised:
        labels_for(GenusCtx(5), "X")
    assert str(raised.value) == "side must be 'M' or 'S', got 'X'"


def test_public_constructor_coerces_values():
    # only the kernel's private constructor skips this; every DivisorClass(...) call coerces
    cls = DivisorClass(GenusCtx(5), M_SIDE, {"lambda": 3, "d0": "2/4", "d1": 0, "d2": "0/7"})
    assert dict(cls.coeff) == {"lambda": Fraction(3), "d0": Fraction(1, 2)}
    assert all(type(v) is Fraction for v in cls.coeff.values())
    with pytest.raises(ValueError, match="zero denominator"):
        DivisorClass(GenusCtx(5), M_SIDE, {"d0": "1/0"})


def test_lincomb_identity_and_inverse():
    ctx = GenusCtx(5)
    lam = basis_class(ctx, M_SIDE, "lambda")
    d0 = basis_class(ctx, M_SIDE, "d0")
    assert lincomb([1, 0], [lam, d0]) == lam
    x = DivisorClass(ctx, M_SIDE, {"lambda": Fraction(2, 3), "d1": -4})
    assert not lincomb([1, -1], [x, x]).num


def test_lincomb_mixed_basis():
    a = zero_class(GenusCtx(5), M_SIDE)
    b = zero_class(GenusCtx(5), S_SIDE)
    c = zero_class(GenusCtx(7), M_SIDE)
    with pytest.raises(MixedBasisError):
        lincomb([1, 1], [a, b])
    with pytest.raises(MixedBasisError):
        lincomb([1, 1], [a, c])
    with pytest.raises(MixedBasisError):
        lincomb([], [])
    with pytest.raises(TypeError) as raised:
        a + 1
    assert str(raised.value) == "expected a DivisorClass, got int"


def test_lincomb_rejects_a_bool_scalar():
    # an int scalar skips rational(), but a bool must not be read as 0 or 1
    x = basis_class(GenusCtx(5), M_SIDE, "d0")
    for bad in (True, False):
        with pytest.raises(TypeError, match="cannot build an exact rational from bool"):
            lincomb([bad], [x])
        with pytest.raises(TypeError, match="cannot build an exact rational from bool"):
            x.scaled(bad)


@given(classes(), rationals, rationals)
def test_scaling_distributes(x, s, t):
    assert s * x + t * x == (s + t) * x


@given(st.data())
def test_lincomb_bilinear(data):
    x = data.draw(classes())
    y = data.draw(classes(side=x.side, genus=x.ctx.g))
    s = data.draw(rationals)
    t = data.draw(rationals)
    assert lincomb([s, t], [x, y]) == s * x + t * y
    assert lincomb([s], [lincomb([t], [x])]) == (s * t) * x


# Denominators up to 10^12 are almost always pairwise unrelated; the small
# ones make labels collide on equal and on shared-factor denominators.
_unrelated = st.builds(
    Fraction, st.integers(-10**6, 10**6), st.integers(1, 12) | st.integers(1, 10**12)
)


@st.composite
def _sparse_terms(draw):
    """(ctx, side, scalars, classes): a few sparse classes with mixed scalar kinds.

    Half the draws hold one class, which _sum_terms takes as a single group
    unless its negated copy joins it. Half use integer scalars on integer
    classes, which sum over den 1, often with numerators that share a factor.
    """
    ctx = GenusCtx(draw(st.integers(3, 40)))
    side = draw(st.sampled_from([M_SIDE, S_SIDE]))
    labels = labels_for(ctx, side)
    if draw(st.booleans()):
        scalar, value = st.integers(-20, 20), st.integers(-30, 30)
    else:
        scalar = st.one_of(
            st.integers(-20, 20),
            st.integers(-3, 3).map(lambda k: 2**ctx.g + k),
            st.builds(lambda p, q: f"{p}/{q}", st.integers(-99, 99), st.integers(1, 99)),
            _unrelated,
        )
        value = _unrelated
    pairs = draw(st.lists(
        st.tuples(scalar, st.dictionaries(st.sampled_from(labels), value)),
        min_size=1, max_size=draw(st.sampled_from((1, 5))),
    ))
    # negated copies of some terms, so that labels (or everything) cancel to zero
    undo = draw(st.lists(st.sampled_from(range(len(pairs))), unique=True))
    pairs += [(-Fraction(pairs[k][0]), pairs[k][1]) for k in undo]
    return ctx, side, [s for s, _ in pairs], [DivisorClass(ctx, side, c) for _, c in pairs]


@st.composite
def _cancelling_terms(draw):
    """(ctx, side, scalars, classes): two classes over one den whose sum cancels some labels to 0.

    The labels left over sum to numerators that share a factor k > 1 with
    den, so _sum_terms takes its gcd with the zeros still in its sums and
    must both drop them and divide.
    """
    ctx = GenusCtx(draw(st.integers(3, 40)))
    side = draw(st.sampled_from([M_SIDE, S_SIDE]))
    labels = draw(st.lists(st.sampled_from(labels_for(ctx, side)), min_size=2, unique=True))
    k = draw(st.sampled_from([2, 3, 4, 6]))
    den = k * draw(st.integers(1, 5))
    cut = draw(st.integers(1, len(labels) - 1))
    x, y = {}, {}
    for label in labels[:cut]:  # a numerator prime to den keeps each class over den
        n = draw(st.integers(-30, 30).filter(lambda n: gcd(n, den) == 1))
        x[label], y[label] = Fraction(n, den), Fraction(-n, den)
    for label in labels[cut:]:
        a, m = draw(st.integers(-30, 30)), draw(st.integers(-5, 5).filter(bool))
        x[label], y[label] = Fraction(a, den), Fraction(k * m - a, den)
    scalar = draw(st.integers(-3, 3).filter(bool))
    return ctx, side, [scalar, scalar], [DivisorClass(ctx, side, x), DivisorClass(ctx, side, y)]


@given(_cancelling_terms())
def test_a_sum_that_cancels_labels_drops_them_and_divides_out_the_common_factor(terms):
    ctx, side, scalars, classes = terms
    assert [c.den for c in classes] == [classes[0].den] * 2
    got = lincomb(scalars, classes)
    _assert_stored_canonically(got)
    assert dict(got.coeff) == _oracle(ctx, side, scalars, classes)
    assert got.den < classes[0].den and set(got.num) < set(classes[0].num) | set(classes[1].num)


def _oracle(ctx, side, scalars, classes):
    """Per-label sum of Fraction products, with no picard operator involved."""
    sums = {
        label: sum((Fraction(s) * cls.coeff.get(label, 0) for s, cls in zip(scalars, classes)), Fraction(0))
        for label in labels_for(ctx, side)
    }
    return {label: v for label, v in sums.items() if v}


def _assert_stored_canonically(cls):
    """One positive int den and nonzero int numerators under basis labels, read-only, with gcd(den, *num) = 1."""
    assert type(cls.den) is int and cls.den >= 1
    assert all(type(n) is int and n != 0 for n in cls.num.values())
    assert gcd(cls.den, *cls.num.values()) == 1
    assert set(cls.num) <= set(labels_for(cls.ctx, cls.side))
    with pytest.raises(TypeError):
        cls.num["lambda"] = 1
    # the Fraction view holds the same values, each reduced
    assert dict(cls.coeff) == {label: Fraction(n, cls.den) for label, n in cls.num.items()}
    for v in cls.coeff.values():
        assert type(v) is Fraction
        assert v != 0 and v.denominator > 0 and gcd(v.numerator, v.denominator) == 1


@pytest.mark.parametrize("g", range(3, 61))
def test_every_builder_stores_canonically(g):
    ctx = GenusCtx(g)
    built = [canonical_m(ctx), canonical_s(ctx), thetanull_class(ctx), m1_theta_class(ctx), solve_thetanull(ctx),
             zero_class(ctx, M_SIDE), basis_class(ctx, S_SIDE, "b0s"), *curve_map(ctx).values()]
    if (spec := choose_d(ctx)).complete:  # the genus's own D is a class where g+1 is composite
        built.append(divisor_class(spec))
    built += [pullback(x) for x in built if x.side == M_SIDE] + [pushforward(x) for x in built if x.side == S_SIDE]
    for cls in built:
        _assert_stored_canonically(cls)


@given(classes())
def test_transfer_maps_store_canonically(x):
    _assert_stored_canonically(x)
    _assert_stored_canonically(pullback(x) if x.side == M_SIDE else pushforward(x))


_WIDE = st.integers(-2**200, 2**200)  # multi-word ints, beside the small ones st.integers() favours


@example([], 1)
@example([], 12)
@example([-4, 0, 4, 6, -7], 1)
@example([3 << 100, -(9 << 150), 1], 6 << 90)
@given(st.lists(st.integers() | _WIDE), st.just(1) | st.integers(min_value=1) | _WIDE.filter(lambda d: d > 0))
def test_ratio_writes_what_str_of_a_fraction_writes(ns, d):
    # one list over one denominator: empty, negative, zero, d = 1 and multi-word entries alike
    want = [str(Fraction(n, d)) for n in ns]
    assert _ratios(ns, d) == want
    # a one-shot iterator, as render_class passes, is read once
    assert _ratios(iter(ns), d) == _ratios(map(int, ns), d) == want
    assert _ratios(iter(ns), 1) == [str(n) for n in ns]
    # entries that share few gcds with d: 1, d, and 2 or 4
    few = [7 * d + 1, -(d + 1), 1, d, -3 * d, 0, 2 * d, 2 * d + 1, 4, -2]
    assert _ratios(few, d) == _ratios(iter(few), d) == [str(Fraction(n, d)) for n in few]
    # gcds given by the caller, as a certificate shares c's with c', whose entries differ by multiples of d
    ks = [gcd(n, d) for n in ns]
    assert _ratios(ns, d, ks) == _ratios(iter(ns), d, ks) == want
    shifted = [n + 4 * d for n in ns]
    assert _ratios(ns + shifted, d, ks * 2) == want + [str(Fraction(n, d)) for n in shifted]


def test_equal_values_give_equal_classes():
    for side, label in ((M_SIDE, "d0"), (S_SIDE, "a0")):
        ctx = GenusCtx(5)
        x, y = DivisorClass(ctx, side, {label: "2/4"}), DivisorClass(ctx, side, {label: Fraction(1, 2)})
        assert x == y and (x.den, dict(x.num)) == (y.den, dict(y.num)) == (2, {label: 1})


@given(_sparse_terms())
def test_lincomb_matches_per_label_fraction_sums(terms):
    ctx, side, scalars, classes = terms
    got = lincomb(scalars, classes)
    _assert_stored_canonically(got)
    assert dict(got.coeff) == _oracle(ctx, side, scalars, classes)
    cancelled = lincomb(scalars + [-Fraction(s) for s in scalars], classes + classes)
    assert not cancelled.num


@given(_sparse_terms())
def test_class_operators_match_per_label_fraction_sums(terms):
    ctx, side, scalars, classes = terms
    x, y = classes[0], classes[-1]
    s = scalars[0]
    for got, want in (
        (x + y, _oracle(ctx, side, [1, 1], [x, y])),
        (x - y, _oracle(ctx, side, [1, -1], [x, y])),
        (-x, _oracle(ctx, side, [-1], [x])),
        (x.scaled(s), _oracle(ctx, side, [s], [x])),
    ):
        _assert_stored_canonically(got)
        assert dict(got.coeff) == want


def test_parse_thetanull_shape():
    ctx = GenusCtx(3)
    cls = parse_class("1/4*lambda - 1/16*a0 - 1/2*b1", ctx, S_SIDE)
    assert cls["lambda"] == Fraction(1, 4)
    assert cls["a0"] == Fraction(-1, 16)
    assert cls["b0s"] == 0
    assert cls["b1"] == Fraction(-1, 2)


def test_parse_zero_and_canonical_m():
    ctx = GenusCtx(5)
    assert not parse_class("0", ctx, M_SIDE).num
    cls = parse_class("13*lambda - 2*d0 - 3*d1 - 2*d2", ctx, M_SIDE)
    assert cls["lambda"] == 13 and cls["d2"] == -2


def test_parse_unicode_labels():
    ctx = GenusCtx(5)
    ascii_form = parse_class("1/4*lambda - 1/16*a0 - 1/2*b1 - 1/2*b2", ctx, S_SIDE)
    unicode_form = parse_class("1/4*λ - 1/16*α0 - 1/2*β1 - 1/2*β2", ctx, S_SIDE)
    assert ascii_form == unicode_form
    assert parse_class("β0", ctx, S_SIDE) == basis_class(ctx, S_SIDE, "b0s")
    assert parse_class("δ2", ctx, M_SIDE) == basis_class(ctx, M_SIDE, "d2")


def test_parse_plain_b0_stays_invalid_on_spin_side():
    # the spin-side label is b0s; bare b0 is reserved for the slope coefficient
    with pytest.raises(UnknownLabelError):
        parse_class("b0", GenusCtx(5), S_SIDE)


@pytest.mark.parametrize("bad", ["", "1/4", "lambda lambda", "3*", "2 lambda", "lambda +"])
def test_parse_syntax_errors(bad):
    with pytest.raises(ClassSyntaxError):
        parse_class(bad, GenusCtx(5), M_SIDE)


def test_render_examples():
    ctx = GenusCtx(3)
    theta3 = DivisorClass(
        ctx, S_SIDE, {"lambda": Fraction(1, 4), "a0": Fraction(-1, 16), "b1": Fraction(-1, 2)}
    )
    assert render_class(theta3) == "1/4*lambda - 1/16*a0 - 1/2*b1"
    assert render_class(zero_class(ctx, M_SIDE)) == "0"
    assert render_class(-basis_class(ctx, M_SIDE, "d1")) == "-d1"


def test_render_refuses_a_stored_label_outside_the_basis(trusted_record):
    # only a faulty trusted builder stores one; the basis walk would leave d5 out and print a correct-looking class
    x = _trusted(GenusCtx(9), M_SIDE, {"lambda": 13, "d5": -2}, 1)  # h = 4
    for render in (render_class, str):  # the engine's fault, not an input error
        with pytest.raises(EngineFaultError) as raised:
            render(x)
        assert str(raised.value) == (
            f"label 'd5' is not in the side-M basis at genus 9 (basis: {', '.join(oracle_basis(9, M_SIDE))})")
    assert trusted_record == [(9, M_SIDE, "label 'd5'")]


def test_render_orders_alpha_before_beta():
    ctx = GenusCtx(4)
    cls = DivisorClass(ctx, S_SIDE, {"b2": 1, "a2": 1, "b0s": 2, "a0": 3, "lambda": 1})
    assert render_class(cls) == "lambda + 3*a0 + 2*b0s + a2 + b2"


@given(classes())
def test_parse_render_round_trip(x):
    assert parse_class(render_class(x), x.ctx, x.side) == x


# --- parse_class against a per-label Fraction oracle --------------------------

_SPACE = st.sampled_from(["", " ", "  ", "\t"])


@st.composite
def _class_expressions(draw):
    """(ctx, side, text, terms): a class expression and its (sign, p, q, label) terms.

    q is None for a bare label and p may be 0. Some terms are repeated with
    the opposite sign, so that labels (or everything) cancel to zero.
    """
    ctx = GenusCtx(draw(st.integers(3, 40)))
    side = draw(st.sampled_from([M_SIDE, S_SIDE]))
    term = st.tuples(
        st.sampled_from([1, -1]),
        st.integers(0, 10**6),
        st.none() | st.integers(1, 12) | st.integers(1, 10**12),
        st.sampled_from(labels_for(ctx, side)),
    )
    terms = draw(st.lists(term, min_size=1, max_size=12))
    undo = draw(st.lists(st.sampled_from(range(len(terms))), unique=True))
    terms += [(-terms[k][0], *terms[k][1:]) for k in undo]
    text = draw(_SPACE)
    for k, (sign, p, q, label) in enumerate(terms):
        if k or sign < 0 or draw(st.booleans()):
            text += ("+" if sign > 0 else "-") + draw(_SPACE)
        if q is not None:
            text += f"{p}{draw(_SPACE)}/{draw(_SPACE)}{q}{draw(_SPACE)}*{draw(_SPACE)}"
        text += label + draw(_SPACE)
    return ctx, side, text, terms


def _parse_oracle(terms):
    sums = {}
    for sign, p, q, label in terms:
        sums[label] = sums.get(label, Fraction(0)) + sign * (Fraction(1) if q is None else Fraction(p, q))
    return {label: v for label, v in sums.items() if v}


@given(_class_expressions())
def test_parse_class_matches_per_label_fraction_sums(expression):
    ctx, side, text, terms = expression
    got = parse_class(text, ctx, side)
    _assert_stored_canonically(got)
    assert got.coeff.keys() <= set(labels_for(ctx, side))
    assert dict(got.coeff) == _parse_oracle(terms)


def test_parse_drops_cancelled_labels():
    ctx = GenusCtx(5)
    got = parse_class("d1 - d1 + 2*d0", ctx, M_SIDE)
    assert dict(got.coeff) == {"d0": Fraction(2)}
    assert not parse_class("1/2*d1 - 2/4*d1", ctx, M_SIDE).num


@pytest.mark.parametrize("text,error,message", [
    ("1/0*lambda", ValueError, "zero denominator: '1/0'"),
    ("d1 + 3 / 0*d0", ValueError, "zero denominator: '3/0'"),
    # the message drops any whitespace, as rational's does
    ("1\t/0*lambda", ValueError, "zero denominator: '1/0'"),
    ("lambda + d9", UnknownLabelError,
     "label 'd9' is not in the side-M basis at genus 5 (basis: lambda, d0, d1, d2)"),
    # the message names the token as written, not its ASCII form
    ("lambda + \u03b49", UnknownLabelError,
     "label '\u03b49' is not in the side-M basis at genus 5 (basis: lambda, d0, d1, d2)"),
    ("lambda d1", ClassSyntaxError, "expected '+' or '-' before position 6 in 'lambda d1'"),
    ("2*d0 -d1 3*d2", ClassSyntaxError, "expected '+' or '-' before position 8 in '2*d0 -d1 3*d2'"),
])
def test_parse_error_messages(text, error, message):
    with pytest.raises(error) as info:
        parse_class(text, GenusCtx(5), M_SIDE)
    assert str(info.value) == message


# --- parse_class against a stepwise two-regex oracle --------------------------

_ORACLE_SIGN = re.compile(r"\s*([+-])\s*", re.ASCII)
_ORACLE_TERM = re.compile(r"(?:(\d+)(?:\s*/\s*(\d+))?\s*\*\s*)?(λ|lambda|[dab]\d+s?|[δαβ]\d+)", re.ASCII)


def _stepwise_parse(text, ctx, side):
    """text's per-label Fraction sums, reading at each position an optional sign (required after 0), then a term."""
    s = text.strip(" \t\n\r\f\v")
    if s == "0":
        return {}
    if not s:
        raise ClassSyntaxError("empty class expression")
    basis, sums, pos = set(labels_for(ctx, side)), {}, 0
    while pos < len(s):
        sign, m = 1, _ORACLE_SIGN.match(s, pos)
        if m is not None:
            sign, pos = (1 if m[1] == "+" else -1), m.end()
        elif pos:
            raise ClassSyntaxError(f"expected '+' or '-' before position {pos} in {text!r}")
        m = _ORACLE_TERM.match(s, pos)
        if m is None:
            raise ClassSyntaxError(f"expected a term at position {pos} in {text!r}")
        p, q, token = m.groups()
        head = {"δ": "d", "α": "a", "β": "b"}.get(token[0], token[0])
        label = "lambda" if token in ("λ", "lambda") else "b0s" if token == "β0" else head + token[1:]
        if label not in basis:
            raise _unknown_labels((token,), ctx, side)
        if q is not None and int(q) == 0:
            raise ValueError(f"zero denominator: '{p}/{q}'")
        sums[label] = sums.get(label, 0) + sign * Fraction(int(p or 1), int(q or 1))
        pos = m.end()
    return {label: v for label, v in sums.items() if v}


_FRAGMENTS = st.sampled_from([
    *"0123456789", "12", "/", "*", "+", "-", " ", "\t",
    "d1", "a0", "b0s", "lambda", "λ", "δ1", "β0",
    "x", "s", ".", "d9", "\u0663",  # junk: a stray letter, a decimal point, a label past h, an Arabic-Indic 3
])


@given(st.lists(_FRAGMENTS, max_size=12).map("".join), st.sampled_from([M_SIDE, S_SIDE]))
def test_parse_class_matches_a_stepwise_two_regex_parse(text, side):
    ctx = GenusCtx(5)
    try:
        want = _stepwise_parse(text, ctx, side)
    except (ClassSyntaxError, UnknownLabelError, ValueError) as exc:
        with pytest.raises(type(exc)) as info:
            parse_class(text, ctx, side)
        assert type(info.value) is type(exc) and str(info.value) == str(exc)
    else:
        assert dict(parse_class(text, ctx, side).coeff) == want
