import copy
import json
import pickle
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinpic import catalog, kodaira
from spinpic.catalog import (
    BrillNoether,
    DivisorSpec,
    GiesekerPetri,
    K3,
    UserSupplied,
    bn_class,
    canonical_m,
    canonical_s,
    choose_d,
    divisor_class,
    load_divisor_spec,
    m1_theta_class,
    rho,
    thetanull_class,
)
from spinpic.errors import (
    DivisorSpecError,
    GenusMismatchError,
    NotCompositeError,
    SlopeViolationError,
    UnknownLabelError,
)
from spinpic.picard import (
    DivisorClass,
    GenusCtx,
    M_SIDE,
    S_SIDE,
    basis_class,
    labels_for,
    parse_class,
    render_class,
)
from spinpic.testcurves import curve_map, solve_thetanull
from spinpic.transfer import pullback, pushforward


def test_rho_values():
    assert rho(9, 1, 5) == -1
    assert rho(8, 1, 5) == 0  # the Gieseker-Petri pencil case g = 2k-2, d = k
    assert rho(4, 1, 3) == 0


def test_canonical_m_small_genera():
    ctx = GenusCtx(5)
    assert render_class(canonical_m(ctx)) == "13*lambda - 2*d0 - 3*d1 - 2*d2"
    assert render_class(canonical_m(GenusCtx(3))) == "13*lambda - 2*d0 - 3*d1"
    assert render_class(canonical_m(GenusCtx(4))) == "13*lambda - 2*d0 - 3*d1 - 2*d2"


def test_canonical_s_values():
    assert (
        render_class(canonical_s(GenusCtx(4)))
        == "13*lambda - 2*a0 - 3*b0s - 3*a1 - 3*b1 - 2*a2 - 2*b2"
    )
    for g in (3, 5, 9, 14):
        assert canonical_s(GenusCtx(g))["lambda"] == 13


@pytest.mark.parametrize("g", range(3, 26))
def test_canonical_splitting_identity(g):
    ctx = GenusCtx(g)
    assert canonical_s(ctx) - pullback(canonical_m(ctx)) == basis_class(ctx, S_SIDE, "b0s")


def test_thetanull_slots():
    ctx = GenusCtx(6)
    theta = thetanull_class(ctx)
    assert theta["lambda"] == Fraction(1, 4)
    assert theta["a0"] == Fraction(-1, 16)
    assert theta["b3"] == Fraction(-1, 2)
    assert theta["a2"] == 0
    assert theta["b0s"] == 0
    assert render_class(thetanull_class(GenusCtx(3))) == "1/4*lambda - 1/16*a0 - 1/2*b1"


def test_m1_theta_small_genera():
    assert render_class(m1_theta_class(GenusCtx(3))) == "9*lambda - d0 - 3*d1"
    # frozen from the pushforward of the theta-null class at genus 4
    got = m1_theta_class(GenusCtx(4))
    assert got == 2 * parse_class("17*lambda - 2*d0 - 7*d1 - 9*d2", GenusCtx(4), M_SIDE)


@pytest.mark.parametrize("g", range(3, 26))
def test_m1_theta_is_pushforward_of_thetanull(g):
    ctx = GenusCtx(g)
    assert pushforward(thetanull_class(ctx)) == m1_theta_class(ctx)


_CLOSED_FORMS = ((canonical_m, M_SIDE), (canonical_s, S_SIDE), (thetanull_class, S_SIDE),
                 (m1_theta_class, M_SIDE))


def _assert_validated_form(cls, ctx, side):
    """cls is what the validating constructor builds from its own coefficients."""
    assert (cls.ctx, cls.side) == (ctx, side)
    assert cls == DivisorClass(ctx, side, dict(cls.coeff))
    assert set(cls.coeff) <= set(labels_for(ctx, side))
    assert all(type(v) is Fraction and v != 0 for v in cls.coeff.values())
    with pytest.raises(TypeError):
        cls.coeff["lambda"] = Fraction(1)


@pytest.mark.parametrize("g", range(3, 61))
def test_closed_forms_pass_the_validating_constructor(g):
    # the closed forms and the test curves skip DivisorClass validation; this guards that path
    ctx = GenusCtx(g)
    built = [(build(ctx), side) for build, side in _CLOSED_FORMS]
    built += [(c, M_SIDE if name == "B" else S_SIDE) for name, c in curve_map(ctx).items()]
    for cls, side in built:
        _assert_validated_form(cls, ctx, side)


@pytest.mark.parametrize("g", [*range(3, 61), 999, 1000])
def test_slot_form_classes_are_valid_in_basis_order(g):
    # canonical_s and thetanull_class write their slot forms in one pass each:
    # every label once, in basis order, zeros dropped (theta stores no ai and no b0s)
    ctx = GenusCtx(g)
    k, theta = canonical_s(ctx), thetanull_class(ctx)
    for cls in (k, theta):
        _assert_validated_form(cls, ctx, S_SIDE)
    assert list(k.num) == list(labels_for(ctx, S_SIDE)) and k.den == 1
    assert list(theta.num) == ["lambda", "a0", *(f"b{i}" for i in range(1, ctx.h + 1))] and theta.den == 16


# slot forms (den, lambda, a0, b0s, a1, b1, ai, bi) with every zero pattern: in the (ai, bi) pair, and at each head slot
_HEAD = (7, -5, 3, 2, -11)
_ZERO_PATTERN_FORMS = {
    "ai-zero": (6, *_HEAD, 0, 4),
    "bi-zero": (6, *_HEAD, 4, 0),
    "both-zero": (6, *_HEAD, 0, 0),
    "unequal": (6, *_HEAD, 4, -9),
    "equal": (1, *_HEAD, -2, -2),
    **{f"zero-at-{name}": (6, *(0 if k == j else v for k, v in enumerate(_HEAD)), 4, -9)
       for j, name in enumerate(("lambda", "a0", "b0s", "a1", "b1"))},
}


@pytest.mark.parametrize("form", _ZERO_PATTERN_FORMS.values(), ids=_ZERO_PATTERN_FORMS)
@pytest.mark.parametrize("g", (3, 4, 5, 60, 1000))
def test_slot_class_is_valid_in_basis_order_for_every_zero_pattern(g, form):
    # one pass over the basis, whichever entries of the form are zero: the
    # validating constructor's class, its labels in basis order, zeros dropped
    ctx, (den, *head, ai, bi) = GenusCtx(g), form
    labels = ["lambda", "a0", "b0s", *(f"{k}{i}" for i in range(1, ctx.h + 1) for k in "ab")]
    values = [*head, *[ai, bi] * (ctx.h - 1)]
    cls = catalog._slot_class(ctx, form)
    _assert_validated_form(cls, ctx, S_SIDE)
    assert cls == DivisorClass(ctx, S_SIDE, {label: Fraction(v, den) for label, v in zip(labels, values)})
    assert list(cls.num) == [label for label, v in zip(labels, values) if v] and cls.den == den


@pytest.mark.parametrize("g", range(3, 61))
def test_engine_builders_pass_the_validating_constructor(g):
    # these builders skip DivisorClass validation too, each on input it has already checked
    ctx = GenusCtx(g)
    for side in (M_SIDE, S_SIDE):
        for label in labels_for(ctx, side):
            cls = basis_class(ctx, side, label)
            _assert_validated_form(cls, ctx, side)
            assert cls == DivisorClass(ctx, side, {label: 1})
    b = tuple(Fraction(i, 3) for i in range(1, ctx.h + 1))
    complete = DivisorSpec(ctx, UserSupplied("complete"), a=Fraction(13, 2), b0=Fraction(1, 5), b=b)
    own = choose_d(ctx)  # complete where it is the Brill-Noether divisor
    for spec in (complete, own) if own.complete else (complete,):
        cls = divisor_class(spec)
        _assert_validated_form(cls, ctx, M_SIDE)
        want = {"lambda": spec.a, "d0": -spec.b0, **{f"d{i}": -v for i, v in enumerate(spec.b, 1)}}
        assert cls == DivisorClass(ctx, M_SIDE, want)
        # the decomposition builds its remainder class only when it is read, from c and c'
        dec = kodaira.decompose_canonical(ctx, spec)
        _assert_validated_form(dec.remainder, ctx, S_SIDE)
        labels = [f"{family}{i}" for i in range(1, ctx.h + 1) for family in "ab"]
        values = [v for pair in zip(dec.c, dec.c_prime) for v in pair]
        assert dec.remainder == DivisorClass(ctx, S_SIDE, dict(zip(labels, values)))
        assert list(dec.remainder.num) == [label for label, v in zip(labels, values) if v]  # basis order
    _assert_validated_form(solve_thetanull(ctx), ctx, S_SIDE)
    slope_only = DivisorSpec(ctx, UserSupplied("slope-only"), a=Fraction(13, 2), b0=Fraction(1, 5))
    assert kodaira.decompose_canonical(ctx, slope_only).remainder is None


def test_basis_class_rejects_an_unknown_label_as_the_constructor_does():
    ctx = GenusCtx(3)
    want = "label 'd2' is not in the side-M basis at genus 3 (basis: lambda, d0, d1)"
    with pytest.raises(UnknownLabelError) as raised:
        basis_class(ctx, M_SIDE, "d2")
    assert str(raised.value) == want
    with pytest.raises(UnknownLabelError) as raised:
        DivisorClass(ctx, M_SIDE, {"d2": 1})
    assert str(raised.value) == want


def test_bn_class_genus9():
    ctx = GenusCtx(9)
    cls, spec = bn_class(ctx)
    assert render_class(cls) == "12*lambda - 5/3*d0 - 8*d1 - 14*d2 - 18*d3 - 20*d4"
    assert spec.provenance == BrillNoether(1, 5)
    assert spec.complete


def test_bn_slope_genus8():
    _, spec = bn_class(GenusCtx(8))
    assert spec.slope == Fraction(22, 3)


def test_bn_needs_composite():
    with pytest.raises(NotCompositeError) as raised:
        bn_class(GenusCtx(10))
    assert str(raised.value) == "g+1 = 11 is prime; no Brill-Noether divisor at genus 10"


def _prime(n):
    return n >= 2 and all(n % p for p in range(2, int(n**0.5) + 1))


@pytest.mark.parametrize("g", [g for g in range(3, 41) if not _prime(g + 1)])
def test_bn_boundary_ratios(g):
    _, spec = bn_class(GenusCtx(g))
    for i in range(1, GenusCtx(g).h + 1):
        ratio = spec.b[i - 1] / spec.b0
        assert ratio == Fraction(6 * i * (g - i), g + 1)
        assert ratio >= Fraction(4, 3)


def test_slope_rule_cases():
    # the genus's bound is the slope of its own D
    d10 = choose_d(GenusCtx(10))
    assert d10.provenance == K3() and d10.slope == 7
    d12 = choose_d(GenusCtx(12))
    assert d12.provenance == GiesekerPetri(7) and d12.slope == Fraction(295, 42)
    d9 = choose_d(GenusCtx(9))
    assert isinstance(d9.provenance, BrillNoether) and d9.slope == Fraction(36, 5)


@pytest.mark.parametrize("g", range(3, 41))
def test_slope_rule_total(g):
    d = choose_d(GenusCtx(g))
    assert isinstance(d.provenance, BrillNoether) == (not _prime(g + 1))
    assert isinstance(d.provenance, (BrillNoether, K3, GiesekerPetri))
    assert d.slope > 0


def test_choose_d_defaults():
    spec9 = choose_d(GenusCtx(9))
    assert isinstance(spec9.provenance, BrillNoether) and spec9.complete

    spec10 = choose_d(GenusCtx(10))
    assert isinstance(spec10.provenance, K3)
    assert spec10.slope == 7 and not spec10.complete

    spec16 = choose_d(GenusCtx(16))
    assert spec16.provenance == GiesekerPetri(9)
    assert spec16.slope == Fraction(489, 72)
    assert not spec16.complete


def test_choose_d_user_slope_check():
    ctx = GenusCtx(9)
    fine = DivisorSpec(ctx, UserSupplied("custom"), a=Fraction(7), b0=Fraction(1), b=None)
    assert choose_d(ctx, fine) is fine
    steep = DivisorSpec(ctx, UserSupplied("too-steep"), a=Fraction(8), b0=Fraction(1), b=None)
    with pytest.raises(SlopeViolationError):
        choose_d(ctx, steep)
    with pytest.raises(GenusMismatchError):
        choose_d(GenusCtx(11), fine)
    # the bound is the slope of the genus's own D: Brill-Noether, K3, Gieseker-Petri
    for g in (9, 10, 12):
        ctx = GenusCtx(g)
        bound = choose_d(ctx).slope
        equal = DivisorSpec(ctx, UserSupplied("equal"), a=bound, b0=Fraction(1))
        assert choose_d(ctx, equal) is equal
        steeper = DivisorSpec(ctx, UserSupplied("steeper"), a=bound + Fraction(1, 10**9), b0=Fraction(1))
        with pytest.raises(SlopeViolationError, match=f"exceeds the genus-{g} bound {bound}$"):
            choose_d(ctx, steeper)


def test_choose_d_checks_a_user_spec_without_building_d(monkeypatch):
    ctx = GenusCtx(300)  # g+1 = 7*43: D is Brill-Noether, with h = 150 coefficients b_i
    user = DivisorSpec(ctx, UserSupplied("flat"), a=Fraction(6), b0=Fraction(1))
    original, built = DivisorSpec.__post_init__, []
    original_own, owns = catalog._own_d, []

    def counting(self, *args):
        built.append(self.provenance)
        original(self, *args)

    def counting_own(c):
        owns.append(c.g)
        return original_own(c)

    monkeypatch.setattr(DivisorSpec, "__post_init__", counting)
    monkeypatch.setattr(catalog, "_own_d", counting_own)
    assert choose_d(ctx, user) is user
    assert built == [] and owns == []
    assert choose_d(ctx).complete and owns == [300]  # the counter sees a D being built


@pytest.mark.parametrize("g", range(3, 61))
def test_choose_d_passes_the_validating_constructor(g):
    # K3, Gieseker-Petri and Brill-Noether defaults skip validation that they would pass
    d = choose_d(GenusCtx(g))
    assert DivisorSpec(d.ctx, d.provenance, d.a, d.b0, d.b) == d


def test_own_d_is_the_validated_class_in_lowest_terms_and_basis_order():
    # _own_d writes D's numerators in closed form, past the constructor; at every
    # genus of the range it is the class the constructor builds from a, -b0 and,
    # for Brill-Noether, -i(g-i), stored over den > 0 in lowest terms in basis order
    for g in range(3, 1001):
        ctx = GenusCtx(g)
        spec, (provenance, a, b0) = catalog._own_d(ctx), catalog._rule(g)
        bn = [f"d{i}" for i in range(1, ctx.h + 1)] if isinstance(provenance, BrillNoether) else []
        want = {"lambda": a, "d0": -b0, **{label: Fraction(-i * (g - i)) for i, label in enumerate(bn, 1)}}
        d = spec.divisor
        assert spec.provenance == provenance and (d.ctx, d.side) == (ctx, M_SIDE)
        assert d == DivisorClass(ctx, M_SIDE, want), g
        assert type(d.den) is int and d.den > 0 and all(type(n) is int for n in d.num.values())
        assert gcd(d.den, *d.num.values()) == 1
        assert list(d.num) == ["lambda", "d0", *bn]


def _assert_stored_in_order(spec):
    """D stores lambda, d0, d1, ..., dh in that order when complete, lambda and d0 alone otherwise, also once copied."""
    h = spec.ctx.h
    want = ["lambda", "d0", *(f"d{i}" for i in range(1, h + 1) if spec.complete)]
    for kept in (spec, copy.copy(spec), copy.deepcopy(spec), pickle.loads(pickle.dumps(spec))):
        assert kept == spec and list(kept.divisor.num) == want, spec.ctx.g
    return want


def test_every_spec_stores_its_numerators_in_order():
    # kodaira.decompose_canonical reads d1..dh by position, from D's third stored value
    # on, so every builder of a spec must store lambda, d0, d1, ..., dh in that order
    complete = [g for g in range(3, 1001) if len(_assert_stored_in_order(choose_d(GenusCtx(g)))) > 2]
    assert complete == [g for g in range(3, 1001) if isinstance(catalog._rule(g)[0], BrillNoether)]
    assert len(complete) == 832
    for g in (3, 9, 60):
        ctx = GenusCtx(g)
        b = tuple(Fraction(g - i, 7) for i in range(ctx.h))
        for spec in (DivisorSpec(ctx, UserSupplied("u"), Fraction(9), Fraction(2, 3), b),
                     DivisorSpec(ctx, UserSupplied("u"), Fraction(9), Fraction(2, 3)),
                     load_divisor_spec(json.dumps({"name": "u", "genus": g, "a": "9", "b0": "2/3",
                                                   "b": [str(v) for v in b]}), ctx),
                     load_divisor_spec({"name": "u", "genus": g, "a": 9, "b0": "2/3"}, ctx)):
            _assert_stored_in_order(spec)


_POSITIVE = st.fractions(min_value=0, max_denominator=30).filter(lambda q: q > 0)


@st.composite
def _user_specs(draw):
    """(ctx, a, b0, b) for a user spec at g in 3..60, with b None for a slope-only spec."""
    ctx = GenusCtx(draw(st.integers(3, 60)))
    b = draw(st.none() | st.lists(_POSITIVE, min_size=ctx.h, max_size=ctx.h).map(tuple))
    return ctx, draw(_POSITIVE), draw(_POSITIVE), b


@settings(max_examples=60, deadline=None)
@given(_user_specs())
def test_divisor_spec_reads_back_its_values(drawn):
    # a spec holds only D's class, so every value it gives back is read off that class
    ctx, a, b0, b = drawn
    spec = DivisorSpec(ctx, UserSupplied("drawn"), a, b0, b)
    assert (spec.a, spec.b0, spec.b, spec.slope, spec.complete) == (a, b0, b, a / b0, b is not None)
    assert all(type(v) is Fraction for v in (spec.a, spec.b0, *(spec.b or ())))
    if b is None:
        with pytest.raises(DivisorSpecError):
            divisor_class(spec)
    else:
        want = {"lambda": a, "d0": -b0, **{f"d{i}": -v for i, v in enumerate(b, 1)}}
        assert divisor_class(spec) == DivisorClass(ctx, M_SIDE, want)
    for same in (copy.copy(spec), copy.deepcopy(spec), pickle.loads(pickle.dumps(spec))):
        assert same == spec and hash(same) == hash(spec) and same.divisor == spec.divisor


def test_divisor_spec_validation():
    ctx = GenusCtx(9)
    with pytest.raises(DivisorSpecError):
        DivisorSpec(ctx, UserSupplied("bad"), a=Fraction(-1), b0=Fraction(1))
    for a in (Fraction(1, 2), Fraction(1)):  # any a > 0 is accepted
        assert DivisorSpec(ctx, UserSupplied("small"), a=a, b0=Fraction(1)).a == a
    with pytest.raises(DivisorSpecError):
        DivisorSpec(ctx, UserSupplied("bad"), a=Fraction(1), b0=Fraction(1), b=(Fraction(1),))
    with pytest.raises(DivisorSpecError):
        divisor_class(DivisorSpec(GenusCtx(10), K3(), a=Fraction(7), b0=Fraction(1)))


@pytest.mark.parametrize("g,provenance,a,b0,b,own", [
    pytest.param(9, BrillNoether(1, 6), 12, Fraction(5, 3), None,
                 "brill-noether(r=1, d=5) with a=12, b0=5/3 and its b_i", id="rho-not-minus-one"),
    pytest.param(9, K3(), 7, 1, None, "brill-noether(r=1, d=5) with a=12, b0=5/3 and its b_i", id="k3-off-genus-10"),
    pytest.param(10, K3(), 8, 1, None, "k3 with a=7, b0=1 and no b_i", id="k3-slope-8"),
    pytest.param(10, K3(), 7, 1, (2, 2, 2, 2, 2), "k3 with a=7, b0=1 and no b_i", id="k3-with-b_i"),
    pytest.param(11, GiesekerPetri(7), 295, 42, None, "brill-noether(r=1, d=6) with a=14, b0=2 and its b_i",
                 id="gp-g-not-2k-2"),
    pytest.param(12, GiesekerPetri(7), 296, 42, None, "gieseker-petri(k=7) with a=295, b0=42 and no b_i",
                 id="gp-wrong-a"),
    pytest.param(12, GiesekerPetri(7), 590, 84, None, "gieseker-petri(k=7) with a=295, b0=42 and no b_i",
                 id="gp-scaled"),
    # rho(11, 2, 9) = -1, but _rule labels genus 11's D with r = 1
    pytest.param(11, BrillNoether(2, 9), 14, 2, (10, 18, 24, 28, 30),
                 "brill-noether(r=1, d=6) with a=14, b0=2 and its b_i", id="bn-other-r"),
    pytest.param(14, GiesekerPetri(8), 386, 56, None, "brill-noether(r=2, d=11) with a=17, b0=5/2 and its b_i",
                 id="gp-g-plus-1-composite"),
    pytest.param(10, "k3", 7, 1, None, "k3 with a=7, b0=1 and no b_i", id="not-a-provenance"),
])
def test_named_provenance_is_accepted_only_for_the_genus_own_d(g, provenance, a, b0, b, own):
    with pytest.raises(DivisorSpecError) as exc:
        DivisorSpec(GenusCtx(g), provenance, a=a, b0=b0, b=b)
    assert str(exc.value) == (
        f"a named provenance, here {provenance!r}, is accepted only for genus {g}'s own D: {own}; "
        "give any other divisor as UserSupplied(name)"
    )


@pytest.mark.parametrize("g", [9, 10, 12])
def test_a_certificate_with_a_named_d_survives_copy_and_pickle(g):
    # deepcopy and unpickling rebuild the named D through the validating constructor
    cert = kodaira.classify(GenusCtx(g))
    for twin in (copy.copy(cert), copy.deepcopy(cert), pickle.loads(pickle.dumps(cert))):
        assert twin == cert
        assert kodaira.certificate_json(twin) == kodaira.certificate_json(cert)


def test_load_divisor_spec(tmp_path):
    ctx = GenusCtx(4)
    payload = {"name": "custom", "genus": 4, "a": "13/2", "b0": "1", "b": ["2", "3"]}
    path = tmp_path / "d.json"
    path.write_text(json.dumps(payload))
    spec = load_divisor_spec(path, ctx)
    assert spec.a == Fraction(13, 2) and spec.b == (Fraction(2), Fraction(3))
    assert spec.complete

    with pytest.raises(GenusMismatchError):
        load_divisor_spec(dict(payload, genus=5), ctx)
    with pytest.raises(DivisorSpecError):
        load_divisor_spec({"name": "x", "genus": 4}, ctx)
    with pytest.raises(DivisorSpecError, match=r"^divisor file has unknown keys: \['bs', 'c'\]$"):
        load_divisor_spec({**payload, "bs": payload["b"], "c": "1"}, ctx)


def test_canonical_ops_need_genus_three():
    with pytest.raises(ValueError):
        canonical_m(GenusCtx(2))
    with pytest.raises(ValueError):
        thetanull_class(GenusCtx(2))
