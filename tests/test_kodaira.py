from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinpic.catalog import (
    DivisorSpec,
    UserSupplied,
    canonical_s,
    choose_d,
    divisor_class,
    thetanull_class,
)
from spinpic.errors import GenusMismatchError, SlopeViolationError, VerificationFailureError
from spinpic.kodaira import (
    FLAG_CONDITIONAL,
    FLAG_EXTRAPOLATED,
    FLAG_FORMAL_BASIS,
    GENERAL_TYPE,
    KAPPA_NONNEGATIVE,
    UNIRULED,
    MAX_RK_GENUS,
    Decomposition,
    certificate_json,
    certify,
    classify,
    decompose_canonical,
    uniruled_certificate,
)
from _checks import run_genus
from spinpic import catalog, kodaira, picard, transfer
from spinpic.picard import DivisorClass, GenusCtx, S_SIDE, basis_class, lincomb
from spinpic.transfer import pullback


def _nu(g):
    ctx = GenusCtx(g)
    return decompose_canonical(ctx, choose_d(ctx)).nu


def test_nu_values():
    assert _nu(8) == 0
    assert _nu(9) == Fraction(1, 5)
    assert _nu(10) == Fraction(1, 2)
    assert _nu(11) == Fraction(1, 2)


def _bumped_form(name, slot):
    """A copy of catalog's slot form `name` with 1 added to the class it writes at `slot` (lambda, a0 or b0s)."""
    form = list(getattr(catalog, name))
    form[("lambda", "a0", "b0s").index(slot) + 1] += form[0]  # the numerators are over form[0]
    return tuple(form)


def test_nu_is_what_the_lambda_slot_leaves(monkeypatch):
    # one more lambda in K's slot form moves nu by exactly one and leaves no
    # lambda remainder, so nu follows the form rather than a closed form of its own
    ctx = GenusCtx(9)
    monkeypatch.setattr(catalog, "_CANONICAL_S_FORM", _bumped_form("_CANONICAL_S_FORM", "lambda"))
    assert canonical_s(ctx)["lambda"] == 14  # the built class reads the same form
    dec = decompose_canonical(ctx, choose_d(ctx))
    assert dec.nu == Fraction(1, 5) + 1 == Fraction(6, 5)
    assert "lambda" not in dec.remainder.num


_POSITIVE = st.fractions(min_value=0, max_denominator=30).filter(lambda q: q > 0)


@st.composite
def _user_specs(draw, min_genus=3):
    """A complete or slope-only user spec at g in min_genus..60 with positive rational a, b0 and b_i."""
    ctx = GenusCtx(draw(st.integers(min_genus, 60)))
    b = draw(st.none() | st.lists(_POSITIVE, min_size=ctx.h, max_size=ctx.h).map(tuple))
    return DivisorSpec(ctx, UserSupplied("drawn"), draw(_POSITIVE), draw(_POSITIVE), b)


@settings(max_examples=60, deadline=None)
@given(_user_specs())
def test_decomposition_of_a_user_divisor(spec):
    ctx = spec.ctx
    dec = decompose_canonical(ctx, spec)
    # the closed form that balancing the lambda slot gives, 13 = nu + 2 + 3a/(2*b0)
    assert dec.nu == 11 - Fraction(3, 2) * spec.a / spec.b0
    if not spec.complete:
        assert dec.conditional
        return
    indexed = {f"{family}{i}" for family in "ab" for i in range(1, ctx.h + 1)}
    assert set(dec.remainder.num) <= indexed
    assembled = lincomb(
        [dec.nu, 8, Fraction(3, 2) / spec.b0, 1],
        [basis_class(ctx, S_SIDE, "lambda"), thetanull_class(ctx), pullback(divisor_class(spec)), dec.remainder],
    )
    assert assembled == canonical_s(ctx)


def _assert_matches_the_fraction_route(spec):
    """nu and every c and c' over den are what Fraction scalars and lincomb give.

    The Fraction route builds K, theta and pullback(D) in full and sums
    K - nu*lambda - 8*theta - (3/(2*b0))*pullback(D) by lincomb; its lambda,
    a0 and b0s slots vanish. A complete D's decomposition holds integer
    numerators at a1, b1, ..., ah, bh, zeros included, unreduced over the
    lcm of K's and theta's denominators and -2 times D's d0 numerator: each
    over den is that sum's slot, and its remainder, reduced, is that sum. A slope-only D's holds
    none of them.
    """
    ctx = spec.ctx
    dec = decompose_canonical(ctx, spec)
    k, theta, d = canonical_s(ctx), thetanull_class(ctx), pullback(spec.divisor)
    scale = Fraction(3, 2) / spec.b0
    nu = k["lambda"] - 8 * theta["lambda"] - scale * d["lambda"]
    assert type(dec.nu) is Fraction and dec.nu == nu
    whole = lincomb([1, -nu, -8, -scale], [k, basis_class(ctx, S_SIDE, "lambda"), theta, d])
    assert not {"lambda", "a0", "b0s"} & set(whole.num)
    if spec.complete:
        # b0 = -d0/den(D), so (3/(2*b0))*pullback(D) is 3 times D's pulled-back numerators over -2*d0
        den = lcm(catalog._CANONICAL_S_FORM[0], catalog._THETANULL_FORM[0], -2 * spec.divisor.num["d0"])
        assert type(dec.den) is int and dec.den == den
        for field, family in (("c_num", "a"), ("c_prime_num", "b")):
            got = getattr(dec, field)
            assert type(got) is tuple and len(got) == ctx.h and all(type(n) is int for n in got)
            assert [Fraction(n, den) for n in got] == [whole[f"{family}{i}"] for i in range(1, ctx.h + 1)]
        assert dec.remainder == whole
    else:
        assert (dec.den, dec.c_num, dec.c_prime_num, dec.remainder) == (None, None, None, None)


@settings(max_examples=60, deadline=None)
@given(_user_specs(min_genus=8))
def test_integer_decomposition_of_a_user_divisor_matches_the_fraction_route(spec):
    _assert_matches_the_fraction_route(spec)


def test_integer_decomposition_of_each_own_divisor_matches_the_fraction_route():
    for g in range(8, 301):
        _assert_matches_the_fraction_route(choose_d(GenusCtx(g)))


def test_the_decomposition_reads_the_pullback_rule_that_pullback_applies(monkeypatch):
    # the rule is written once, in transfer: d0 on b0s with multiplicity 3 leaves
    # -3 + (3/(2*b0))*3*b0 = 3/2 there, and di on ai with multiplicity 2 moves every
    # c_i as it moves the Fraction route, which calls pullback
    ctx = GenusCtx(9)
    with monkeypatch.context() as m:
        m.setattr(transfer, "_PULLBACK", (1, 1, 3, 1, 1))
        with pytest.raises(VerificationFailureError, match="^nonzero b0s remainder 3/2$"):
            decompose_canonical(ctx, choose_d(ctx))
    before = decompose_canonical(ctx, choose_d(ctx))
    monkeypatch.setattr(transfer, "_PULLBACK", (1, 1, 2, 2, 1))
    _assert_matches_the_fraction_route(choose_d(ctx))
    moved = decompose_canonical(ctx, choose_d(ctx))
    assert moved.c != before.c and moved.c_prime == before.c_prime


@pytest.mark.parametrize("g", (9, 10))  # a complete Brill-Noether D and a slope-only K3 D
@pytest.mark.parametrize("label", ("a0", "b0s"))
def test_a_nonzero_a0_or_b0s_remainder_raises(g, label, monkeypatch):
    # K's slot form with one more a0 or b0s: the built class gains exactly that basis class
    ctx, before = GenusCtx(g), canonical_s(GenusCtx(g))
    monkeypatch.setattr(catalog, "_CANONICAL_S_FORM", _bumped_form("_CANONICAL_S_FORM", label))
    assert canonical_s(ctx) == before + basis_class(ctx, S_SIDE, label)
    with pytest.raises(VerificationFailureError, match=f"^nonzero {label} remainder 1$"):
        decompose_canonical(ctx, choose_d(ctx))


def test_decompose_genus9():
    ctx = GenusCtx(9)
    dec = decompose_canonical(ctx, choose_d(ctx))
    assert dec.nu == Fraction(1, 5)
    assert dec.c[0] == Fraction(21, 5)
    assert dec.c_prime[0] == Fraction(41, 5)
    assert dec.remainders_nonnegative()


def test_decompose_genus8():
    ctx = GenusCtx(8)
    dec = decompose_canonical(ctx, choose_d(ctx))
    assert dec.nu == 0
    assert dec.c[0] == 4
    assert dec.remainders_nonnegative()


def test_decompose_genus10_is_conditional():
    ctx = GenusCtx(10)
    dec = decompose_canonical(ctx, choose_d(ctx))
    assert dec.nu == Fraction(1, 2)
    assert dec.conditional
    assert dec.c is None and dec.c_prime is None
    with pytest.raises(VerificationFailureError) as raised:
        dec.remainders_nonnegative()
    assert str(raised.value) == "remainders are conditional; no sign information"


def test_decompose_genus_mismatch():
    with pytest.raises(GenusMismatchError):
        decompose_canonical(GenusCtx(9), choose_d(GenusCtx(11)))


def test_lambda_slot_of_combination_genus9():
    # 8*theta + (3/(2*b0))*pullback(D) carries 2 + 3a/(2*b0) = 64/5 on lambda
    ctx = GenusCtx(9)
    spec = choose_d(ctx)
    combo = lincomb(
        [8, Fraction(3, 2) / spec.b0],
        [thetanull_class(ctx), pullback(divisor_class(spec))],
    )
    assert combo["lambda"] == Fraction(64, 5)
    assert combo["a0"] == -2
    assert combo["b0s"] == -3


@pytest.mark.parametrize(
    "g,expected",
    [(3, -360), (4, -1072), (5, -2976), (6, -6848), (7, -7296), (8, 51456)],
)
def test_uniruled_certificate_values(g, expected):
    rk = uniruled_certificate(GenusCtx(g))
    # intersect gives an int over den 1, and the certificate's rk stays a Fraction
    assert type(rk) is Fraction and rk == expected


@pytest.mark.parametrize("g", range(3, 26))
def test_uniruled_certificate_sign(g):
    rk = uniruled_certificate(GenusCtx(g))
    assert (rk < 0) == (g <= 7)


# the genera 9 <= g <= 22 with g+1 composite
@pytest.mark.parametrize("g", [9, 11, 13, 14, 15, 17, 19, 20, 21])
def test_decomposition_identity_composite(g):
    ctx = GenusCtx(g)
    spec = choose_d(ctx)
    dec = decompose_canonical(ctx, spec)
    assembled = lincomb(
        [dec.nu, 8, Fraction(3, 2) / spec.b0],
        [basis_class(ctx, S_SIDE, "lambda"), thetanull_class(ctx), pullback(divisor_class(spec))],
    )
    for i in range(1, ctx.h + 1):
        assembled += dec.c[i - 1] * basis_class(ctx, S_SIDE, f"a{i}")
        assembled += dec.c_prime[i - 1] * basis_class(ctx, S_SIDE, f"b{i}")
    assert assembled == canonical_s(ctx)
    assert dec.remainders_nonnegative()


def test_classify_verdicts():
    for g in range(3, 8):
        cert = classify(GenusCtx(g))
        assert cert.verdict == UNIRULED
        assert cert.rk < 0
    cert8 = classify(GenusCtx(8))
    assert cert8.verdict == KAPPA_NONNEGATIVE
    assert cert8.decomposition.nu == 0
    for g in range(9, 23):
        cert = classify(GenusCtx(g))
        assert cert.verdict == GENERAL_TYPE
        assert cert.decomposition.nu > 0


@pytest.mark.parametrize("g", (9, 12, 300))
def test_classify_builds_no_class_through_the_validating_constructor(g, monkeypatch):
    # every class of a certificate comes from a closed form or a checked spec,
    # so none is re-validated and no basis is looked up (g = 12 has a slope-only D)
    ctx = GenusCtx(g)
    original, validated, basis = DivisorClass.__post_init__, [], picard._basis

    def counting(self):
        validated.append(self.side)
        original(self)

    monkeypatch.setattr(DivisorClass, "__post_init__", counting)
    monkeypatch.setattr(picard, "_basis", lambda side: validated.append(("basis", side)) or basis(side))
    assert classify(ctx).verdict == GENERAL_TYPE
    assert validated == []


def test_classify_flags():
    assert FLAG_FORMAL_BASIS in classify(GenusCtx(3)).flags
    assert FLAG_FORMAL_BASIS in classify(GenusCtx(4)).flags
    assert FLAG_FORMAL_BASIS not in classify(GenusCtx(5)).flags
    assert FLAG_CONDITIONAL in classify(GenusCtx(10)).flags
    assert FLAG_CONDITIONAL in classify(GenusCtx(12)).flags
    assert classify(GenusCtx(11)).flags == ()
    cert23 = classify(GenusCtx(23))
    assert FLAG_EXTRAPOLATED in cert23.flags and FLAG_CONDITIONAL not in cert23.flags


def test_classify_user_divisor():
    ctx = GenusCtx(10)
    complete = DivisorSpec(
        ctx,
        UserSupplied("k3-with-boundary"),
        a=Fraction(7),
        b0=Fraction(1),
        b=tuple(Fraction(2) for _ in range(ctx.h)),
    )
    cert = classify(ctx, complete)
    assert cert.verdict == GENERAL_TYPE
    assert FLAG_CONDITIONAL not in cert.flags
    steep = DivisorSpec(ctx, UserSupplied("steep"), a=Fraction(8), b0=Fraction(1), b=None)
    with pytest.raises(SlopeViolationError):
        classify(ctx, steep)


def test_certificate_json_shapes():
    doc = certificate_json(classify(GenusCtx(8)))
    assert doc["genus"] == 8 and doc["verdict"] == KAPPA_NONNEGATIVE
    assert doc["nu"] == "0" and doc["rk"] is None
    assert doc["c"][0] == "4"
    assert set(doc) == {"genus", "verdict", "nu", "rk", "c", "c_prime", "flags", "citations"}

    doc7 = certificate_json(classify(GenusCtx(7)))
    assert doc7["verdict"] == UNIRULED
    assert doc7["rk"] == "-7296" and doc7["nu"] is None and doc7["c"] is None

    doc10 = certificate_json(classify(GenusCtx(10)))
    assert doc10["nu"] == "1/2" and doc10["c"] is None
    assert FLAG_CONDITIONAL in doc10["flags"]


# (module, name, value) patches and the number of p/q writer calls for c and c' under them
_WRITER_PATHS = {
    # the paper's forms: c'_i - c_i is 4*den at every i, so c and c' share their gcds with den
    "paper": ((), 1),
    # theta's bi slot at -6/16 moves the gap at i >= 2 to 3*den, still a multiple of den
    "theta-bi-6": (((catalog, "_THETANULL_FORM", (16, 4, -1, 0, 0, -8, 0, -6)),), 1),
    # at -7/16 the gap is 7*den/2, and a pullback rule of 2 on bi makes it differ with i:
    # neither proves shared gcds, so each list is written by a call of its own
    "theta-bi-7": (((catalog, "_THETANULL_FORM", (16, 4, -1, 0, 0, -8, 0, -7)),), 2),
    "pullback-bi-2": (((transfer, "_PULLBACK", (1, 1, 2, 1, 2)),), 2),
}


@pytest.mark.parametrize("path", _WRITER_PATHS)
@settings(max_examples=40, deadline=None)
@given(st.integers(9, 60).flatmap(lambda g: st.tuples(
    st.just(GenusCtx(g)), _POSITIVE, _POSITIVE, st.lists(_POSITIVE, min_size=g // 2, max_size=g // 2).map(tuple))))
def test_certificate_remainders_are_each_entry_in_lowest_terms(path, drawn):
    # every written c and c' is str of its Fraction over den, and the value that
    # K - 8*theta + (3/(2*b0))*p*b_i gives at its slot from D's b_i as the spec reads them
    ctx, a, b0, b = drawn
    spec = DivisorSpec(ctx, UserSupplied("drawn"), a, b0, b)
    patches, writes = _WRITER_PATHS[path]
    with pytest.MonkeyPatch.context() as m:
        for module, name, value in patches:
            m.setattr(module, name, value)
        calls, original = [], kodaira._ratios
        m.setattr(kodaira, "_ratios", lambda *args: calls.append(args) or original(*args))
        dec = decompose_canonical(ctx, spec)
        # built directly, since a perturbed form may leave a negative remainder that certify refuses
        doc = certificate_json(kodaira.KodairaCertificate(ctx, GENERAL_TYPE, None, dec, (), (), ()))
        (k_den, *k), (t_den, *t) = catalog._CANONICAL_S_FORM, catalog._THETANULL_FORM
        _, _, _, p_ai, p_bi = transfer._PULLBACK
    assert len(calls) == writes
    _, _, _, a1, b1, ai, bi = [Fraction(x, k_den) - 8 * Fraction(y, t_den) for x, y in zip(k, t)]
    scale = Fraction(3, 2) / spec.b0
    want_c = [(a1 if i == 1 else ai) + scale * p_ai * v for i, v in enumerate(spec.b, 1)]
    want_c_prime = [(b1 if i == 1 else bi) + scale * p_bi * v for i, v in enumerate(spec.b, 1)]
    assert doc["c"] == [str(Fraction(n, dec.den)) for n in dec.c_num] == list(map(str, want_c))
    assert doc["c_prime"] == [str(Fraction(n, dec.den)) for n in dec.c_prime_num] == list(map(str, want_c_prime))


def _evidence(g):
    ctx = GenusCtx(g)
    return ctx, decompose_canonical(ctx, choose_d(ctx))


def _certify_failure(ctx, rk, dec):
    with pytest.raises(VerificationFailureError) as info:
        certify(ctx, rk, dec)
    return str(info.value)


def test_judge_on_hand_built_evidence():
    ctx10, dec10 = _evidence(10)
    assert dec10.conditional and certify(ctx10, None, dec10).verdict == GENERAL_TYPE
    assert _certify_failure(GenusCtx(5), Fraction(0), None) == "R . K = 0 is not negative at genus 5"
    ctx8, dec8 = _evidence(8)
    remainders8 = dec8.den, dec8.c_num, dec8.c_prime_num
    assert _certify_failure(ctx8, None, Decomposition(dec8.d_spec, Fraction(-1, 5), *remainders8)) == (
        "nu = -1/5 is negative at genus 8"
    )
    ctx9, dec9 = _evidence(9)
    assert _certify_failure(ctx9, None, Decomposition(dec9.d_spec, Fraction(0), dec9.den, dec9.c_num,
                                                      dec9.c_prime_num)) == "nu = 0 is not positive at genus 9"
    # c_1 moved to -1: its numerator becomes -den, which keeps the remainders in lowest terms
    negative_c1 = Decomposition(dec9.d_spec, dec9.nu, dec9.den, (-dec9.den,) + dec9.c_num[1:], dec9.c_prime_num)
    assert negative_c1.c == (Fraction(-1),) + dec9.c[1:] and negative_c1.c_prime == dec9.c_prime
    assert negative_c1.remainder == dec9.remainder - (dec9.c[0] + 1) * basis_class(ctx9, S_SIDE, "a1")
    assert _certify_failure(ctx9, None, negative_c1) == "negative boundary remainder at genus 9"


# (g, den, c_num, c_prime_num) of a hand-built decomposition with the own D, complete at g = 9 (h = 4)
# and slope-only at g = 12, and why the constructor refuses it
_REFUSED = {
    # c'_2 - c_2 = -1 and c'_3 - c_3 = 0 differ mod den, so c's gcds with den are not c''s, which the
    # writer would take for c' and write as 0/2
    "gap": ((9, 2, (0, 1, 0, 0), (0, 0, 0, 0)),
            "c'_i - c_i must be one value mod den = 2 for every i >= 2, got [0, 1]"),
    "den-0": ((9, 0, (0,) * 4, (0,) * 4), "den must be an int >= 1 for a D with b_i, got 0"),
    "den-fraction": ((9, Fraction(2), (0,) * 4, (0,) * 4),
                     "den must be an int >= 1 for a D with b_i, got Fraction(2, 1)"),
    "short": ((9, 1, (0,) * 3, (0,) * 4), "c_num and c_prime_num must be 4 ints each, got (0, 0, 0) and (0, 0, 0, 0)"),
    "none": ((9, 1, None, (0,) * 4), "c_num and c_prime_num must be 4 ints each, got None and (0, 0, 0, 0)"),
    "fraction": ((9, 1, (0,) * 4, (0, 0, 0, Fraction(1))),
                 "c_num and c_prime_num must be 4 ints each, got (0, 0, 0, 0) and (0, 0, 0, Fraction(1, 1))"),
    # a complete D's remainder is not conditional, and a slope-only D has no b_i to write c and c' for
    "complete-none": ((9, None, None, None), "den must be an int >= 1 for a D with b_i, got None"),
    "slope-only-lists": ((12, 1, (0,) * 6, (0,) * 6), "a D without b_i keeps no remainder: den, c_num and c_prime_num "
                         "must be None, got 1, (0, 0, 0, 0, 0, 0) and (0, 0, 0, 0, 0, 0)"),
}


@pytest.mark.parametrize("case", _REFUSED)
def test_a_hand_built_decomposition_out_of_shape_is_refused(case):
    (g, *fields), message = _REFUSED[case]
    with pytest.raises(ValueError) as info:
        Decomposition(choose_d(GenusCtx(g)), Fraction(1), *fields)
    assert str(info.value) == message


def test_a_hand_built_decomposition_writes_what_its_views_read():
    # every c'_i - c_i a multiple of den: c and c' share their gcds with den, and each entry is in lowest terms
    ctx = GenusCtx(9)
    dec = Decomposition(choose_d(ctx), Fraction(1), 6, (3, 8, 0, 6), (9, 2, 6, 12))
    doc = certificate_json(certify(ctx, None, dec))
    assert (doc["c"], doc["c_prime"]) == (["1/2", "4/3", "0", "1"], ["3/2", "1/3", "1", "2"])
    assert (doc["c"], doc["c_prime"]) == ([str(v) for v in dec.c], [str(v) for v in dec.c_prime])


@pytest.mark.parametrize("g", (3, 7, 8, 9, 10, 23))
def test_certify_keeps_only_the_evidence_its_genus_uses(g):
    # classify gathers only that evidence; certify drops the rest of what it is given
    ctx = GenusCtx(g)
    rk, dec = uniruled_certificate(ctx), decompose_canonical(ctx, choose_d(ctx))
    cert = certify(ctx, rk, dec)
    assert cert == classify(ctx)
    if g <= MAX_RK_GENUS:
        assert (cert.rk, cert.decomposition) == (rk, None)
    else:
        assert (cert.rk, cert.decomposition) == (None, dec)


@pytest.mark.parametrize("g, missing", (
    (5, "no R . K evidence at genus 5"),
    (9, "no decomposition of the canonical class at genus 9"),
))
def test_certify_names_the_missing_evidence(g, missing):
    ctx = GenusCtx(g)
    # the evidence of the other genus range does not stand in for the missing one
    other = (None, decompose_canonical(ctx, choose_d(ctx))) if g <= MAX_RK_GENUS else (Fraction(-1), None)
    for rk, dec in ((None, None), other):
        assert _certify_failure(ctx, rk, dec) == missing


def test_verify_sees_an_off_by_one_evidence_predicate(monkeypatch):
    assert [g for g in range(3, 12) if kodaira._rk_is_evidence(g)] == list(range(3, MAX_RK_GENUS + 1))
    # `g < MAX_RK_GENUS` in the one comparison: certify then judges genus 7 by its
    # decomposition, whose nu is negative, and verify's kodaira section must fail
    monkeypatch.setattr(kodaira, "_rk_is_evidence", lambda g: g < MAX_RK_GENUS)
    failed = {c.name for c in run_genus(MAX_RK_GENUS) if not c.ok}
    assert failed and {name.partition(":")[0] for name in failed} == {"kodaira"}


# At g = 12 the slope bound is 295/42. With b0 = 1, c_1 = -3 + (3/2)*b_1 and
# c_i = -2 + (3/2)*b_i for i >= 2, so b_1 = 2 and b_i = 4/3 sit exactly on
# the remainder threshold.
_CTX12 = GenusCtx(12)
_THRESHOLD_B = (Fraction(2),) + (Fraction(4, 3),) * 5


def _threshold_spec(b):
    return DivisorSpec(_CTX12, UserSupplied("threshold"), a=Fraction(295, 42), b0=Fraction(1), b=b)


def test_divisor_on_the_remainder_threshold():
    spec = _threshold_spec(_THRESHOLD_B)
    dec = decompose_canonical(_CTX12, spec)
    assert dec.c == (0,) * 6
    assert dec.c_prime == (4,) * 6
    assert dec.remainders_nonnegative()
    cert = classify(_CTX12, spec)
    assert cert.verdict == GENERAL_TYPE and FLAG_CONDITIONAL not in cert.flags


@pytest.mark.parametrize("i", (1, 6))
def test_divisor_just_below_the_remainder_threshold(i):
    b = list(_THRESHOLD_B)
    b[i - 1] -= Fraction(1, 10**9)
    spec = _threshold_spec(tuple(b))
    assert not decompose_canonical(_CTX12, spec).remainders_nonnegative()
    with pytest.raises(VerificationFailureError, match="^negative boundary remainder at genus 12$"):
        classify(_CTX12, spec)
