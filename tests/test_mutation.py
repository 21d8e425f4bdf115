"""Single +1 perturbations of any constant must flip at least one verify check.

The constant families the engine rests on are the pushforward
multiplicities (`transfer._degree`, the one formula per stratum that
pushforward, R, the theta-null chain and the counts read by kind and
index), the even, odd and total
degrees of the covering, the stored curve intersection numbers and the
denominator a curve stores them over, the
theta-null coefficients, the canonical classes on both sides, the slot
forms that write K and theta (`catalog._CANONICAL_S_FORM` and
`catalog._THETANULL_FORM`, which the built classes and the decomposition
both read), the pullback rule (`transfer._PULLBACK`, which pullback and
the decomposition both read), the closed form of the vanishing-theta-null class, the label table that spells the
indexed basis labels, the coefficients of each genus's divisor D
where they are written, the default divisor's a and b0, the
Brill-Noether b_i, and the nu, c_i and c'_i of the canonical
decomposition, and each field of the certificate that `kodaira.certify`
makes of that evidence. Each case perturbs exactly one entry, written as
`original(ctx) + basis_class(ctx, side, label)` so that an entry stored
as zero is perturbed like any other, and asserts that the per-genus suite
reports a failure of a named identity: a `<section>:exception` check stands
for a crash, and a mutant caught only by a crash does not count as caught.
One paired perturbation, A_i + 1 with B_i - 1, keeps every sum identity of
the degrees, and must be caught all the same.
Divisor specs are perturbed on a copy that holds a perturbed class, past
their own validation, and the coefficient sources of D are the ones that
validation reads, so that only `verify` can catch them. The own D's di
numerators, which `catalog._own_d` writes in closed form, and a
decomposition's c_i or c'_i are each perturbed as a numerator plus its
denominator, and a certificate's c or c' list on the document that
`certificate_json` writes. A case that breaks the contract of a class
built past validation (`picard._trusted`) also asserts what the session's
check of those classes, in conftest.py, records of it.
"""

import copy
import inspect
import json
from fractions import Fraction

import pytest

import _sweep
from _checks import run_genus
from spinpic import catalog, cli, kodaira, picard, testcurves, transfer, verify
from spinpic.picard import DivisorClass, GenusCtx, M_SIDE, S_SIDE, basis_class, labels_for


def _failures(g):
    """The failed checks of genus g that name an identity, leaving out `<section>:exception`."""
    return [c for c in run_genus(g) if not c.ok and not c.name.endswith(":exception")]


@pytest.mark.parametrize("label", labels_for(GenusCtx(6), S_SIDE))
def test_perturbed_pushforward_degree_is_caught(label, monkeypatch):
    ctx, original = GenusCtx(6), transfer._degree
    # the label's kind and index: lambda, or a or b at i, with a0 and b0s at i = 0
    key = ("lambda", 0) if label == "lambda" else (label[0], 0 if label in ("a0", "b0s") else int(label[1:]))

    def bumped(g, kind, i):
        return original(g, kind, i) + ((kind, i) == key)

    image, want = "lambda" if label == "lambda" else f"d{key[1]}", transfer._degree(6, *key) + 1
    monkeypatch.setattr(transfer, "_degree", bumped)
    # pushforward maps the label to its (kind, i) and reads the perturbed degree
    assert dict(transfer.pushforward(basis_class(ctx, S_SIDE, label)).num) == {image: want}
    assert _failures(6), f"no check caught the perturbed multiplicity at {label}"


@pytest.mark.parametrize("i", (1, 2, 3))
def test_opposite_perturbations_of_a_i_and_b_i_are_caught(i, monkeypatch):
    # A_i + 1 and B_i - 1 keep A_i + B_i, where the i-dependent term
    # 2^i + 2^(g-i) cancels, so every counts identity and every projection
    # check holds; theta-null's pushforward still sees the moved degrees
    ctx, original = GenusCtx(6), transfer._degree

    def bumped(g, kind, k):  # lambda's index is 0, so only A_i and B_i move
        return original(g, kind, k) + (k == i) * (1 if kind == "a" else -1)

    monkeypatch.setattr(transfer, "_degree", bumped)
    pushed = {kind: dict(transfer.pushforward(basis_class(ctx, S_SIDE, f"{kind}{i}")).num) for kind in "ab"}
    assert pushed == {"a": {f"d{i}": original(6, "a", i) + 1}, "b": {f"d{i}": original(6, "b", i) - 1}}
    assert all(lhs == rhs for _, lhs, rhs in transfer.degree_identities(ctx))
    failed = {c.name for c in _failures(6)}
    assert not {name for name in failed if name.startswith("projection:")}
    assert "theta:pushforward" in failed


@pytest.mark.parametrize("name", ("even_component_degree", "odd_component_degree", "total_degree"))
@pytest.mark.parametrize("g", (3, 6, 9))
def test_perturbed_component_degree_is_caught(g, name, monkeypatch):
    original = getattr(transfer, name)
    monkeypatch.setattr(transfer, name, lambda genus: original(genus) + 1)
    assert _failures(g), f"no check caught the perturbed {name} at genus {g}"


@pytest.mark.parametrize("family,i,j", [("a", 2, 3), ("b", 0, 1), ("d", 1, 2)])
def test_misspelt_label_table_is_caught(family, i, j, monkeypatch):
    # two labels of one family trade places in the process-wide label table, in
    # the family's tuple by index and in its side's map label -> index, so
    # every engine module reads one consistent but wrong spelling
    labels = picard._LABELS
    spelled = list(getattr(labels, family))
    x, y = spelled[i], spelled[j]
    spelled[i], spelled[j] = y, x
    monkeypatch.setattr(labels, family, tuple(spelled))
    index = picard._M if family == "d" else picard._S
    monkeypatch.setitem(index, x, j)
    monkeypatch.setitem(index, y, i)
    assert _failures(6), f"no check caught {family}[{i}] and {family}[{j}] trading spellings"


_CTX5 = GenusCtx(5)
_CURVE_CASES = [
    (name, label)
    for name, c in testcurves.curve_map(_CTX5).items()
    for label in labels_for(_CTX5, c.side)
]


@pytest.mark.parametrize("name,label", _CURVE_CASES)
def test_perturbed_curve_entry_is_caught(name, label, monkeypatch):
    original = testcurves.curve_map

    def bumped(ctx):
        curves = original(ctx)
        curves[name] += basis_class(ctx, curves[name].side, label)
        return curves

    monkeypatch.setattr(testcurves, "curve_map", bumped)
    assert _failures(5), f"no check caught the perturbed entry {name}.{label}"


@pytest.mark.parametrize("name", ("F1", "G1"))
def test_a_curve_stored_over_den_2_is_caught(name, monkeypatch, capsys, trusted_record):
    # F1 and G1 are 0 (2 - 2i at i = 1), so over den 2 they store no entry, and only the den differs
    original = testcurves.curve_map

    def over_2(ctx):
        curves = original(ctx)
        curves[name] = picard._trusted(ctx, S_SIDE, {}, 2)
        return curves

    monkeypatch.setattr(testcurves, "curve_map", over_2)
    assert [(c.name, c.expected, c.got) for c in _failures(5)] == [
        (f"curves:table:{name}", "{side=S}", "{den=2, side=S}")]
    assert cli.run(["verify", "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert [(f["check-name"], f["genus"]) for f in report["failures"]] == [
        (f"curves:table:{name}", g) for g in range(3, 23)]
    # and Tier-1's check of each trusted class sees the den that gcd(den, *num) = 1 forbids, at every genus built
    assert set(trusted_record) == {(g, S_SIDE, "gcd 2") for g in range(3, 23)}


def test_a_kernel_that_skips_its_gcd_at_den_2_is_reported(monkeypatch, trusted_record):
    # the kernel's `den != 1` changed to `den != 2`: no class that verify builds over 3..22 needs that gcd, so
    # verify passes it, and Tier-1's check of each trusted class reports the first class that does
    source = inspect.getsource(picard._sum_terms)
    mutant = source.replace("if den != 1 and", "if den != 2 and")
    assert mutant != source
    built = {}
    exec(mutant, vars(picard), built)  # defined over picard's globals, so it calls picard's _trusted
    for module in (picard, kodaira, testcurves, transfer, verify):
        if hasattr(module, "_sum_terms"):
            monkeypatch.setattr(module, "_sum_terms", built["_sum_terms"])
    x = picard.parse_class("1/2*d1 + 3/2*d1", GenusCtx(9), M_SIDE)
    assert (dict(x.num), x.den) == ({"d1": 4}, 2)
    assert trusted_record == [(9, M_SIDE, "gcd 2")]


@pytest.mark.parametrize("label", labels_for(GenusCtx(5), S_SIDE))
def test_perturbed_thetanull_coefficient_is_caught(label, monkeypatch):
    original = catalog.thetanull_class
    monkeypatch.setattr(
        catalog, "thetanull_class", lambda ctx: original(ctx) + basis_class(ctx, S_SIDE, label)
    )
    assert _failures(5), f"no check caught the perturbed theta coefficient at {label}"


_SLOT_FORM_CASES = [
    (name, g, k)
    for name in ("_CANONICAL_S_FORM", "_THETANULL_FORM")
    for g in (6, 12)  # h >= 2, so the forms' (ai, bi) run is stored
    for k in range(8)
]


@pytest.mark.parametrize("name,g,k", _SLOT_FORM_CASES)
def test_perturbed_slot_form_entry_is_caught(name, g, k, monkeypatch, trusted_record):
    # entry k of (den, lambda, a0, b0s, a1, b1, ai, bi); the built class and the decomposition both read it
    form = list(getattr(catalog, name))
    form[k] += 1
    monkeypatch.setattr(catalog, name, tuple(form))
    assert _failures(g), f"no check caught +1 on entry {k} of {name} at genus {g}"
    # theta's a0 numerator, -1, raised to 0 leaves 4 and -8 over 16: a class out of lowest terms, which
    # Tier-1's check of each trusted class records; every other entry keeps the form's classes in lowest terms
    assert set(trusted_record) == ({(g, S_SIDE, "gcd 4")} if (name, k) == ("_THETANULL_FORM", 2) else set())


@pytest.mark.parametrize("k", range(5))
def test_perturbed_pullback_rule_is_caught(k, monkeypatch, trusted_record):
    # the multiplicity of lambda on lambda, of d0 on a0 and b0s, or of di on ai and bi
    rule = list(transfer._PULLBACK)
    rule[k] += 1
    monkeypatch.setattr(transfer, "_PULLBACK", tuple(rule))
    assert _failures(9), f"no check caught +1 on entry {k} of the pullback rule"
    # pullback keeps each numerator once, on a label of multiplicity 1, which keeps gcd(den, *num) = 1; with
    # d0's multiplicity on a0 raised to 2, lift's fuzz class, odd only at d0, pulls back out of lowest terms
    assert set(trusted_record) == ({(9, S_SIDE, "gcd 2")} if k == 1 else set())


_NAMED_CLASS_CASES = [
    (attr, side, g, label)
    for attr, side in (("canonical_m", M_SIDE), ("canonical_s", S_SIDE), ("m1_theta_class", M_SIDE))
    for g in (5, 6)
    for label in labels_for(GenusCtx(g), side)
]


@pytest.mark.parametrize("attr,side,g,label", _NAMED_CLASS_CASES)
def test_perturbed_named_class_coefficient_is_caught(attr, side, g, label, monkeypatch):
    original = getattr(catalog, attr)
    monkeypatch.setattr(catalog, attr, lambda ctx: original(ctx) + basis_class(ctx, side, label))
    assert _failures(g), f"no check caught the perturbed {attr} coefficient at {label}, genus {g}"


@pytest.mark.parametrize("g,label", [(g, label) for g in (6, 9) for label in labels_for(GenusCtx(g), M_SIDE)])
def test_perturbed_m1_coefficient_fails_the_pushforward_and_the_solve(g, label, monkeypatch):
    # the theta-null chain reads every row of pi_*theta = m1 but d1, which it leaves over
    original = catalog.m1_theta_class
    monkeypatch.setattr(catalog, "m1_theta_class", lambda ctx: original(ctx) + basis_class(ctx, M_SIDE, label))
    failed = {c.name for c in _failures(g)}
    assert "theta:pushforward" in failed
    assert ("solve:thetanull" in failed) == (label != "d1")


def _perturbed(value, **fields):
    """A copy of value with fields replaced; a divisor spec's a, b0 or b go into the class it holds."""
    out = copy.copy(value)
    if isinstance(value, catalog.DivisorSpec):
        a, b0, b = (fields.get(name, getattr(value, name)) for name in ("a", "b0", "b"))
        coeff = {"lambda": a, "d0": -b0, **{f"d{i}": -v for i, v in enumerate(b or (), 1)}}
        fields = {"divisor": DivisorClass(value.ctx, M_SIDE, coeff)}
    for name, v in fields.items():
        object.__setattr__(out, name, v)
    return out


_SWEEP = range(3, 23)


def _bump_d_source(monkeypatch, field):
    """Raise a or b0 of each genus's own D by 1 where they are written: catalog._rule.

    choose_d and DivisorSpec's check of a named provenance both read _rule,
    through _own_d, so the bumped D passes its own validation.
    """
    i = ("a", "b0").index(field) + 1
    original = catalog._rule

    def bumped(genus):
        rule = original(genus)
        return rule[:i] + (rule[i] + 1,) + rule[i + 1:]

    monkeypatch.setattr(catalog, "_rule", bumped)


def _assert_slope_bound_caught(g):
    # the slope of D is the genus's bound; verify's private slope table is the oracle
    failed = {c.name for c in _failures(g)}
    assert "kodaira:nu-from-slope" in failed, f"the perturbed slope of D at genus {g} was not caught"


@pytest.mark.parametrize("g", _SWEEP)
def test_perturbed_slope_bound_is_caught(g, monkeypatch):
    before = catalog.choose_d(GenusCtx(g))
    _bump_d_source(monkeypatch, "a")
    assert catalog.choose_d(GenusCtx(g)).a == before.a + 1
    _assert_slope_bound_caught(g)


_GIESEKER_PETRI_GENERA = [g for g in _SWEEP if g != 10 and all((g + 1) % p for p in range(2, g + 1))]


@pytest.mark.parametrize("g", _GIESEKER_PETRI_GENERA)
def test_perturbed_gieseker_petri_b0_is_caught(g, monkeypatch):
    before = catalog.choose_d(GenusCtx(g))
    _bump_d_source(monkeypatch, "b0")
    assert catalog.choose_d(GenusCtx(g)).b0 == before.b0 + 1
    _assert_slope_bound_caught(g)


@pytest.mark.parametrize("field", ("a", "b0"))
@pytest.mark.parametrize("g", _SWEEP)
def test_perturbed_default_divisor_is_caught(g, field, monkeypatch):
    original = catalog.choose_d

    def bumped(ctx, user=None):
        spec = original(ctx, user)
        return spec if user is not None else _perturbed(spec, **{field: getattr(spec, field) + 1})

    monkeypatch.setattr(catalog, "choose_d", bumped)
    assert _failures(g), f"no check caught the perturbed default {field} at genus {g}"


_BN_CASES = [(g, i) for g in (5, 9, 11, 14) for i in range(1, GenusCtx(g).h + 1)]


@pytest.mark.parametrize("g,i", _BN_CASES)
def test_perturbed_bn_coefficient_is_caught(g, i, monkeypatch):
    original = catalog.bn_class

    def bumped(ctx):
        spec = original(ctx)[1]
        b = list(spec.b)
        b[i - 1] += 1
        spec = _perturbed(spec, b=tuple(b))
        return catalog.divisor_class(spec), spec

    monkeypatch.setattr(catalog, "bn_class", bumped)
    assert _failures(g), f"no check caught the perturbed b_{i} at genus {g}"


_OWN_D_CASES = [(g, i) for g in (9, 11, 14) for i in range(1, GenusCtx(g).h + 1)]


@pytest.mark.parametrize("g,i", _OWN_D_CASES)
def test_perturbed_own_d_numerator_is_caught(g, i, monkeypatch):
    # _own_d writes D's numerators in closed form, past the constructor: den more
    # on the di numerator raises that coefficient by 1 and keeps lowest terms
    original = catalog._own_d

    def bumped(ctx):
        spec = original(ctx)
        d = spec.divisor
        num = {**d.num, f"d{i}": d.num[f"d{i}"] + d.den}
        out = object.__new__(catalog.DivisorSpec)  # as _own_d builds it: a copy would validate against _own_d
        out._init(ctx=spec.ctx, provenance=spec.provenance, divisor=picard._trusted(d.ctx, d.side, num, d.den))
        return out

    monkeypatch.setattr(catalog, "_own_d", bumped)
    ctx = GenusCtx(g)
    assert catalog.choose_d(ctx).divisor[f"d{i}"] == original(ctx).divisor[f"d{i}"] + 1
    assert _failures(g), f"no check caught the perturbed d{i} numerator of the own D at genus {g}"


def test_shifted_divisor_class_index_is_caught(monkeypatch):
    # divisor_class reading b_{i-1} for d_i (b_h for d1), as spec.b[i - 2] would; the spec stays true
    original = catalog.divisor_class

    def shifted(spec):
        return original(_perturbed(spec, b=spec.b[-1:] + spec.b[:-1]))

    monkeypatch.setattr(catalog, "divisor_class", shifted)
    assert "bn:ratio-d1" in {c.name for c in _failures(9)}


def test_ratio_bound_d1_guards_c1(monkeypatch):
    # c_1 = -3 + (3/2)*b_1/b0 needs b_1/b0 >= 2; 3/2 clears the 4/3 bound of i >= 2
    original = catalog.bn_class

    def weakened(ctx):
        cls, spec = original(ctx)
        return cls, _perturbed(spec, b=(Fraction(3, 2) * spec.b0,) + spec.b[1:])

    monkeypatch.setattr(catalog, "bn_class", weakened)
    checks = {c.name: c.ok for c in run_genus(9)}
    assert checks["bn:ratio-bound-d1"] is False
    assert all(checks[f"bn:ratio-bound-d{i}"] for i in range(2, GenusCtx(9).h + 1))


_DECOMPOSITION_CASES = [
    (g, field, i)
    for g in (8, 9, 11, 14, 20)
    for field, i in [("nu", None)] + [(f, i) for f in ("c", "c_prime") for i in range(1, GenusCtx(g).h + 1)]
]


@pytest.mark.parametrize("g,field,i", _DECOMPOSITION_CASES)
def test_perturbed_decomposition_is_caught(g, field, i, monkeypatch):
    original = kodaira.decompose_canonical

    def bumped(ctx, spec):
        dec = original(ctx, spec)
        fields = dict(zip(dec.__match_args__, dec._values()))
        if field == "nu":
            fields["nu"] += 1
        else:  # c_i + 1 is its numerator plus den, the decomposition's lcm denominator, reduced or not
            num = list(fields[f"{field}_num"])
            num[i - 1] += dec.den
            fields[f"{field}_num"] = tuple(num)
        return kodaira.Decomposition(**fields)

    monkeypatch.setattr(kodaira, "decompose_canonical", bumped)
    assert _failures(g), f"no check caught +1 on {field} (i = {i}) at genus {g}"


def _drop_flag(flag):
    return lambda cert: _perturbed(cert, flags=tuple(f for f in cert.flags if f != flag))


def _add_flag(flag):
    return lambda cert: _perturbed(cert, flags=cert.flags + (flag,))


def _trailing_zero(key):
    # c and c' are written by certificate_json alone, so the extra entry goes on its list
    return lambda doc: {**doc, key: doc[key] + ["0"]}


# (genus, the function whose result changes, the change, the check that must
# catch it); each flag is dropped and added at the edge of the genera that carry it
_CERTIFICATE_CASES = {
    "drop FORMAL_BASIS": (4, "certify", _drop_flag(kodaira.FLAG_FORMAL_BASIS), "kodaira:flags"),
    "add FORMAL_BASIS": (5, "certify", _add_flag(kodaira.FLAG_FORMAL_BASIS), "kodaira:flags"),
    "drop CONDITIONAL": (10, "certify", _drop_flag(kodaira.FLAG_CONDITIONAL), "kodaira:flags"),
    "add CONDITIONAL": (9, "certify", _add_flag(kodaira.FLAG_CONDITIONAL), "kodaira:flags"),
    "drop EXTRAPOLATED": (23, "certify", _drop_flag(kodaira.FLAG_EXTRAPOLATED), "kodaira:flags"),
    "add EXTRAPOLATED": (22, "certify", _add_flag(kodaira.FLAG_EXTRAPOLATED), "kodaira:flags"),
    "UNIRULED to KAPPA_NONNEGATIVE": (7, "certify", lambda cert: _perturbed(cert, verdict=kodaira.KAPPA_NONNEGATIVE),
                                      "kodaira:verdict"),
    "KAPPA_NONNEGATIVE to GENERAL_TYPE": (8, "certify", lambda cert: _perturbed(cert, verdict=kodaira.GENERAL_TYPE),
                                          "kodaira:verdict"),
    "GENERAL_TYPE to UNIRULED": (9, "certify", lambda cert: _perturbed(cert, verdict=kodaira.UNIRULED),
                                 "kodaira:verdict"),
    "clear rk": (7, "certify", lambda cert: _perturbed(cert, rk=None), "kodaira:rk"),
    "set rk": (8, "certify", lambda cert: _perturbed(cert, rk=Fraction(-1)), "kodaira:rk"),
    "trailing c": (9, "certificate_json", _trailing_zero("c"), "kodaira:c"),
    "trailing c_prime": (9, "certificate_json", _trailing_zero("c_prime"), "kodaira:c-prime"),
}


@pytest.mark.parametrize("g,target,change,check", _CERTIFICATE_CASES.values(), ids=_CERTIFICATE_CASES)
def test_perturbed_certificate_is_caught(g, target, change, check, monkeypatch):
    original, changed = getattr(kodaira, target), []
    # a certificate is compared by its JSON document, which is what verify reads
    as_json = kodaira.certificate_json if target == "certify" else (lambda doc: doc)

    def perturbed(*args):
        before = original(*args)
        out = change(before)
        changed.append(as_json(out) != as_json(before))
        return out

    monkeypatch.setattr(kodaira, target, perturbed)
    failed = {c.name for c in run_genus(g) if not c.ok}
    assert changed == [True], "the perturbation left the certificate as it was"
    # a perturbed certificate must leave verify running: no section may crash on it
    assert check in failed and not any(name.endswith(":exception") for name in failed), failed


def test_unperturbed_suite_is_clean():
    assert _failures(5) == []
    assert _failures(6) == []


# catalog's closed form of the curve-side canonical class, which the tests below give a slice past dh
_CANONICAL_M = """
def canonical_m(ctx):
    d = _LABELS.d
    num = {"lambda": 13, d[0]: -2, d[1]: -3}
    num.update(dict.fromkeys(d[2:ctx.h + 1], -2))
    return _trusted(ctx, M_SIDE, num, 1)
"""

_OVERRUN_PROBE = f"""
from spinpic import catalog, verify
from spinpic.picard import M_SIDE, _LABELS, _trusted
{_CANONICAL_M}
catalog.canonical_m = canonical_m
report = verify.build_report(3, 22)
print(report["status"], *sorted({{f["check-name"] for f in report["failures"]}}))
"""


def test_an_overrun_slice_is_caught_on_a_first_sweep_upward():
    # A fresh process sweeps upward from its first genus. picard's label table
    # runs one index past the largest basis from import on, so at every genus
    # a slice past dh stores a label outside the basis, whatever the process
    # visited before, and the checks in place fail
    probe = _OVERRUN_PROBE.replace("ctx.h + 1]", "ctx.h + 3]")
    assert probe != _OVERRUN_PROBE
    assert _sweep.child("-c", probe) == "FAIL canonical:splitting roundtrip:canonical-m\n"
    # the same closed form without the overrun is clean
    assert _sweep.child("-c", _OVERRUN_PROBE) == "OK\n"


def test_the_cli_refuses_to_print_an_overrun_class(monkeypatch, capsys, trusted_record):
    # overrun by one, the closed form stores d5 at g = 9 (h = 4); render_class
    # walks the basis, so it would print the class without d5, byte for byte
    # as the correct one, and instead it refuses the class as the engine's
    # fault: exit 1 and FAIL, not the exit 2 of an input error
    assert cli.run(["class", "canonical-m", "-g", "9"]) == 0
    assert capsys.readouterr().out == "13*lambda - 2*d0 - 3*d1 - 2*d2 - 2*d3 - 2*d4\n"
    built = {}
    exec(_CANONICAL_M.replace("ctx.h + 1]", "ctx.h + 2]"), vars(catalog), built)  # over catalog's _trusted
    monkeypatch.setattr(catalog, "canonical_m", built["canonical_m"])
    assert cli.run(["class", "canonical-m", "-g", "9"]) == 1
    assert capsys.readouterr() == (
        "", "FAIL: label 'd5' is not in the side-M basis at genus 9 (basis: lambda, d0, d1, d2, d3, d4)\n")
    assert trusted_record == [(9, M_SIDE, "label 'd5'")]
