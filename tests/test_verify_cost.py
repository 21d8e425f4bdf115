"""The work shape of `verify`, pinned by counts rather than wall time.

The report counts each genus's stream of identities and builds no `Check`
for it. The Theta(h^2) `compat` block of F_i/G_i pairings is evaluated
per row: one row family per i pairs both curves with every pi*d_j at once,
so the report's `intersect` calls grow linearly in h, while `run_genus`
still lists all 2h(h+1) identities in the dense order. A passing genus
renders no check value, pulls back each basis class a number of times
that grows linearly in h (the block reuses one pullback per d_j), and
takes every use of the curve table
through `testcurves.curve_map`, which builds the table on every call. A
failing genus renders its failure records exactly as the eager renderer
did, counts as many checks in the report as `run_genus` lists, and keeps
the identities a crashed section yielded before it raised. A patched
covering degree (`transfer._degree`) reaches R, also after an unpatched
run of the same genus, and undoing the patch leaves no stale R behind.
`pushforward` calls no component degree, and a patched component degree
leaves nothing stale behind once the patch is undone. A
certificate builds the class of its auxiliary divisor once, when it builds
the divisor, and pulls back no class. A genus
builds each named class and each basis-class pullback once and shares it
across its sections, and the class parser builds one Fraction per label,
not per term. Classes and curves are checked for a common genus by
comparing ctx.g, so no check costs a GenusCtx.__eq__ call, also on a
second run of a genus. A certificate builds no Fraction per basis label:
from one genus to a higher one, its count does not grow, with or without
the b_i of a Brill-Noether D. A passing report gets no identity from a
compat row, the curve tables build no Fraction, and the Brill-Noether
ratios build two per i. A decomposition with a slope-only D reads only
D's lambda and d0 numerators and no label sequence, at any genus. A
certificate calls neither canonical_s nor thetanull_class nor the class
kernel in kodaira and builds no spin-side class: reading its remainder is
the one way to build that class. A complete D's di numerators are read by
one positional pass, with no lookup by label. Since c'_i - c_i is a
multiple of the denominator, a certificate takes one gcd per i and writes
both its c and c' lists by one call of the p/q writer; under a pullback
rule that proves nothing, one call per list. The kodaira section
certifies the evidence it computed itself: it picks D, pairs R with K and
decomposes K once each, hands them to one certify call, which applies the
sign rules, and never calls classify.
"""

import copy
import re
import sys
from collections import Counter
from fractions import Fraction
from types import MappingProxyType, SimpleNamespace

import pytest

from spinpic import catalog, kodaira, picard, testcurves, transfer, verify
from spinpic.picard import GenusCtx, M_SIDE, S_SIDE, basis_class, labels_for, parse_class


def _counting(monkeypatch, module, name):
    original = getattr(module, name)
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(sys._getframe(1).f_code.co_name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_passing_report_renders_nothing(monkeypatch):
    calls = _counting(monkeypatch, verify, "_fmt")
    report = verify.build_report(30, 30)
    assert report["status"] == "OK"
    assert report["payload"]["total-checks"] > 0
    assert calls == []


def test_report_builds_no_check(monkeypatch):
    built = _counting(monkeypatch, verify, "Check")
    report = verify.build_report(30, 30)
    assert report["status"] == "OK"
    assert report["payload"]["total-checks"] > 0
    assert built == []


def _bump_h0(original):
    def bumped(ctx):
        curves = original(ctx)
        curves["H0"] += basis_class(ctx, S_SIDE, "a1")
        return curves

    return bumped


def _drop_g2(original):
    def dropped(ctx):
        curves = original(ctx)
        del curves["G2"]
        return curves

    return dropped


def _bump_lambda_slot(by):
    # a slot form's numerators are over its first entry, so `by` more lambda is `by` times it
    return lambda form: (form[0], form[1] + by * form[0], *form[2:])


def _bump_lambda_degree(original):
    return lambda g, kind, i: original(g, kind, i) + (kind == "lambda")


def _record(name, g, expected, got):
    return {"check-name": name, "genus": g, "expected": expected, "got": got}


# Rendered by the eager renderer, which formatted every value as its check
# was recorded; the report, which renders only failures, must reproduce them
# byte for byte. The patched covering
# degree must reach pushforward and R (curves:table:R, lift), and the theta-null chain,
# which reads lambda's degree by (kind, i) from _degree (solve:thetanull). theta and K are built
# from their slot forms, and nu is read off the forms' lambda slots, so a lambda added to theta's
# or K's form fails kodaira:nu-from-slope as well as the checks of the built class.
_MUTATIONS = [
    (transfer, "_degree", _bump_lambda_degree, 6, [
        _record("projection:lambda", 6, "2080*lambda", "2081*lambda"),
        _record("projection:fuzz", 6, "7150*lambda - 17680*d0 - 95680*d1 - 5616*d2 + 2340*d3",
                "114455/16*lambda - 17680*d0 - 95680*d1 - 5616*d2 + 2340*d3"),
        _record("projection:matrix-product", 6, "true", "false"),
        _record("theta:pushforward", 6, "520*lambda - 64*d0 - 248*d1 - 360*d2 - 392*d3",
                "2081/4*lambda - 64*d0 - 248*d1 - 360*d2 - 392*d3"),
        _record("curves:table:R", 6, "{a0=55296, b0s=28512, lambda=14560, side=S}",
                "{a0=55296, b0s=28512, lambda=14567, side=S}"),
        _record("lift:lambda", 6, "14560", "14567"),
        _record("lift:fuzz", 6, "1294800", "2589657/2"),
        _record("solve:thetanull", 6, "1/4*lambda - 1/16*a0 - 1/2*b1 - 1/2*b2 - 1/2*b3",
                "520/2081*lambda - 6371/101969*a0 - 4/101969*b0s - 20/101969*a1 - 50972/101969*b1 - 1/2*b2 - 1/2*b3"),
    ]),
    (testcurves, "curve_map", _bump_h0, 6, [
        _record("curves:table:H0", 6, "{a1=1, b0s=-5, side=S}", "{a1=2, b0s=-5, side=S}"),
        _record("compat:H0:d1", 6, "1", "2"),
    ]),
    (testcurves, "curve_map", _drop_g2, 6, [
        _record("curves:names", 6, "(B, F0, F1, F2, F3, G0, G1, G2, G3, H0, R)",
                "(B, F0, F1, F2, F3, G0, G1, G3, H0, R)"),
        _record("curves:table:G2", 6, "{b2=-2, side=S}", "missing"),
        _record("pairings:exception", 6, "no exception", "KeyError: 'G2'"),
        _record("compat:exception", 6, "no exception", "KeyError: 'G2'"),
    ]),
    (catalog, "_THETANULL_FORM", _bump_lambda_slot(1), 6, [
        _record("theta:pushforward", 6, "520*lambda - 64*d0 - 248*d1 - 360*d2 - 392*d3",
                "2600*lambda - 64*d0 - 248*d1 - 360*d2 - 392*d3"),
        _record("pairing:F0*theta", 6, "0", "1"),
        _record("pairing:G0*theta", 6, "0", "3"),
        _record("solve:thetanull", 6, "5/4*lambda - 1/16*a0 - 1/2*b1 - 1/2*b2 - 1/2*b3",
                "1/4*lambda - 1/16*a0 - 1/2*b1 - 1/2*b2 - 1/2*b3"),
        _record("kodaira:nu-from-slope", 6, "-3/4", "-35/4"),
    ]),
    (catalog, "_CANONICAL_S_FORM", _bump_lambda_slot(10**6), 5, [
        _record("canonical:splitting", 5, "b0s", "1000000*lambda + b0s"),
        _record("kodaira:rk-sign", 5, "true", "false"),
        _record("kodaira:nu-from-slope", 5, "-1", "999999"),
        _record("kodaira:exception", 5, "no exception",
                "VerificationFailureError: R . K = 3167997024 is not negative at genus 5"),
    ]),
]


def test_failure_records_render_as_before(monkeypatch):
    for module, name, mutate, g, want in _MUTATIONS:
        assert verify.build_report(g, g)["status"] == "OK"  # caches warm, unpatched
        with monkeypatch.context() as m:
            m.setattr(module, name, mutate(getattr(module, name)))
            report = verify.build_report(g, g)
            checks = verify.run_genus(g)
        assert report["status"] == "FAIL"
        assert report["failures"] == want
        # the report counts the same stream that run_genus lists
        assert report["payload"]["total-checks"] == len(checks)
        if mutate is _drop_g2:
            # a crashed section keeps the identities it yielded before the crash
            names = [c.name for c in checks]
            crash = names.index("pairings:exception")
            assert names[crash - 6:crash] == [
                f"pairing:{curve}*theta" for curve in ("F0", "G0", "H0", "F1", "G1", "F2")
            ]


def _pullbacks(monkeypatch, g):
    with monkeypatch.context() as m:
        calls = _counting(m, transfer, "pullback")
        verify.run_genus(g)
    return len(calls)


def test_pullbacks_grow_linearly_in_h(monkeypatch):
    # linear a*h + b with b >= 0 at most doubles from h = 20 to h = 40;
    # one pullback per (i, j) of the compat block would nearly quadruple
    at_40, at_80 = _pullbacks(monkeypatch, 40), _pullbacks(monkeypatch, 80)
    assert at_40 < at_80 <= 2 * at_40


def _report_intersections(monkeypatch, g):
    with monkeypatch.context() as m:
        calls = _counting(m, testcurves, "intersect")
        assert verify.build_report(g, g)["status"] == "OK"
    return len(calls)


def test_report_intersections_grow_linearly_in_h(monkeypatch):
    # linear a*h + b with b >= 0 at most doubles from h = 40 to h = 80;
    # one intersect per (i, j) of the compat block would nearly quadruple
    at_80, at_160 = _report_intersections(monkeypatch, 80), _report_intersections(monkeypatch, 160)
    assert at_80 < at_160 <= 2 * at_80


def test_run_genus_lists_the_whole_compat_block_in_dense_order():
    h = GenusCtx(13).h
    names = [c.name for c in verify.run_genus(13)]
    block = [n for n in names if re.fullmatch(r"compat:[FG][1-9]\d*:d\d+", n)]
    assert block == [
        f"compat:{kind}{i}:d{j}" for i in range(1, h + 1) for j in range(h + 1) for kind in "FG"
    ]
    start = names.index(block[0])
    assert names[start:start + len(block)] == block


def test_every_curve_table_use_goes_through_curve_map(monkeypatch):
    callers = _counting(monkeypatch, testcurves, "curve_map")
    verify.run_genus(9)
    # every use goes through the module attribute, so patches reach it
    assert set(callers) == {"_identities", "solve_thetanull"}


def test_r_alone_is_built_by_covering_curve(monkeypatch):
    # kodaira's R . K pairs R alone, with no curve table built for it
    callers = _counting(monkeypatch, testcurves, "covering_curve")
    verify.run_genus(9)
    assert set(callers) == {"curve_map", "uniruled_certificate"}


def _bump_even_degree(original):
    return lambda g: original(g) + 1


def test_a_patched_degree_table_reaches_a_warm_curve_table(monkeypatch):
    # R's lambda entry reads its covering degree from _degree by (kind, i)
    assert all(c.ok for c in verify.run_genus(6))  # an unpatched run of the same genus first
    with monkeypatch.context() as m:
        m.setattr(transfer, "_degree", _bump_lambda_degree(transfer._degree))
        failed = {c.name for c in verify.run_genus(6) if not c.ok}
    # verify's private curve table holds R's lambda entry at the true degree
    assert "curves:table:R" in failed


def test_undoing_a_degree_table_patch_leaves_no_stale_curve_table(monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(transfer, "_degree", _bump_lambda_degree(transfer._degree))
        assert not all(c.ok for c in verify.run_genus(6))
    assert [c.name for c in verify.run_genus(6) if not c.ok] == []
    assert testcurves.curve_map(GenusCtx(6))["R"]["lambda"] == 14560


def test_pushforward_calls_no_component_degree(monkeypatch):
    callers = {name: _counting(monkeypatch, transfer, name)
               for name in ("even_component_degree", "odd_component_degree", "total_degree")}
    pushed = _counting(monkeypatch, transfer, "pushforward")
    assert verify.build_report(30, 30)["status"] == "OK"
    # pushforward reads every degree off transfer._degree, so only the code
    # that checks the degrees against the component degrees calls them
    assert len(pushed) > 2 * GenusCtx(30).h + 3  # at least one per spin basis class
    assert {name: set(calls) for name, calls in callers.items()} == {
        "even_component_degree": {"_identities", "degree_identities"},
        "odd_component_degree": {"degree_identities"},
        "total_degree": {"degree_identities"},
    }


def test_a_component_degree_patched_at_a_cold_genus_leaves_no_stale_table(monkeypatch):
    # the covering degrees are computed from transfer's private E, so a patch
    # of the public degree reaches only the identities that check them
    with monkeypatch.context() as m:
        m.setattr(transfer, "even_component_degree", _bump_even_degree(transfer.even_component_degree))
        assert not all(c.ok for c in verify.run_genus(7))
    assert [c.name for c in verify.run_genus(7) if not c.ok] == []


@pytest.mark.parametrize("g", (9, 14, 699, 999))
def test_certificate_builds_the_divisor_class_once(g, monkeypatch):
    # composite g+1: _own_d writes the Brill-Noether D's class once, in closed
    # form, and the decomposition reads that very class's numerators through
    # the pullback rule; neither the certificate nor its document calls the
    # kernel, pulls a class back or runs the validating constructor
    sums = [_counting(monkeypatch, module, "_sum_terms") for module in (picard, testcurves, transfer, verify)]
    pulled = _counting(monkeypatch, transfer, "pullback")
    validated = _counting(monkeypatch, picard.DivisorClass, "__post_init__")
    owns = _counting(monkeypatch, catalog, "_own_d")
    cert = kodaira.classify(GenusCtx(g))
    doc = kodaira.certificate_json(cert)
    assert cert.verdict == kodaira.GENERAL_TYPE and cert.decomposition.d_spec.complete
    assert len(doc["c"]) == len(doc["c_prime"]) == GenusCtx(g).h
    assert sums == [[], [], [], []] and pulled == [] and validated == [] and owns == ["choose_d"]


_NAMED_BUILDERS = ("canonical_m", "canonical_s", "thetanull_class", "m1_theta_class")


def test_named_classes_are_built_once_per_genus(monkeypatch):
    callers = {name: _counting(monkeypatch, catalog, name) for name in _NAMED_BUILDERS}
    verify.run_genus(40)
    # kodaira builds its own copies, and solve_thetanull its own m1; verify's sections share one each
    from_identities = {name: calls.count("_identities") for name, calls in callers.items()}
    assert from_identities == dict.fromkeys(_NAMED_BUILDERS, 1)
    callers_seen = {caller for calls in callers.values() for caller in calls}
    assert callers_seen <= {"_identities", "decompose_canonical", "uniruled_certificate", "solve_thetanull"}
    assert callers["m1_theta_class"].count("solve_thetanull") == 1


def test_each_basis_class_is_pulled_back_once(monkeypatch):
    ctx = GenusCtx(40)
    original, pulled = transfer.pullback, Counter()

    def counting(x):
        pulled[str(x)] += 1
        return original(x)

    monkeypatch.setattr(transfer, "pullback", counting)
    verify.run_genus(40)
    # a basis class renders as its bare label
    assert [pulled[label] for label in labels_for(ctx, M_SIDE)] == [1] * (ctx.h + 2)


def _fraction_constructions(monkeypatch, fn, within=None):
    """fn() and the number of Fractions it builds, also those that arithmetic builds directly.

    With within, a function name, only those built while a function of that
    name runs count.
    """
    built = []
    new = Fraction.__new__

    def record(cls):
        frame = sys._getframe(2)
        while within is not None and frame is not None and frame.f_code.co_name != within:
            frame = frame.f_back
        if frame is not None:
            built.append(cls)

    def counting_new(cls, *args, **kwargs):
        record(cls)
        return new(cls, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(Fraction, "__new__", counting_new)
        if "_from_coprime_ints" in vars(Fraction):  # Python 3.12+ arithmetic bypasses __new__
            coprime = vars(Fraction)["_from_coprime_ints"].__func__

            def counting_coprime(cls, n, d):
                record(cls)
                return coprime(cls, n, d)

            m.setattr(Fraction, "_from_coprime_ints", classmethod(counting_coprime))
        result = fn()
    return result, len(built)


def _section_fractions(monkeypatch, g, section):
    # each verify section is a function of _identities named after it
    report, built = _fraction_constructions(monkeypatch, lambda: verify.build_report(g, g), within=section)
    assert report["status"] == "OK"
    return built


def test_curve_tables_and_ratios_build_few_fractions(monkeypatch):
    # the curve tables compare as integers, so a table over den 1 builds none
    assert [_section_fractions(monkeypatch, g, "curve_tables") for g in (40, 80)] == [0, 0]
    # g + 1 = 41 is prime, so genus 40 runs no Brill-Noether check; at genus 80
    # bn:ratio-d{i} builds its expected ratio and the class's, one Fraction from
    # two numerators, and bn:ratio-bound-d{i} none: two per i, and five for bn_class,
    # bn:slope and bn:lambda
    at_40, at_80 = (_section_fractions(monkeypatch, g, "brill_noether") for g in (40, 80))
    assert at_40 == 0 and at_80 <= 2 * GenusCtx(80).h + 5
    # between two genera that both run it, the section grows by two per i
    at_39, at_79 = (_section_fractions(monkeypatch, g, "brill_noether") for g in (39, 79))
    assert at_79 - at_39 <= 2 * (GenusCtx(79).h - GenusCtx(39).h)


def test_pairings_build_no_fraction(monkeypatch):
    # theta is stored over 16, and each pairing:G{i}*theta sums to a multiple of
    # that den, so intersect returns its int quotient and builds no Fraction
    assert [_section_fractions(monkeypatch, g, "pairings") for g in (39, 79)] == [0, 0]


@pytest.mark.parametrize("section", ("classification", "pullback_compat", "lift"))
def test_sections_build_as_many_fractions_at_any_genus(section, monkeypatch):
    # intersect pairs classes over den 1 to ints, and the kodaira section writes c
    # and c' from the remainder's integers, so none of these builds a Fraction per i
    at_39, at_79 = (_section_fractions(monkeypatch, g, section) for g in (39, 79))
    if section == "lift":
        # lift's one seeded fuzz probe builds a Fraction for B.fuzz, R.pullback(fuzz)
        # and n_even times the first, each only where it is not an int; the probe is
        # the same on every run, and two of them are not ints at g = 39, none at 79
        assert (at_39, at_79) == (2, 0)
    else:
        assert at_79 == at_39


def test_a_high_genus_report_builds_few_fractions(monkeypatch):
    report, built = _fraction_constructions(monkeypatch, lambda: verify.build_report(79, 79))
    assert report["status"] == "OK" and built <= 150


def test_a_passing_report_gets_no_triple_from_a_row(monkeypatch):
    # a passing row yields nothing, so it formats no check name
    original, asked, got = verify._Row.triples, [], []

    def counting(self, dense=True):
        asked.append(dense)
        for triple in original(self, dense):
            got.append(triple)
            yield triple

    monkeypatch.setattr(verify._Row, "triples", counting)
    assert verify.build_report(40, 40)["status"] == "OK"
    assert asked == [False] * GenusCtx(40).h and got == []


def test_parser_builds_one_fraction_per_label(monkeypatch):
    ctx = GenusCtx(40)
    labels = labels_for(ctx, M_SIDE)
    terms = [f"{k % 7 + 1}/{k % 5 + 1}*{labels[k % len(labels)]}" for k in range(2000)]
    text = " + ".join(terms)
    cls, built = _fraction_constructions(monkeypatch, lambda: parse_class(text, ctx, M_SIDE))
    assert len(cls.coeff) == len(labels)
    assert built <= len(labels)  # three per term before the integer kernel


def _certificate_fractions(monkeypatch, g):
    ctx = GenusCtx(g)
    return _fraction_constructions(monkeypatch, lambda: kodaira.certificate_json(kodaira.classify(ctx)))[1]


def test_certificates_build_no_fraction_per_label(monkeypatch):
    # g+1 composite: D is Brill-Noether, and catalog._own_d sums its class in integers, so nothing grows with h
    assert all(isinstance(catalog.choose_d(GenusCtx(g)).provenance, catalog.BrillNoether) for g in (101, 401))
    assert _certificate_fractions(monkeypatch, 401) <= _certificate_fractions(monkeypatch, 101)
    # g+1 prime: D is Gieseker-Petri with no b_i, so nothing grows with h
    assert all(not catalog.choose_d(GenusCtx(g)).complete for g in (100, 400))
    assert _certificate_fractions(monkeypatch, 400) <= _certificate_fractions(monkeypatch, 100)


class _ReadCounting(dict):
    """D's numerators, counting each label that is read and each positional pass, as "values()"."""

    def __init__(self, num, reads):
        super().__init__(num)
        self.reads = reads

    def __getitem__(self, label):
        self.reads[label] += 1
        return super().__getitem__(label)

    def values(self):
        self.reads["values()"] += 1
        return super().values()


def _numerator_reads(spec):
    """How often decompose_canonical(spec) reads each numerator of D, on a copy whose class counts its reads."""
    reads, divisor = Counter(), copy.copy(spec.divisor)
    object.__setattr__(divisor, "num", _ReadCounting(spec.divisor.num, reads))
    counted = copy.copy(spec)
    object.__setattr__(counted, "divisor", divisor)
    dec = kodaira.decompose_canonical(spec.ctx, counted)
    seen = Counter(reads)  # before the comparison below, whose spec properties read D too
    assert (dec.nu, dec.den, dec.c_num, dec.c_prime_num) == kodaira.decompose_canonical(spec.ctx, spec)._values()[1:]
    return seen


def _slope_only(g):
    return catalog.DivisorSpec(GenusCtx(g), catalog.UserSupplied("slope only"), Fraction(1), Fraction(1))


def test_a_slope_only_decomposition_reads_the_head_slots_alone(monkeypatch):
    # a D without b_i keeps no remainder, so the decomposition reads D's lambda
    # and d0 numerators once each and no label sequence: as much work at any h
    own_700, own_12 = catalog.choose_d(GenusCtx(700)), catalog.choose_d(GenusCtx(12))
    assert all(isinstance(s.provenance, catalog.GiesekerPetri) and not s.complete for s in (own_700, own_12))
    spelled = _counting(monkeypatch, kodaira, "_spelled")
    for spec in (own_700, own_12, _slope_only(300), _slope_only(20)):
        assert _numerator_reads(spec) == {"lambda": 1, "d0": 1}
    # a complete D's remainder is kept: its di numerators are read by one
    # positional pass over the stored values, with no lookup by label and
    # still no label sequence, for the own D and a user's D alike
    user_300 = catalog.DivisorSpec(GenusCtx(300), catalog.UserSupplied("u"), Fraction(9), Fraction(2),
                                   tuple(Fraction(i, 3) for i in range(1, 151)))
    for spec in (catalog.choose_d(GenusCtx(300)), user_300):
        assert _numerator_reads(spec) == {"lambda": 1, "d0": 1, "values()": 1}
    assert spelled == []


@pytest.mark.parametrize("g", (9, 12, 401, 700, 999))  # a Brill-Noether D at 9, 401 and 999, slope-only at 12 and 700
def test_a_certificate_builds_no_canonical_theta_or_remainder_class(g, monkeypatch):
    # the decomposition reads K and theta from their slot forms and builds no
    # class: no canonical_s, thetanull_class or kernel call, and no spin-side
    # class at all; reading dec.remainder is the one way to build one, by one
    # kernel call
    ctx = GenusCtx(g)
    for name in ("canonical_s", "thetanull_class"):
        monkeypatch.setattr(catalog, name, lambda ctx, name=name: pytest.fail(f"certificate called {name}"))
    kernel = [_counting(monkeypatch, module, "_sum_terms")
              for module in (picard, kodaira, transfer, testcurves) if hasattr(module, "_sum_terms")]
    built = []
    for module in (picard, catalog, kodaira, transfer, testcurves):
        if hasattr(module, "_trusted"):
            original = getattr(module, "_trusted")
            monkeypatch.setattr(module, "_trusted", lambda ctx, side, num, den, original=original:
                                built.append(side) or original(ctx, side, num, den))
    cert = kodaira.classify(ctx)
    doc = kodaira.certificate_json(cert)
    assert doc["verdict"] == kodaira.GENERAL_TYPE and S_SIDE not in built
    assert not any(kernel)
    dec = cert.decomposition
    built.clear()
    rest = dec.remainder
    calls = [name for names in kernel for name in names]
    if dec.d_spec.complete:
        assert built == [S_SIDE] and len(rest.num) <= 2 * ctx.h
        assert calls == ["remainder"]
        assert doc["c"] == [str(v) for v in dec.c] and doc["c_prime"] == [str(v) for v in dec.c_prime]
    else:
        assert built == [] and rest is None and doc["c"] is None
        assert calls == []


def _writer_calls(monkeypatch, cert):
    """certificate_json(cert), each _ratios call as (caller, entries, gcds given) and the gcd count in kodaira."""
    calls, original = [], kodaira._ratios

    def ratios(ns, d, ks=None):
        calls.append((sys._getframe(1).f_code.co_name, len(ns), ks))
        return original(ns, d, ks)

    monkeypatch.setattr(kodaira, "_ratios", ratios)
    gcds = _counting(monkeypatch, kodaira, "gcd")
    return kodaira.certificate_json(cert), calls, len(gcds)


@pytest.mark.parametrize("g", (9, 401, 700))
def test_a_certificate_writes_each_remainder_list_by_one_call(g, monkeypatch):
    cert, h = kodaira.classify(GenusCtx(g)), GenusCtx(g).h
    doc, calls, gcds = _writer_calls(monkeypatch, cert)
    if not cert.decomposition.d_spec.complete:  # a slope-only D has neither list
        assert calls == [] and gcds == 0 and doc["c"] is doc["c_prime"] is None
        return
    # c'_i - c_i is 4*den at every i, so c and c' share their gcds with den: one
    # gcd per i, and one call of the p/q writer for both lists, whose gcds
    # repeat c's for c'
    assert len(doc["c"]) == len(doc["c_prime"]) == h
    [(caller, n, ks)] = calls
    assert (caller, n, gcds) == ("_remainders", 2 * h, h) and ks[:h] == ks[h:]
    # a pullback rule that gives bi another multiplicity than ai proves nothing:
    # each list is then written by a call of its own, which takes its own gcds
    monkeypatch.setattr(transfer, "_PULLBACK", (1, 1, 2, 1, 2))
    doc, calls, gcds = _writer_calls(monkeypatch, kodaira.classify(GenusCtx(g)))
    assert calls == [("_remainders", h, None)] * 2 and gcds == 0
    dec = kodaira.decompose_canonical(GenusCtx(g), cert.decomposition.d_spec)
    assert (doc["c"], doc["c_prime"]) == ([str(v) for v in dec.c], [str(v) for v in dec.c_prime])


@pytest.mark.parametrize("g", (5, 9, 12, 300))
def test_a_certificate_spells_its_labels_once(g, monkeypatch):
    # from empty label sequences, the first certificate of a genus spells
    # through its h in one step, and a second one, at an h already spelled,
    # spells no label; g = 12's slope-only D leaves its certificate no
    # indexed label to read, so it spells none
    spells = g != 12
    m, s = {"lambda": 0}, {"lambda": 0}
    labels = SimpleNamespace(d=[], a=[], b=[], m=MappingProxyType(m), s=MappingProxyType(s))
    for name, value in (("_LABELS", labels), ("_M", m), ("_S", s)):
        monkeypatch.setattr(picard, name, value)
    calls, spell = [], picard._spell
    monkeypatch.setattr(picard, "_spell", lambda h: calls.append(h) or spell(h))
    for _ in range(2):
        kodaira.certificate_json(kodaira.classify(GenusCtx(g)))
    assert (calls, len(labels.d)) == (([g // 2], g // 2 + 1) if spells else ([], 0))


def _context_comparisons(monkeypatch, g, warm=False):
    # warm: an earlier run_genus(g) filled the degree-table cache of its genus;
    # the label sequences, which hold the bases, persist either way
    if warm:
        verify.run_genus(g)
    original, calls = GenusCtx.__eq__, []

    def counting(self, other):
        calls.append(None)
        return original(self, other)

    with monkeypatch.context() as m:
        m.setattr(GenusCtx, "__eq__", counting)
        assert all(c.ok for c in verify.run_genus(g))
    return len(calls)


def test_context_comparisons_do_not_grow_with_h(monkeypatch):
    # one __eq__ per pairing and lincomb term would grow as h^2
    assert _context_comparisons(monkeypatch, 20) == _context_comparisons(monkeypatch, 60)


def test_context_comparisons_with_warm_caches_do_not_grow_as_h_squared(monkeypatch):
    # a second run_genus(g) in one process checks its labels against the
    # bases that the first run cached
    low, high = (_context_comparisons(monkeypatch, g, warm=True) for g in (20, 60))
    assert high <= 3 * low


@pytest.mark.parametrize("g", (5, 9))
def test_kodaira_section_judges_its_own_evidence(g, monkeypatch):
    classify = _counting(monkeypatch, kodaira, "classify")
    certify = _counting(monkeypatch, kodaira, "certify")
    evidence = {name: _counting(monkeypatch, module, name) for module, name in (
        (catalog, "choose_d"),
        (kodaira, "decompose_canonical"),
        (kodaira, "uniruled_certificate"),
    )}
    assert all(c.ok for c in verify.run_genus(g))
    assert classify == []
    assert certify == ["classification"]
    assert {name: len(calls) for name, calls in evidence.items()} == dict.fromkeys(evidence, 1)
