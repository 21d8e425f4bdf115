"""Acceptance gate: the nine headline criteria, all at exact (zero) tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion. Every expected value is either a frozen literal checked
against an independent oracle inside this file or an exact identity.
"""

import contextlib
from fractions import Fraction

from spinpic import catalog, cli, kodaira, testcurves, transfer, verify
from spinpic.errors import NotCompositeError
from spinpic.picard import GenusCtx, M_SIDE, S_SIDE, basis_class, lincomb, parse_class
from spinpic.testcurves import curve_map, intersect, solve_thetanull
from spinpic.transfer import degree_identities, even_component_degree, pullback, pushforward


@contextlib.contextmanager
def criterion(num: int, title: str):
    try:
        yield
    except BaseException:
        print(f"criterion {num} ({title}): FAIL")
        raise
    print(f"criterion {num} ({title}): PASS")


def test_criterion_1_thetanull_rederivation():
    with criterion(1, "theta-null re-derivation"):
        for g in range(3, 26):
            ctx = GenusCtx(g)
            solved = solve_thetanull(ctx)
            assert solved["lambda"] == Fraction(1, 4)
            assert solved["a0"] == Fraction(-1, 16)
            assert solved["b0s"] == 0
            for i in range(1, ctx.h + 1):
                assert solved[f"a{i}"] == 0
                assert solved[f"b{i}"] == Fraction(-1, 2)
            assert solved == catalog.thetanull_class(ctx)


def test_criterion_2_pushforward_identity():
    with criterion(2, "pushforward of theta-null"):
        for g in range(3, 26):
            ctx = GenusCtx(g)
            assert pushforward(catalog.thetanull_class(ctx)) == catalog.m1_theta_class(ctx)
        ctx3 = GenusCtx(3)
        assert catalog.m1_theta_class(ctx3) == parse_class("9*lambda - d0 - 3*d1", ctx3, M_SIDE)


def test_criterion_3_nu_table():
    with criterion(3, "nu table"):
        nu = {g: kodaira.decompose_canonical(GenusCtx(g), catalog.choose_d(GenusCtx(g))).nu for g in range(8, 23)}
        assert nu[8] == 0
        for g in range(9, 23):
            assert nu[g] > 0
        assert nu[9] == Fraction(1, 5)
        assert nu[10] == Fraction(1, 2)
        assert nu[11] == Fraction(1, 2)


def _rk_oracle(g: int) -> int:
    # direct integer evaluation of the covering-curve pairing with the
    # canonical class: 13*R.lambda - 2*R.a0 - 3*R.b0s, all other entries 0
    return (
        13 * (g + 1) * 2 ** (g - 1) * (2**g + 1)
        - 2 * (6 * g + 18) * 2 ** (2 * g - 2)
        - 3 * (6 * g + 18) * 2 ** (g - 2) * (2 ** (g - 1) + 1)
    )


def test_criterion_4_uniruledness_sign_flip():
    with criterion(4, "R.K sign flip"):
        for g in range(3, 26):
            ctx = GenusCtx(g)
            rk = intersect(curve_map(ctx)["R"], catalog.canonical_s(ctx))
            assert rk == _rk_oracle(g)
            assert (rk < 0) == (g <= 7)
            assert (rk > 0) == (g >= 8)
        assert _rk_oracle(7) == -7296
        assert _rk_oracle(8) == 51456


def test_criterion_5_decomposition_identity():
    with criterion(5, "canonical decomposition"):
        checked = 0
        for g in range(9, 23):
            ctx = GenusCtx(g)
            try:
                _, spec = catalog.bn_class(ctx)
            except NotCompositeError:
                continue
            dec = kodaira.decompose_canonical(ctx, spec)
            assert all(v >= 0 for v in dec.c)
            assert all(v >= 0 for v in dec.c_prime)
            assembled = lincomb(
                [dec.nu, 8, Fraction(3, 2) / spec.b0],
                [
                    basis_class(ctx, S_SIDE, "lambda"),
                    catalog.thetanull_class(ctx),
                    pullback(catalog.divisor_class(spec)),
                ],
            )
            for i in range(1, ctx.h + 1):
                assembled += dec.c[i - 1] * basis_class(ctx, S_SIDE, f"a{i}")
                assembled += dec.c_prime[i - 1] * basis_class(ctx, S_SIDE, f"b{i}")
            assert assembled == catalog.canonical_s(ctx)
            checked += 1
        assert checked == 9  # g in {9, 11, 13, 14, 15, 17, 19, 20, 21}


def test_criterion_6_vanishing_pairings():
    with criterion(6, "vanishing pairings"):
        for g in range(3, 26):
            ctx = GenusCtx(g)
            curves = curve_map(ctx)
            theta = catalog.thetanull_class(ctx)
            for name in ("F0", "G0", "H0"):
                assert intersect(curves[name], theta) == 0
            for i in range(1, ctx.h + 1):
                assert intersect(curves[f"F{i}"], theta) == 0
                assert intersect(curves[f"G{i}"], theta) == i - 1


def test_criterion_7_transfer_consistency_stress():
    with criterion(7, "transfer and degree consistency, 2 <= g <= 60"):
        for g in range(2, 61):
            ctx = GenusCtx(g)
            n = even_component_degree(g)
            for label in ("lambda",) + tuple(f"d{i}" for i in range(ctx.h + 1)):
                x = basis_class(ctx, M_SIDE, label)
                assert pushforward(pullback(x)) == n * x
            assert [name for name, lhs, rhs in degree_identities(ctx) if lhs != rhs] == []


def test_criterion_8_verdicts_and_verify_exit(capsys):
    with criterion(8, "verdict reproduction and verify exit code"):
        for g in range(3, 8):
            assert kodaira.classify(GenusCtx(g)).verdict == kodaira.UNIRULED
        assert kodaira.classify(GenusCtx(8)).verdict == kodaira.KAPPA_NONNEGATIVE
        for g in range(9, 23):
            assert kodaira.classify(GenusCtx(g)).verdict == kodaira.GENERAL_TYPE
        code = cli.run(["verify", "--from", "3", "--to", "22"])
        capsys.readouterr()
        assert code == 0


def test_criterion_9_mutation_sensitivity(monkeypatch):
    with criterion(9, "mutation sensitivity"):
        def failures(g):
            return [c for c in verify.run_genus(g) if not c.ok]

        assert failures(6) == []

        with monkeypatch.context() as m:
            orig_degree = transfer._degree

            def bump_a0(g, kind, i):
                # a0's degree in the one formula that pushforward, R and the counts read
                return orig_degree(g, kind, i) + ((kind, i) == ("a", 0))

            m.setattr(transfer, "_degree", bump_a0)
            assert failures(6)

        with monkeypatch.context() as m:
            orig_curves = testcurves.curve_map

            def bump_h0(ctx):
                curves = orig_curves(ctx)
                curves["H0"] += basis_class(ctx, S_SIDE, "a1")
                return curves

            m.setattr(testcurves, "curve_map", bump_h0)
            assert failures(6)

        with monkeypatch.context() as m:
            orig_theta = catalog.thetanull_class

            def bump_theta(ctx):
                return orig_theta(ctx) + basis_class(ctx, S_SIDE, "lambda")

            m.setattr(catalog, "thetanull_class", bump_theta)
            assert failures(6)

        assert failures(6) == []
