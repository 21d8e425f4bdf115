"""`verify`'s compat row families against a dense oracle.

Each row family stands for compat:F{i}:d{j} and compat:G{i}:d{j} over
every j, and the report renders only the entries it finds suspect. Here a
corrupted test curve F_i/G_i (a label added, dropped or changed) or a
corrupted pullback column pi*d_j (a stray label, a changed coefficient,
an emptied column) must give the same report as pairing every (i, j) with
`testcurves.intersect`, in stream order, with the identities of every other
section taken from `run_genus`. A crash in the setup that every section
shares ends the genus in one failed check.
"""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinpic import testcurves, transfer, verify
from spinpic.errors import GenusMismatchError, SideMismatchError
from spinpic.picard import M_SIDE, S_SIDE, DivisorClass, GenusCtx, basis_class, labels_for


def _with(cls, label, value):
    return DivisorClass(cls.ctx, cls.side, {**cls.coeff, label: value})


def _without(cls, label):
    return DivisorClass(cls.ctx, cls.side, {k: v for k, v in cls.coeff.items() if k != label})


def _relabel(cls, label):
    """cls with its first entry, if any, moved to label."""
    if not cls.coeff:
        return cls
    first = next(iter(cls.coeff))
    return _with(_without(cls, first), label, cls[first])


def _patched(monkeypatch, curve_faults, column_faults):
    """Route curve_map and the pullback of each d_j through the given faults."""
    curve_map, pullback = testcurves.curve_map, transfer.pullback

    def faulty_curves(ctx):
        curves = curve_map(ctx)
        for name, fault in curve_faults:
            curves[name] = fault(curves[name])
        return curves

    def faulty_pullback(x):
        out = pullback(x)
        for j, fault in column_faults:
            if x.coeff == {f"d{j}": 1}:
                out = fault(out)
        return out

    monkeypatch.setattr(testcurves, "curve_map", faulty_curves)
    monkeypatch.setattr(transfer, "pullback", faulty_pullback)


def _dense_rows(ctx):
    """The F_i/G_i block pair by pair, as verify streamed it before row families."""
    curves = testcurves.curve_map(ctx)
    columns = [transfer.pullback(basis_class(ctx, M_SIDE, f"d{j}")) for j in range(ctx.h + 1)]
    for i in range(1, ctx.h + 1):
        for j, x in enumerate(columns):
            want = 2 - 2 * i if i == j else 0
            for kind in "FG":
                got = testcurves.intersect(curves[f"{kind}{i}"], x)
                yield verify.Check(f"compat:{kind}{i}:d{j}", want == got, verify._fmt(want), verify._fmt(got))


def _assert_rows_match_dense(g):
    ctx = GenusCtx(g)
    report = verify.build_report(g, g)
    checks = verify.run_genus(g)
    dense = list(_dense_rows(ctx))
    assert len(dense) == 2 * ctx.h * (ctx.h + 1)
    start = [c.name for c in checks].index("compat:F1:d0")
    rows = checks[start:start + len(dense)]
    # run_genus expands each row over every j through the row's own evaluator
    assert [(c.name, c.ok, c.expected, c.got) for c in rows] == [
        (c.name, c.ok, c.expected, c.got) for c in dense
    ]
    merged = checks[:start] + dense + checks[start + len(dense):]
    assert report["failures"] == [
        {"check-name": c.name, "genus": g, "expected": c.expected, "got": c.got} for c in merged if not c.ok
    ]
    assert report["payload"]["total-checks"] == len(checks)
    assert report["payload"]["genera"][0]["failed"] == sum(not c.ok for c in checks)
    return report


_NONZERO = st.builds(Fraction, st.integers(-4, 4).filter(bool), st.integers(1, 3))


@st.composite
def _faults(draw):
    g = draw(st.integers(3, 61))
    ctx = GenusCtx(g)
    h, labels = ctx.h, labels_for(ctx, S_SIDE)
    curve_faults, column_faults = [], []
    for _ in range(draw(st.integers(1, 4))):
        label, value = draw(st.sampled_from(labels)), draw(_NONZERO)
        if draw(st.booleans()):
            name = f"{draw(st.sampled_from('FG'))}{draw(st.integers(1, h))}"
            kind = draw(st.sampled_from(("add", "drop", "change")))
            if kind == "add":
                fault = lambda c, label=label, value=value: _with(c, label, value)
            elif kind == "drop":
                fault = lambda c: _without(c, next(iter(c.coeff), "lambda"))
            else:
                fault = lambda c, label=label: _relabel(c, label)
            curve_faults.append((name, fault))
        else:
            j = draw(st.integers(0, h))
            kind = draw(st.sampled_from(("stray", "coefficient", "empty")))
            if kind == "stray":
                fault = lambda x, label=label, value=value: _with(x, label, value)
            elif kind == "coefficient":
                fault = lambda x, value=value: _with(x, next(iter(x.coeff), "lambda"), value)
            else:
                fault = lambda x: DivisorClass(x.ctx, x.side, {})
            column_faults.append((j, fault))
    return g, curve_faults, column_faults


@settings(max_examples=40, deadline=None)
@given(_faults())
def test_row_families_match_the_dense_oracle(faults):
    g, curve_faults, column_faults = faults
    with pytest.MonkeyPatch.context() as m:
        _patched(m, curve_faults, column_faults)
        _assert_rows_match_dense(g)


# the four faults that the sparse evaluation was first checked against,
# and a curve meeting one column twice, each with the row-family
# identities it must fail
_PINNED = {
    "two-entries-in-one-column": ([("F4", lambda c: _with(c, "b4", Fraction(1)))], [], ["compat:F4:d4"]),
    "wrong-diagonal": ([("F5", lambda c: _with(c, "a5", Fraction(-7)))], [], ["compat:F5:d5"]),
    "stray-label-on-G3": ([("G3", lambda c: _with(c, "b7", Fraction(5)))], [], ["compat:G3:d7"]),
    "emptied-F9": ([("F9", lambda c: DivisorClass(c.ctx, c.side, {}))], [], ["compat:F9:d9"]),
    "stray-b2-on-d4": ([], [(4, lambda x: _with(x, "b2", Fraction(1)))], ["compat:G2:d4"]),
}


@pytest.mark.parametrize("g", (22, 61))
@pytest.mark.parametrize("fault", sorted(_PINNED))
def test_pinned_faults_match_the_dense_oracle(fault, g, monkeypatch):
    curve_faults, column_faults, failing = _PINNED[fault]
    _patched(monkeypatch, curve_faults, column_faults)
    report = _assert_rows_match_dense(g)
    names = [f["check-name"] for f in report["failures"]]
    assert [n for n in names if re.fullmatch(r"compat:[FG][1-9]\d*:d\d+", n)] == failing


def _foreign(curve):
    # the same entries on a class at another genus
    return DivisorClass(GenusCtx(curve.ctx.g + 2), S_SIDE, dict(curve.coeff))


def _curve_side(curve):
    return DivisorClass(curve.ctx, M_SIDE, {})


@pytest.mark.parametrize("fault", (_foreign, _curve_side))
@pytest.mark.parametrize("name", ("F3", "G3"))
def test_a_row_raises_what_intersect_raises_before_its_first_identity(name, fault, monkeypatch):
    g = 12
    _patched(monkeypatch, [(name, fault)], [])
    bad = testcurves.curve_map(GenusCtx(g))[name]
    with pytest.raises((GenusMismatchError, SideMismatchError)) as raised:
        testcurves.intersect(bad, transfer.pullback(basis_class(GenusCtx(g), M_SIDE, "d0")))
    checks = verify.run_genus(g)
    names = [c.name for c in checks]
    crash = names.index("compat:exception")
    assert names[crash - 1] == f"compat:G2:d{GenusCtx(g).h}"
    assert checks[crash].got == f"{type(raised.value).__name__}: {raised.value}"
    report = verify.build_report(g, g)
    assert {"check-name": "compat:exception", "genus": g, "expected": "no exception",
            "got": checks[crash].got} in report["failures"]
    assert report["payload"]["total-checks"] == len(checks)


def test_a_foreign_column_ends_compat_before_the_first_row(monkeypatch):
    # F0 pairs with every pullback column before the rows run, so one column
    # at another genus ends the section there: the rows need guard only
    # against d0
    g = 12
    _patched(monkeypatch, [], [(3, lambda x: DivisorClass(GenusCtx(g + 2), S_SIDE, dict(x.coeff)))])
    ctx = GenusCtx(g)
    column = transfer.pullback(basis_class(ctx, M_SIDE, "d3"))
    with pytest.raises(GenusMismatchError) as raised:
        testcurves.intersect(testcurves.curve_map(ctx)["F0"], column)
    crash = f"GenusMismatchError: {raised.value}"
    checks = verify.run_genus(g)
    compat = [c for c in checks if c.name.startswith("compat:")]
    assert [c.name for c in compat] == [
        f"compat:{kind}0:{label}" for label in ("lambda", "d0", "d1", "d2") for kind in "FG"
    ] + ["compat:exception"]
    assert all(c.ok for c in compat[:-1]) and compat[-1].got == crash
    report = verify.build_report(g, g)
    assert [f for f in report["failures"] if f["check-name"].startswith("compat:")] == [
        {"check-name": "compat:exception", "genus": g, "expected": "no exception", "got": crash}
    ]
    assert report["payload"]["total-checks"] == len(checks)


def test_a_crash_in_the_shared_setup_ends_the_genus_in_one_failed_check(monkeypatch):
    # the sections share the pullbacks of the basis classes, so none of them can run without them
    def crashing(x):
        raise RuntimeError("no pullback")

    monkeypatch.setattr(transfer, "pullback", crashing)
    crash = "RuntimeError: no pullback"
    assert verify.run_genus(5) == [verify.Check("setup:exception", False, "no exception", crash)]
    report = verify.build_report(5, 5)
    assert report["failures"] == [{"check-name": "setup:exception", "genus": 5, "expected": "no exception",
                                   "got": crash}]
    assert report["payload"] == {"genera": [{"genus": 5, "checks": 1, "failed": 1}], "total-checks": 1}
