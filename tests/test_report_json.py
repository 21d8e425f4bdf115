"""verify.report_json writes exactly the bytes of json.dumps(x, indent=2, sort_keys=True).

It is the one writer of indented JSON: the `verify --json` report, the
`classify -g N --json` certificate and the `pair --dump` table. It writes
each container of scalars with one call of json's C encoder and joins the
rest itself, and spells a lone exact int, bool or None itself, so every
layout rule that json's own indented encoder follows is compared here byte
for byte: keys that need escaping, bools beside ints, empty containers at
any depth, flat containers beside mixed ones, and lone scalars.
"""

import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinpic import cli, kodaira, testcurves, verify
from spinpic.picard import DivisorClass, GenusCtx

# a quote, a backslash, control characters, non-ASCII, a line separator and an astral character
_AWKWARD = ['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "é", " ", "\U0001f600", "/", " "]
_TEXT = st.text(st.sampled_from(_AWKWARD) | st.characters(), max_size=6)
_SCALARS = (st.none() | st.booleans() | st.integers(-3, 3) | st.integers(-10**60, 10**60) | _TEXT)


def _containers(children):
    return (st.lists(children, max_size=4) | st.lists(children, max_size=4).map(tuple)
            | st.dictionaries(_TEXT, children, max_size=4))


_JSON = st.recursive(_SCALARS, _containers, max_leaves=40)


def _same_as_json(value) -> None:
    assert verify.report_json(value) == json.dumps(value, indent=2, sort_keys=True)


@settings(max_examples=300, deadline=None)
@given(_JSON)
@example({"flat": {"b": True, "a": 1}, "mixed": [False, [0, None], {}, [[]], ()], "empty": [{}, [{}]]})
@example([True, False, 1, 0, [True, 1]])
@example({"": {'"\\\n\x00é\U0001f600': [None, ""]}})
def test_report_json_writes_the_bytes_of_json_dumps(value):
    _same_as_json(value)


@settings(max_examples=150, deadline=None)
@given(st.lists(_SCALARS, max_size=4), st.dictionaries(_TEXT, _JSON, max_size=4))
def test_flat_and_mixed_containers_side_by_side(flat, mixed):
    _same_as_json([flat, mixed, {"flat": flat, "mixed": mixed}])


class _Int(int):
    def __repr__(self):
        return "not json"


def _written(write, value):
    try:
        return write(value)
    except ValueError:  # an int past the interpreter's digit limit, where there is one
        return ValueError


def test_lone_scalars():
    # exact ints, True, False and None are spelled without the encoder; an int
    # subclass (which json writes by int.__repr__), a float and a str still go through it
    for value in (0, -7, 10**80, True, False, None, _Int(5), 1.5, float("nan"), "x", 10**5000):
        for doc in (value, {"k": value, "m": [value, [value]]}):
            assert _written(verify.report_json, doc) == _written(lambda v: json.dumps(v, indent=2, sort_keys=True), doc)


def test_a_failing_verify_report(monkeypatch):
    curve_map = testcurves.curve_map

    def patched(ctx):  # G2's -2 at b2 becomes -3
        curves = curve_map(ctx)
        curves["G2"] = DivisorClass(ctx, "S", {"b2": -3})
        return curves

    monkeypatch.setattr(testcurves, "curve_map", patched)
    report = verify.build_report(4, 6)
    assert report["status"] == "FAIL" and len(report["failures"]) == 9
    _same_as_json(report)


def test_certificates():
    # uniruled (null nu and remainders), kappa >= 0 with no flags, and general type
    for g in (3, 8, 20):
        _same_as_json(kodaira.certificate_json(kodaira.classify(GenusCtx(g))))


def test_a_pair_dump_table(capsys):
    assert cli.run(["pair", "--dump", "-g", "12"]) == 0
    table = json.loads(capsys.readouterr().out)
    assert len(table) == 17
    _same_as_json(table)
