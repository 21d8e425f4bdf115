import argparse
import io
import json
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _sweep
from spinpic import catalog, cli, errors, kodaira, picard, testcurves, transfer, verify
from spinpic.picard import DivisorClass, GenusCtx, labels_for


def run(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_class_thetanull(capsys):
    code, out, _ = run(capsys, "class", "thetanull", "-g", "3")
    assert code == 0
    assert out.strip() == "1/4*lambda - 1/16*a0 - 1/2*b1"


def test_class_bn_and_d(capsys):
    code, out, _ = run(capsys, "class", "bn", "-g", "9")
    assert code == 0
    assert out.strip() == "12*lambda - 5/3*d0 - 8*d1 - 14*d2 - 18*d3 - 20*d4"
    code, out, _ = run(capsys, "class", "D", "-g", "9")
    assert code == 0
    assert out.strip() == "12*lambda - 5/3*d0 - 8*d1 - 14*d2 - 18*d3 - 20*d4"


def test_class_bn_prime_genus_fails_usage(capsys):
    code, _, err = run(capsys, "class", "bn", "-g", "10")
    assert code == 2
    assert "prime" in err
    assert err == "error: g+1 = 11 is prime; no Brill-Noether divisor at genus 10\n"


def test_class_d_incomplete_fails_usage(capsys):
    code, _, err = run(capsys, "class", "D", "-g", "10")
    assert code == 2
    assert "slope" in err


def test_pair_r_canonical(capsys):
    code, out, _ = run(capsys, "pair", "R", "canonical-s", "-g", "7")
    assert code == 0
    assert out.strip() == "-7296"


def test_pair_expression(capsys):
    code, out, _ = run(capsys, "pair", "G2", "1/4*lambda - 1/2*b2", "-g", "5")
    assert code == 0
    assert out.strip() == "1"


def test_pair_unknown_curve(capsys):
    assert run(capsys, "pair", "F9", "thetanull", "-g", "5") == (
        2, "",
        "error: unknown curve 'F9' at genus 5 (available: B, R, F0, G0, H0, F1, G1, F2, G2)\n",
    )


@pytest.mark.parametrize("argv", [("pair", "-g", "5"), ("pair", "G2", "-g", "5")])
def test_pair_needs_curve_and_class(capsys, argv):
    assert run(capsys, *argv) == (2, "", "error: pair needs CURVE and CLASSEXPR (or --dump)\n")


@pytest.mark.parametrize("argv", [("pair", "B", "lambda", "--dump", "-g", "3"), ("pair", "--dump", "B", "-g", "3")])
def test_pair_dump_takes_no_curve_or_class(capsys, argv):
    assert run(capsys, *argv) == (2, "", "error: pair --dump takes no CURVE or CLASSEXPR\n")


def test_pair_side_mismatch(capsys):
    code, out, err = run(capsys, "pair", "B", "thetanull", "-g", "5")
    assert (code, out, err) == (2, "", "error: a side-M curve pairs with side-M classes, got side-S\n")


def test_pair_dump(capsys):
    code, out, _ = run(capsys, "pair", "--dump", "-g", "3")
    assert code == 0
    table = json.loads(out)
    assert table["B"] == {"lambda": "4", "d0": "36", "d1": "0"}
    assert table["H0"]["b0s"] == "-2"
    assert set(table) == {"B", "R", "F0", "G0", "H0", "F1", "G1"}


def test_pair_dump_matches_the_dense_table(capsys):
    # the oracle reads every (curve, label) cell through __getitem__, and
    # json.dumps, not the writer under test, lays it out
    for g in range(3, 61):
        curves = testcurves.curve_map(GenusCtx(g))
        dense = {name: {label: str(c[label]) for label in labels_for(c.ctx, c.side)} for name, c in curves.items()}
        expected = json.dumps(dense, indent=2, sort_keys=True) + "\n"
        assert run(capsys, "pair", "--dump", "-g", str(g)) == (0, expected, "")


def test_pair_dump_reads_no_cell_by_label(capsys, monkeypatch):
    original, reads = DivisorClass.__getitem__, []

    def counting(self, label):
        reads.append(label)
        return original(self, label)

    monkeypatch.setattr(DivisorClass, "__getitem__", counting)
    code, out, _ = run(capsys, "pair", "--dump", "-g", "40")
    assert code == 0 and json.loads(out)["G20"]["b20"] == "-38"
    assert reads == []


def test_counts(capsys):
    code, out, _ = run(capsys, "counts", "-g", "3")
    assert code == 0
    assert "even component degree 36" in out
    assert "deg(A0/d0) = 16" in out
    assert "FAIL" not in out


def test_each_genus_help_names_the_least_genus_its_command_takes(capsys):
    # counts reads only the covering degrees, which are defined at g = 2; the classes need g >= 3
    code, out, _ = run(capsys, "counts", "-g", "2")
    assert code == 0 and out.endswith("  identity a1+b1=even: 10 == 10  ok\n")
    assert "genus (>= 2)" in run(capsys, "counts", "--help")[1]
    for argv in (["class", "thetanull"], ["pair", "R", "lambda"], ["solve-thetanull"]):
        assert run(capsys, *argv, "-g", "2") == (2, "", "error: this operation needs genus >= 3, got 2\n")
        assert "genus (>= 3)" in run(capsys, argv[0], "--help")[1]


def test_counts_exits_one_on_a_wrong_stratum_degree(capsys, monkeypatch):
    # deg(B2/d2) off by one breaks a2+b2=even alone; exit 1 is the failed-identity code
    original = transfer._degree

    def bumped(g, kind, i):
        return original(g, kind, i) + ((kind, i) == ("b", 2))

    monkeypatch.setattr(transfer, "_degree", bumped)
    code, out, err = run(capsys, "counts", "-g", "6")
    assert (code, err) == (1, "")
    assert [line for line in out.splitlines() if "FAIL" in line] == ["  identity a2+b2=even: 2081 == 2080  FAIL"]


def test_solve_thetanull_match(capsys):
    code, out, _ = run(capsys, "solve-thetanull", "-g", "5")
    assert code == 0
    assert out.splitlines()[1:8] == [
        "  pi_*theta = m1 at lambda: lambda = 1/4",
        "  pi_*theta = m1 at d0, G0.theta = 0: a0 = -1/16",
        "  pi_*theta = m1 at d0, G0.theta = 0: b0s = 0",
        "  H0.theta = 0: a1 = 0",
        "  F0.theta = 0: b1 = -1/2",
        "  F2.theta = 0: a2 = 0",
        "  pi_*theta = m1 at d2: b2 = -1/2",
    ]
    assert out.endswith("solved class: 1/4*lambda - 1/16*a0 - 1/2*b1 - 1/2*b2\n"
                        "closed form:  1/4*lambda - 1/16*a0 - 1/2*b1 - 1/2*b2\nMATCH\n")


def test_solve_thetanull_mismatch_exits_one(capsys, monkeypatch):
    closed = catalog.thetanull_class
    monkeypatch.setattr(catalog, "thetanull_class", lambda ctx: 2 * closed(ctx))
    code, out, err = run(capsys, "solve-thetanull", "-g", "5")
    assert (code, err) == (1, "")
    assert out.endswith("closed form:  1/2*lambda - 1/8*a0 - b1 - b2\nMISMATCH\n")


def test_classify_json_genus8(capsys):
    code, out, _ = run(capsys, "classify", "-g", "8", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "KAPPA_NONNEGATIVE"
    assert doc["nu"] == "0"


def test_classify_human_genus7(capsys):
    code, out, _ = run(capsys, "classify", "-g", "7")
    assert code == 0
    assert "UNIRULED" in out
    assert "R . K = -7296" in out


def test_classify_human_rationality_notes(capsys):
    note = "  note: this moduli space is known to be rational (Takagi-Zucconi)\n"
    code, out, _ = run(capsys, "classify", "-g", "4")
    assert code == 0
    assert note in out
    assert note not in run(capsys, "classify", "-g", "5")[1]


def test_classify_divisor_file(capsys, tmp_path):
    path = tmp_path / "divisor.json"
    path.write_text(json.dumps({
        "name": "k3-with-boundary",
        "genus": 10,
        "a": "7",
        "b0": "1",
        "b": ["2", "2", "2", "2", "2"],
    }))
    code, out, _ = run(capsys, "classify", "-g", "10", "--divisor-file", str(path))
    assert code == 0
    assert "GENERAL_TYPE" in out
    assert "CONDITIONAL" not in out


@pytest.mark.parametrize("as_json", ([], ["--json"]))
def test_classify_divisor_file_with_fractional_remainders(as_json, capsys, tmp_path):
    # the text lines and the JSON lists both come from certificate_json
    path = tmp_path / "divisor.json"
    path.write_text(json.dumps({"name": "t", "genus": 9, "a": "12", "b0": "5/3", "b": ["7/2", "9/2", "16/3", "6"]}))
    code, out, _ = run(capsys, "classify", "-g", "9", "--divisor-file", str(path), *as_json)
    assert code == 0
    c, c_prime = ["3/20", "41/20", "14/5", "17/5"], ["83/20", "121/20", "34/5", "37/5"]
    if as_json:
        doc = json.loads(out)
        assert (doc["c"], doc["c_prime"]) == (c, c_prime)
    else:
        assert "\n  remainders c  = (3/20, 41/20, 14/5, 17/5)\n  remainders c' = (83/20, 121/20, 34/5, 37/5)\n" in out


def test_classify_divisor_file_slope_violation(capsys, tmp_path):
    path = tmp_path / "divisor.json"
    path.write_text(json.dumps({"name": "steep", "genus": 10, "a": "8", "b0": "1"}))
    code, _, err = run(capsys, "classify", "-g", "10", "--divisor-file", str(path))
    assert code == 1
    assert "slope" in err


@pytest.mark.parametrize("g", (3, 5, 7))
def test_classify_divisor_file_slope_violation_below_genus_eight(g, capsys, tmp_path):
    # the uniruled verdict does not use D, but a steep divisor is still rejected
    path = tmp_path / "divisor.json"
    path.write_text(json.dumps({"name": "steep", "genus": g, "a": "100", "b0": "1"}))
    code, out, err = run(capsys, "classify", "-g", str(g), "--divisor-file", str(path))
    assert code == 1
    assert out == ""
    bound = {3: "9", 5: "8", 7: "15/2"}[g]
    assert err == f"FAIL: slope a/b0 = 100 exceeds the genus-{g} bound {bound}\n"


@pytest.mark.parametrize("as_json", ([], ["--json"]))
def test_classify_divisor_file_within_bound_below_genus_eight(as_json, capsys, tmp_path):
    path = tmp_path / "divisor.json"
    path.write_text(json.dumps({"name": "shallow", "genus": 5, "a": "6", "b0": "1", "b": ["1", "1"]}))
    code, out, _ = run(capsys, "classify", "-g", "5", "--divisor-file", str(path), *as_json)
    assert code == 0
    assert (code, out) == run(capsys, "classify", "-g", "5", *as_json)[:2]
    assert out.startswith('{\n  "c": null,' if as_json else "genus 5: UNIRULED\n  R . K = -2976\n")


def test_verify_small_range(capsys):
    code, out, _ = run(capsys, "verify", "--from", "3", "--to", "5")
    assert code == 0
    assert "genus 3" in out and "genus 5" in out
    assert "OK" in out


def test_verify_failure_lines_exit_one(capsys, monkeypatch):
    # one curve entry off: G2's -2 at b2 becomes -3
    curve_map = testcurves.curve_map

    def patched(ctx):
        curves = curve_map(ctx)
        curves["G2"] = DivisorClass(ctx, "S", {"b2": -3})
        return curves

    monkeypatch.setattr(testcurves, "curve_map", patched)
    assert run(capsys, "verify", "--from", "5", "--to", "5") == (1, (
        "genus 5: 82 checks  FAIL(3)\n"
        "  FAIL curves:table:G2 at genus 5: expected {b2=-2, side=S}, got {b2=-3, side=S}\n"
        "  FAIL pairing:G2*theta at genus 5: expected 1, got 3/2\n"
        "  FAIL compat:G2:d2 at genus 5: expected -2, got -3\n"
        "verify 5..5: FAIL (82 checks, 3 failures)\n"
    ), "")


def test_verify_setup_failure_exits_one(capsys, monkeypatch):
    # every section shares the pullbacks of the basis classes, so a crash there ends each genus in one check
    def crashing(x):
        raise RuntimeError("no pullback")

    monkeypatch.setattr(transfer, "pullback", crashing)
    assert run(capsys, "verify", "--from", "5", "--to", "6") == (1, (
        "genus 5: 1 checks  FAIL(1)\n"
        "genus 6: 1 checks  FAIL(1)\n"
        "  FAIL setup:exception at genus 5: expected no exception, got RuntimeError: no pullback\n"
        "  FAIL setup:exception at genus 6: expected no exception, got RuntimeError: no pullback\n"
        "verify 5..6: FAIL (2 checks, 2 failures)\n"
    ), "")


@pytest.mark.parametrize("as_json", ((), ("--json",)), ids=("text", "json"))
def test_a_long_verify_prints_progress_on_stderr_only(as_json, capsys, monkeypatch):
    # a fake clock in nanoseconds, read once at the start and once after each genus
    second = 10**9
    argv = ("verify", "--from", "3", "--to", "8", *as_json)
    quiet = run(capsys, *argv)
    assert quiet[2] == ""  # a short run prints no progress
    reads = iter([0, 1 * second, 5 * second - 1, 5 * second, 9 * second, 10 * second, 12 * second])
    monkeypatch.setattr(cli, "_clock", lambda: next(reads))
    code, out, err = run(capsys, *argv)
    assert (code, out) == quiet[:2] and next(reads, None) is None
    # no line before 5 s; then one at most every 5 s, the time left scaled by the
    # sum of g over the genera left against that over the genera done
    # (62 + 74 + 82 checks through g = 5, and 96 + 106 more through g = 7)
    assert err == (
        "verify 3..8: genus 5, 218 checks so far, 5 s elapsed, about 8 s left\n"
        "verify 3..8: genus 7, 420 checks so far, 10 s elapsed, about 3 s left\n"
    )


def test_verify_json_round_trips_byte_identically(capsys):
    code, out, _ = run(capsys, "verify", "--from", "3", "--to", "4", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "OK"
    assert doc["failures"] == []
    assert doc["genus-range"] == [3, 4]
    assert json.dumps(doc, indent=2, sort_keys=True) == out.strip()


def test_usage_errors_exit_two(capsys):
    assert run(capsys, "class", "nope", "-g", "5")[0] == 2
    assert run(capsys, "classify", "-g", "2")[0] == 2
    assert run(capsys, "verify", "--from", "2", "--to", "4")[0] == 2
    assert run(capsys, "pair", "-g", "5")[0] == 2


def test_bad_class_expression_exits_two(capsys):
    code, _, err = run(capsys, "pair", "R", "1/4*nope", "-g", "5")
    assert code == 2
    # the grammar's digits are ASCII; an Arabic-Indic two is not read as 2
    # and its whitespace is ASCII: a no-break, em or line-separator space is no space
    for expr in ("\u0662*lambda", "lambda\u00a0+\u00a0a0", "\u2003lambda\u2003", "lambda\u2028-\u2028a0"):
        code, out, err = run(capsys, "pair", "R", expr, "-g", "5")
        assert (code, out) == (2, ""), expr
        assert err.startswith("error: ") and err.count("\n") == 1, expr
    assert run(capsys, "pair", "R", " lambda\t+ \ta0\t", "-g", "5")[:2] == (0, "15456\n")


_DIVISOR_FILE_FAULTS = {
    "string-b": '{"name": "s", "genus": 10, "a": "7", "b0": "1", "b": "22222"}',
    "float-a": '{"name": "f", "genus": 10, "a": 7.5, "b0": "1", "b": ["2", "2", "2", "2", "2"]}',
    "bool-b": '{"name": "t", "genus": 10, "a": "7", "b0": "1", "b": [true, 2, 2, 2, 2]}',
    "float-genus": '{"name": "f", "genus": 10.0, "a": "7", "b0": "1", "b": ["2", "2", "2", "2", "2"]}',
    "bool-genus": '{"name": "t", "genus": true, "a": "7", "b0": "1"}',
    "missing": None,
    # json.loads raises RecursionError on nesting this deep
    "deep-nesting": '{"a": ' + "[" * 200000 + "]" * 200000 + "}",
    "empty": "",
    "not-json": "name: steep\ngenus: 10\n",
    "non-ascii-digit": '{"name": "n", "genus": 10, "a": "\\u0667", "b0": "1"}',
    "not-utf8": b'{"name": "\xff", "genus": 10, "a": "7", "b0": "1"}',
    # the grammar is integer ["/" positive-integer], so a signed denominator is malformed
    "signed-denominator": '{"name": "s", "genus": 10, "a": "-7/-1", "b0": "1"}',
    "number-name": '{"name": 5, "genus": 10, "a": "7", "b0": "1"}',
    # printed raw, such a name would forge a verdict line inside the certificate
    "control-character-name": '{"name": "x)\\nverdict: UNIRULED\\n(", "genus": 10, "a": "7", "b0": "1"}',
    # json.loads would keep the last a, which passes the slope bound that the first one fails
    "repeated-key": '{"name": "x", "genus": 10, "a": "100", "a": "7", "b0": "1"}',
    # read without its misspelt b, this file would certify a CONDITIONAL verdict
    "unknown-key": '{"name":"x","genus":10,"a":"7","b0":"1","bs":["2","2","2","2","2"]}',
    "zero-b": '{"name": "z", "genus": 10, "a": "7", "b0": "1", "b": ["0", "1", "1", "1", "1"]}',
    "negative-b": '{"name": "n", "genus": 10, "a": "7", "b0": "1", "b": ["1", "1", "-1", "1", "1"]}',
    # read as a > 0 or b0 > 0 allowed, a = 0 certifies GENERAL_TYPE and b0 = 0 divides by zero
    "zero-a": '{"name": "z", "genus": 10, "a": "0", "b0": "1"}',
    "zero-b0": '{"name": "z", "genus": 10, "a": "7", "b0": "0/5"}',
    "array": "[1, 2]",
}

# the decode faults name the divisor file instead of printing a bare json or
# codec message; a b_i that is not positive gives the whole line below
_DIVISOR_FILE_PREFIXES = {
    "empty": "error: divisor file is not valid JSON: ",
    "not-json": "error: divisor file is not valid JSON: ",
    "not-utf8": "error: cannot read divisor file: ",
    "zero-b": "error: all boundary coefficients b_i must be positive\n",
    "negative-b": "error: all boundary coefficients b_i must be positive\n",
    "zero-a": "error: divisor needs a > 0 and b0 > 0, got a=0, b0=1\n",
    "zero-b0": "error: divisor needs a > 0 and b0 > 0, got a=7, b0=0\n",
    "array": "error: divisor file must hold a JSON object\n",
}


@pytest.mark.parametrize("case", sorted(_DIVISOR_FILE_FAULTS))
def test_malformed_divisor_file_exits_two(capsys, tmp_path, case):
    path = tmp_path / f"{case}.json"
    content = _DIVISOR_FILE_FAULTS[case]
    if isinstance(content, bytes):
        path.write_bytes(content)
    elif content is not None:
        path.write_text(content)
    code, out, err = run(capsys, "classify", "-g", "10", "--divisor-file", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(_DIVISOR_FILE_PREFIXES.get(case, "error: ")) and err.count("\n") == 1


def test_unicode_label_with_leading_zero_exits_two(capsys):
    code, out, err = run(capsys, "pair", "B", "δ01", "-g", "5")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert run(capsys, "pair", "R", "β0", "-g", "5") == run(capsys, "pair", "R", "b0s", "-g", "5")


def test_pair_expression_with_leading_minus(capsys):
    # before -g, after it, and after "--" (where every later token is positional) on either side of CURVE
    for argv in (("R", "-1/2*lambda", "-g", "5"), ("R", "-g", "5", "-1/2*lambda"),
                 ("R", "-g", "5", "--", "-1/2*lambda"), ("-g", "5", "R", "--", "-1/2*lambda")):
        assert run(capsys, "pair", *argv) == (0, "-1584\n", ""), argv
    code, _, err = run(capsys, "pair", "R", "lambda", "-x", "-g", "5")
    assert code == 2
    assert "unrecognized arguments: -x" in err
    code, _, err = run(capsys, "pair", "R", "-g", "5", "--", "-1/2*lambda", "-x")
    assert code == 2
    assert "unrecognized arguments: -- -1/2*lambda -x" in err


def test_pair_with_nothing_after_the_separator_names_the_missing_expression(capsys):
    for argv in (("R", "-g", "5", "--"), ("-g", "5", "R", "--")):
        assert run(capsys, "pair", *argv) == (2, "", "error: pair needs CURVE and CLASSEXPR (or --dump)\n"), argv


_PARSE_CASES = [
    (),
    ("-h",),
    ("nosuch", "-g", "5"),
    ("--genus", "5", "classify"),
    ("classify", "-h"),
    ("classify", "--genus=9"),
    ("classify", "-g9", "--json"),
    ("classify", "-g", "9", "--div", "FILE"),
    ("classify", "-g", "9", "--nosuch"),
    ("counts", "-g", "5", "extra"),
    ("pair", "R", "-1/2*lambda", "-g", "5"),
    ("pair", "R", "-g", "5", "--", "-1/2*lambda"),
    ("pair", "R", "-g", "5", "--"),
    ("pair", "R", "lambda", "-x", "-g", "5"),
    ("class", "nosuch", "-g", "5"),
]


@pytest.mark.parametrize("argv", _PARSE_CASES)
def test_one_parse_matches_the_top_level_parser(capsys, monkeypatch, tmp_path, argv):
    # with no subcommand parsers to pick from, run parses every argv with the top-level parser
    path = tmp_path / "divisor.json"
    path.write_text(json.dumps({"name": "file", "genus": 9, "a": "12", "b0": "5/3"}))
    argv = [str(path) if token == "FILE" else token for token in argv]
    once = run(capsys, *argv)
    parser = cli._parsers()[0]
    monkeypatch.setattr(cli, "_parsers", lambda: (parser, {}))
    assert run(capsys, *argv) == once


def test_a_known_command_is_parsed_once(capsys, monkeypatch):
    parse, calls = argparse.ArgumentParser.parse_known_args, []

    def counting(self, *args, **kwargs):
        calls.append(self.prog)
        return parse(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counting)
    assert run(capsys, "pair", "R", "-g", "5", "--", "-1/2*lambda") == (0, "-1584\n", "")
    assert calls == ["spinpic pair"]


def test_classify_range_json_lines(capsys):
    code, out, _ = run(capsys, "classify", "--from", "7", "--to", "10", "--json")
    assert code == 0
    assert out.splitlines() == [
        json.dumps(kodaira.certificate_json(kodaira.classify(GenusCtx(g))), sort_keys=True)
        for g in range(7, 11)
    ]


def test_classify_range_of_one_genus(capsys):
    code, out, err = run(capsys, "classify", "--from", "9", "--to", "9", "--json")
    assert (code, err) == (0, "")
    assert out.splitlines() == [json.dumps(kodaira.certificate_json(kodaira.classify(GenusCtx(9))), sort_keys=True)]


@pytest.mark.parametrize("argv", (["-h"], ["classify", "-h"]))
def test_help_exits_zero(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.startswith("usage: spinpic")


@pytest.mark.parametrize("argv", [
    ("-g", "5", "--from", "3", "--to", "6"),
    ("-g", "5", "--to", "6"),
    ("--from", "3"),
    ("--from", "6", "--to", "5"),
    ("--from", "9", "--to", "10", "--divisor-file", "d.json"),
])
def test_classify_target_rules_exit_two(capsys, argv):
    code, out, err = run(capsys, "classify", *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_exit_code_classes():
    # cli.run exits 2 on a ValueError and 1 on any other SpinPicError
    domain = {name for name, c in vars(errors).items()
              if isinstance(c, type) and issubclass(c, errors.SpinPicError)}
    value_errors = {name for name in domain if issubclass(getattr(errors, name), ValueError)}
    assert value_errors == {
        "InputError", "MixedBasisError", "UnknownLabelError",
        "ClassSyntaxError", "SideMismatchError", "GenusMismatchError", "NotCompositeError",
        "DivisorSpecError",
    }
    assert domain - value_errors == {
        "SpinPicError", "SingularMatrixError", "SlopeViolationError", "VerificationFailureError", "EngineFaultError",
    }


def _spawn(*argv):
    """Start `python -m spinpic.cli argv` with this checkout's spinpic on the path."""
    return subprocess.Popen([sys.executable, "-m", "spinpic.cli", *argv], env=_sweep.env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def test_closed_pipe_exits_141_without_traceback():
    # about 150 KB of text, more than a 64 KiB pipe buffer holds
    with _spawn("classify", "--from", "3", "--to", "100") as proc:
        assert proc.stdout.readline() == "genus 3: UNIRULED\n"
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert "Traceback" not in err
    assert code == 141


@pytest.mark.parametrize("argv", [
    ("classify", "-g", "10000000"),
    ("verify", "--to", "1001"),
    ("classify", "--from", "3", "--to", "1001"),
    ("counts", "-g", "1001"),
])
def test_genus_above_ceiling_exits_two_at_once(argv):
    with _spawn(*argv) as proc:
        try:
            out, err = proc.communicate(timeout=30)
        finally:
            proc.kill()
    assert (proc.returncode, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_genus_at_ceiling_is_accepted(capsys):
    code, out, _ = run(capsys, "classify", "-g", str(cli.MAX_GENUS), "--json")
    assert code == 0 and json.loads(out)["genus"] == cli.MAX_GENUS


def test_a_library_report_above_ceiling_is_refused_before_its_first_genus():
    # the cli's ceiling is picard's, and build_report checks its range against it
    # as the cli does, instead of running 3..1000 before GenusCtx(1001) raises
    assert cli.MAX_GENUS == picard.MAX_GENUS == 1000
    done = []
    with pytest.raises(ValueError, match=r"^genus 1001 is above the maximum 1000$"):
        verify.build_report(3, 1001, _on_genus=lambda g, total: done.append(g))
    assert done == []


def _run_quiet(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.run(argv)
    assert code in (0, 1, 2), (argv, code)
    return code


_GENUS_TOKENS = st.integers(-3, 12).map(str) | st.sampled_from(["1001", "10000000", "x", "3.0", ""])
_TOKENS = st.one_of(
    _GENUS_TOKENS,
    st.sampled_from(["-g", "--from", "--to", "--json", "--dump", "--divisor-file", "--", "-", "-x",
                     "R", "B", "F0", "G1", "H0", "F9", "canonical-s", "bn", "D", "m1",
                     "lambda", "-1/2*lambda", "1/0*d0", "d01", "δ1", "a0 +", "b0s"]),
    st.text(alphabet="0123456789/*+- abdglmsδλβ", max_size=8),
)
_COMMANDS = st.sampled_from(["classify", "class", "pair", "solve-thetanull", "counts", "verify"])


@settings(max_examples=150, deadline=None)
@given(_COMMANDS, st.lists(_TOKENS, max_size=6))
def test_random_argv_exits_cleanly(command, tokens):
    argv = [command, *tokens]
    if command == "verify":
        argv += ["--to", "12"]  # verify's default range reaches genus 22
    _run_quiet(argv)


_WELL_TYPED = st.integers(1, 7) | st.builds("{}/{}".format, st.integers(1, 14), st.integers(1, 2))
_WRONGLY_TYPED = st.sampled_from([7.0, 1.5, True, False, None, [7], {"p": 7}])
_FIELDS = {  # a well-typed and a wrongly typed value for each field of a genus-10 divisor file
    "name": (st.text(max_size=8), st.sampled_from([5, None, True, 1.5, ["n"], {"n": "n"}])),
    "genus": (st.sampled_from([10, 9]), st.sampled_from([10.0, True, "10", None, [10]])),
    "a": (_WELL_TYPED, _WRONGLY_TYPED),
    "b0": (_WELL_TYPED, _WRONGLY_TYPED),
    "b": (st.lists(_WELL_TYPED, min_size=5, max_size=5) | st.none(),
          st.sampled_from(["22222", {"b": 2}, 2]) | st.lists(_WELL_TYPED, min_size=4, max_size=4).flatmap(
              lambda b: _WRONGLY_TYPED.map(lambda v: [*b, v]))),
}


@st.composite
def _divisor_files(draw):
    """A divisor file for genus 10, and the field that is wrongly typed in it, if any."""
    wrong = draw(st.sampled_from([None, *_FIELDS]))
    doc = {}
    for key, (good, bad) in _FIELDS.items():
        doc[key] = draw(bad if key == wrong else good)
    if doc["b"] is None:
        del doc["b"]
    return doc, wrong


@settings(max_examples=150, deadline=None)
@given(_divisor_files(), st.booleans())
def test_random_divisor_file_exits_cleanly(case, as_json):
    doc, wrong = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "divisor.json")
        path.write_text(json.dumps(doc))
        code = _run_quiet(["classify", "-g", "10", "--divisor-file", str(path), *(["--json"] if as_json else [])])
    if wrong is not None:
        assert code != 0, doc
