"""The runtime package stays stdlib-only, quick to start, and writes each primitive once.

Every import in src/spinpic is stdlib or spinpic, and none is dataclasses:
importing it also loads inspect, ast, dis and tokenize, a large share of a
short CLI command's time, so the value classes are written out by hand.
The same ast walk keeps two primitives in one home: only
picard._unknown_labels builds an UnknownLabelError, and no module reaches
into testcurves' private names, so every pairing goes through intersect.
Only picard._trusted and catalog._own_d build a value by object.__new__,
past its constructor, so no third unvalidated construction path appears,
and only picard._Value._init sets a field by object.__setattr__, so no
constructor rewrites a field after setting it. _trusted itself is called
only at a listed set of sites, the kernel _sum_terms and the closed forms,
so no module grows a reduce-and-trust path of its own beside the kernel.
Likewise only kodaira._rk_is_evidence compares a genus with MAX_RK_GENUS,
kodaira raises VerificationFailureError only where it certifies evidence or
checks a decomposition, so the sign rules keep one home in certify, and
only picard._spell spells an indexed label, besides verify's own
independent spellings, and no other module reads the label sequences
except through picard's accessors, which verify calls only once, in
build_report, to spell the sequences past its range, reading nothing back.
It also keeps one kind of value: every class outside errors.py derives from
picard._Value, and none computes a field lazily through cached_property.
And it keeps one writer of indented JSON: no call passes an indent, to
json.dumps, json.dump or anything else, and only verify's writer builds a
json.JSONEncoder.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from spinpic import picard

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "spinpic"
SLOW_TO_IMPORT = {"dataclasses", "inspect"}


def _imported_roots(path: Path) -> set[str]:
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_only_stdlib(path):
    roots = _imported_roots(path)
    foreign = roots - set(sys.stdlib_module_names) - {"spinpic"}
    assert not foreign, f"{path.name} imports {sorted(foreign)}"
    assert not roots & SLOW_TO_IMPORT, f"{path.name} imports {sorted(roots & SLOW_TO_IMPORT)}"


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # a fresh interpreter with this checkout's spinpic first on the path, so
    # no module that this test process loaded counts
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    probe = f"import sys, spinpic.cli; print(sorted({sorted(SLOW_TO_IMPORT)} & sys.modules.keys()))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"


def _call_sites(path: Path, name: str) -> list[str]:
    """The innermost enclosing function of each call to `name` or `x.name` in the module ('' at module level).

    A dotted name, such as `object.__new__`, matches only a call spelled so.
    """
    found = []

    def visit(node, where):
        if isinstance(node, ast.Call) and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None),
                                                   ast.unparse(node.func)):
            found.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else where)

    visit(ast.parse(path.read_text(), filename=str(path)), "")
    return found


def test_only_picard_unknown_labels_builds_an_unknown_label_error():
    sites = [(path.name, where) for path in sorted(PACKAGE.glob("*.py")) for where in _call_sites(path, "UnknownLabelError")]
    assert sites == [("picard.py", "_unknown_labels")]


def test_only_trusted_and_own_d_call_object_new():
    # object.__new__ skips a value's constructor and its validation: picard._trusted builds the
    # kernel's classes so and catalog._own_d the genus's own divisor spec, and no third path may
    sites = [(path.name, where) for path in sorted(PACKAGE.glob("*.py"))
             for where in _call_sites(path, "object.__new__")]
    assert sites == [("catalog.py", "_own_d"), ("picard.py", "_trusted")]


def test_trusted_is_called_only_where_no_reduction_is_needed():
    # picard._trusted keeps its numerators and denominator as given. The kernel
    # reduces every sum it builds before it trusts one; each other site writes a
    # class in lowest terms by construction. A module that took its own gcd
    # and trusted the result would be a second reducer beside the kernel
    sites = sorted({(path.name, where) for path in sorted(PACKAGE.glob("*.py"))
                    for where in _call_sites(path, "_trusted")})
    assert sites == [
        ("catalog.py", "_own_d"), ("catalog.py", "_slot_class"), ("catalog.py", "canonical_m"),
        ("catalog.py", "m1_theta_class"), ("picard.py", "_sum_terms"), ("picard.py", "basis_class"),
        ("testcurves.py", "covering_curve"), ("testcurves.py", "curve_map"), ("transfer.py", "pullback"),
    ]


def test_only_value_init_calls_object_setattr():
    # _Value refuses assignment, so object.__setattr__ is the way past it; fields are set once, by _init
    sites = [(path.name, where) for path in sorted(PACKAGE.glob("*.py"))
             for where in _call_sites(path, "object.__setattr__")]
    assert sites == [("picard.py", "_init")]


def test_only_rk_is_evidence_compares_with_max_rk_genus():
    sites = []

    def visit(node, where):
        operands = [node.left, *node.comparators] if isinstance(node, ast.Compare) else []
        if any(getattr(n, "id", getattr(n, "attr", None)) == "MAX_RK_GENUS" for n in operands):
            sites.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, child.name if isinstance(child, ast.FunctionDef) else where)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), path.name)
    assert sites == ["_rk_is_evidence"]


def test_kodaira_raises_verification_failures_only_where_it_certifies():
    sites = []

    def visit(node, where):
        if isinstance(node, ast.Raise) and node.exc is not None:
            raised = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if getattr(raised, "id", getattr(raised, "attr", None)) == "VerificationFailureError":
                sites.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, child.name if isinstance(child, ast.FunctionDef) else where)

    path = PACKAGE / "kodaira.py"
    visit(ast.parse(path.read_text(), filename=str(path)), "")
    assert sorted(set(sites)) == ["certify", "decompose_canonical", "remainders_nonnegative"]


def _label_fstring_sites(path: Path) -> list[str]:
    """The innermost enclosing function of each f-string that is exactly a label letter d, a or b and one expression.

    f"d{i}" is one; a longer f-string that names labels, such as
    f"a{i}+b{i}=even", is a check name, not a label.
    """
    found = []

    def visit(node, where):
        if (isinstance(node, ast.JoinedStr) and len(node.values) == 2
                and isinstance(node.values[0], ast.Constant) and node.values[0].value in ("d", "a", "b")
                and isinstance(node.values[1], ast.FormattedValue)):
            found.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, child.name if isinstance(child, ast.FunctionDef) else where)

    visit(ast.parse(path.read_text(), filename=str(path)), "")
    return found


# picard's raw label sequences and their writer, which no other module reads: the accessors _spelled and _basis
# spell up to the genus first, so a module that read the raw sequences could find its genus's labels missing
_RAW_LABELS = {"_LABELS", "_M", "_S", "_spell"}


def test_only_picard_and_verify_spell_a_label():
    # picard._spell spells each of the engine's labels once per process, and
    # verify spells its own, to check them, without reading picard's
    sites = {path.name: where for path in sorted(PACKAGE.glob("*.py")) if (where := _label_fstring_sites(path))}
    assert sites.keys() == {"picard.py", "verify.py"}, sites
    assert sites["picard.py"] == ["_spell"] * 3, sites
    assert _RAW_LABELS <= vars(picard).keys()
    reads = {path.name: names for path in sorted(PACKAGE.glob("*.py")) if path.name != "picard.py"
             if (names := _RAW_LABELS & set(_private_names_read(path, "picard")))}
    assert reads == {}
    verify_py = PACKAGE / "verify.py"
    assert "_basis" not in _private_names_read(verify_py, "picard")
    # verify calls _spelled once, in build_report, to spell the engine's sequences
    # past its range, and reads nothing of what it returns
    assert _call_sites(verify_py, "_spelled") == ["build_report"]
    discarded = [node for node in ast.walk(ast.parse(verify_py.read_text()))
                 if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)
                 and getattr(node.value.func, "id", None) == "_spelled"]
    assert len(discarded) == 1


def _private_names_read(path: Path, module: str) -> list[str]:
    """Private names of spinpic.`module` that the file imports from it or reads as `module._name`."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.module in (module, f"spinpic.{module}"):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == module:
            names.append(node.attr)
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def test_no_module_reads_a_private_testcurves_name():
    reads = {path.name: names for path in sorted(PACKAGE.glob("*.py")) if path.name != "testcurves.py"
             if (names := _private_names_read(path, "testcurves"))}
    assert reads == {}


def test_every_class_is_a_value_or_an_error():
    # (file, class) -> the names of its bases, for every class statement outside errors.py
    bases = {(path.name, node.name): {getattr(b, "id", getattr(b, "attr", None)) for b in node.bases}
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "errors.py"
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path))) if isinstance(node, ast.ClassDef)}
    values = {"_Value"}  # grown to every class that derives from it, directly or not
    while grown := {name for (_, name), names in bases.items() if names & values} - values:
        values |= grown
    assert [key for key, names in bases.items() if key != ("picard.py", "_Value") and not names & values] == []


def test_no_module_uses_cached_property():
    uses = [path.name for path in sorted(PACKAGE.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if "cached_property" in (getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None))]
    assert uses == []


def test_verify_report_json_is_the_one_indented_json_writer():
    # json.dumps with an indent runs json's pure-Python encoder, and report_json writes the same bytes by
    # the C one; no call passes an indent at all, so neither json.dumps(..., indent=2) nor a partial of it
    # brings a second, slower path back
    indented = [(path.name, node.lineno) for path in sorted(PACKAGE.glob("*.py"))
                for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
                if isinstance(node, ast.Call) and any(k.arg == "indent" for k in node.keywords)]
    assert indented == []
    sites = [(path.name, where) for path in sorted(PACKAGE.glob("*.py")) for where in _call_sites(path, "JSONEncoder")]
    assert sites == [("verify.py", ""), ("verify.py", "_flat")]
