"""The runtime package stays stdlib-only, quick to start, and writes each primitive once.

Every import in src/spinpic is stdlib or spinpic, and none is dataclasses:
importing it also loads inspect, ast, dis and tokenize, a large share of a
short CLI command's time, so the value classes are written out by hand.
The same ast walk keeps two primitives in one home: only
picard._unknown_labels builds an UnknownLabelError, and no module reaches
into testcurves' private names, so every pairing goes through intersect.
Only picard._trusted, catalog._own_d and kodaira._trusted_decomposition
build a value by object.__new__, past its constructor, so no fourth
unvalidated construction path appears,
and only picard._Value._init sets a field by object.__setattr__, so no
constructor rewrites a field after setting it. _trusted itself is called
only at a listed set of sites, the kernel _sum_terms and the closed forms,
so no module grows a reduce-and-trust path of its own beside the kernel.
Likewise only kodaira._rk_is_evidence compares a genus with MAX_RK_GENUS,
kodaira raises VerificationFailureError only where it certifies evidence or
checks a decomposition, so the sign rules keep one home in certify, and
only picard._spell spells an indexed label, besides _oracle's
independent spellings, which verify reads and which import nothing of
spinpic, with verify their only importer; _spell runs once, at import, and
no other module reads the maps under picard's label table, while verify
reads no part of it.
picard alone defines MAX_GENUS, the genus ceiling that GenusCtx and the
cli share.
It also keeps one kind of value: every class outside errors.py derives from
picard._Value, and none computes a field lazily through cached_property.
And it keeps one writer of indented JSON: no call passes an indent, to
json.dumps, json.dump or anything else, and only verify's writer builds a
json.JSONEncoder.
"""

import ast
import sys
from pathlib import Path

import pytest

import _sweep
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
    probe = f"import sys, spinpic.cli; print(sorted({sorted(SLOW_TO_IMPORT)} & sys.modules.keys()))"
    assert _sweep.child("-c", probe) == "[]\n"


def _sites(path: Path, hit) -> list[str]:
    """The innermost enclosing function of each node of the module that hit(node) holds for ('' at module level)."""
    found = []

    def visit(node, where):
        if hit(node):
            found.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else where)

    visit(ast.parse(path.read_text(), filename=str(path)), "")
    return found


def _call_sites(path: Path, name: str) -> list[str]:
    """Each call to `name` or `x.name`, by _sites; a dotted name, such as `object.__new__`, matches only so spelled."""
    return _sites(path, lambda node: isinstance(node, ast.Call) and name in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None), ast.unparse(node.func)))


def test_only_picard_unknown_labels_builds_an_unknown_label_error():
    sites = [(path.name, where) for path in sorted(PACKAGE.glob("*.py")) for where in _call_sites(path, "UnknownLabelError")]
    assert sites == [("picard.py", "_unknown_labels")]


def test_only_trusted_and_own_d_call_object_new():
    # object.__new__ skips a value's constructor and its validation: picard._trusted builds the
    # kernel's classes so, catalog._own_d the genus's own divisor spec and
    # kodaira._trusted_decomposition decompose_canonical's decomposition, and no fourth path may
    sites = [(path.name, where) for path in sorted(PACKAGE.glob("*.py"))
             for where in _call_sites(path, "object.__new__")]
    assert sites == [("catalog.py", "_own_d"), ("kodaira.py", "_trusted_decomposition"), ("picard.py", "_trusted")]


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


def _names(nodes) -> set:
    """The id of each name and the attr of each attribute among the nodes, and None for any other node."""
    return {getattr(n, "id", getattr(n, "attr", None)) for n in nodes}


def test_only_rk_is_evidence_compares_with_max_rk_genus():
    def compares(node):
        return isinstance(node, ast.Compare) and "MAX_RK_GENUS" in _names([node.left, *node.comparators])

    assert [where for path in sorted(PACKAGE.glob("*.py")) for where in _sites(path, compares)] == ["_rk_is_evidence"]


def test_kodaira_raises_verification_failures_only_where_it_certifies():
    def raises(node):  # raise E or raise E(...)
        exc = getattr(node, "exc", None)
        return isinstance(node, ast.Raise) and "VerificationFailureError" in _names([getattr(exc, "func", exc)])

    sites = _sites(PACKAGE / "kodaira.py", raises)
    assert sorted(set(sites)) == ["certify", "decompose_canonical", "remainders_nonnegative"]


def _is_label_fstring(node) -> bool:
    """An f-string that is exactly a label letter d, a or b and one expression.

    f"d{i}" is one; a longer f-string that names labels, such as
    f"a{i}+b{i}=even", is a check name, not a label.
    """
    return (isinstance(node, ast.JoinedStr) and len(node.values) == 2 and isinstance(node.values[0], ast.Constant)
            and node.values[0].value in ("d", "a", "b") and isinstance(node.values[1], ast.FormattedValue))


# the maps under picard's label table and its writer, which no other module reads: the engine modules read the
# table through _LABELS and _basis
_RAW_LABELS = {"_M", "_S", "_spell"}


def test_only_picard_and_the_oracle_spell_a_label():
    # picard._spell spells each of the engine's labels once per process, at
    # import, and _oracle spells its own for verify, which spells none, to
    # check them without reading picard's
    sites = {path.name: where for path in sorted(PACKAGE.glob("*.py")) if (where := _sites(path, _is_label_fstring))}
    assert sites.keys() == {"picard.py", "_oracle.py"}, sites
    assert sites["picard.py"] == ["_spell"] * 3, sites
    assert sites["_oracle.py"] == ["basis"] * 3 + ["curve_table"] * 2, sites
    assert _call_sites(PACKAGE / "picard.py", "_spell") == [""]  # at module level: once, at import
    assert _RAW_LABELS | {"_LABELS", "_basis"} <= vars(picard).keys()
    reads = {path.name: names for path in sorted(PACKAGE.glob("*.py")) if path.name != "picard.py"
             if (names := _RAW_LABELS & set(_private_names_read(path, "picard")))}
    assert reads == {}
    # nor the table: verify checks picard's labels against the oracle's spellings
    assert {"_LABELS", "_basis"}.isdisjoint(_private_names_read(PACKAGE / "verify.py", "picard"))


def test_the_oracle_imports_no_spinpic_module_and_only_verify_imports_it():
    # _oracle writes the expected sides apart from the engine: it reads none of it, and no engine module reads it
    imports = {path.name: [ast.unparse(node) for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
                           if isinstance(node, (ast.Import, ast.ImportFrom))] for path in sorted(PACKAGE.glob("*.py"))}
    assert imports["_oracle.py"] == ["from fractions import Fraction", "from math import gcd, isqrt"]
    assert [name for name, lines in imports.items() if any("_oracle" in line for line in lines)] == ["verify.py"]


def test_only_picard_defines_max_genus():
    # GenusCtx refuses a genus above it, and the cli and verify check a range against the same constant first
    sites = [path.name for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Name) and node.id == "MAX_GENUS" and isinstance(node.ctx, ast.Store)]
    assert sites == ["picard.py"]


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
