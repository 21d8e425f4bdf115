"""Every function defined in src/spinpic has a user, and this test says which.

A fresh interpreter runs `_COMMANDS` through `cli.run` and README's
```python block, as README.md holds it, under `sys.setprofile`, and
reports every code object of src/spinpic that was called, by its file and
first line. The process must be fresh: `cli._parsers` and `verify._flat`
are `functools.cache`d, so a warm process would skip them. Each `def` in src/spinpic must then have been
called, or be listed in `_USERS` with the user that needs it:

* a name in `spinpic.__all__`, or a member that README documents;
* the data model of a value (`hash`, `repr`, `copy`, an operator, ...);
* the console entry point that pyproject.toml declares;
* a failure path, with the Tier-1 test that reaches it.

A function that is neither called nor listed fails, and so does a listed
function that was called, or one that no longer exists. A def is matched
by its line and a code object by `co_firstlineno`, which is the line of
a decorated def's first decorator.
"""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import spinpic

_ROOT = Path(__file__).resolve().parent.parent
_SRC = _ROOT / "src" / "spinpic"
_README = (_ROOT / "README.md").read_text(encoding="utf-8")

# (argv, exit code); DIVISOR, SLOPE_ONLY, STEEP and BROKEN name divisor files the test writes
_COMMANDS = [
    (["classify", "-g", "5"], 0),
    (["classify", "-g", "8", "--json"], 0),
    (["classify", "-g", "9"], 0),
    (["classify", "-g", "10"], 0),
    (["classify", "-g", "23", "--json"], 0),
    (["classify", "--from", "3", "--to", "12"], 0),
    (["classify", "--from", "3", "--to", "12", "--json"], 0),
    (["classify", "-g", "9", "--divisor-file", "DIVISOR"], 0),
    (["classify", "-g", "9", "--divisor-file", "SLOPE_ONLY", "--json"], 0),
    (["classify", "-g", "9", "--divisor-file", "STEEP"], 1),
    (["classify", "-g", "9", "--divisor-file", "BROKEN"], 2),
    (["classify", "-g", "9", "--from", "3"], 2),
    (["classify", "--from", "9"], 2),
    (["classify", "--from", "3", "--to", "4", "--divisor-file", "DIVISOR"], 2),
    *[(["class", name, "-g", "9"], 0) for name in ("canonical-m", "canonical-s", "thetanull", "bn", "m1", "D")],
    (["class", "D", "-g", "10"], 2),
    (["class", "thetanull", "-g", "2"], 2),
    (["class", "thetanull", "-g", "1001"], 2),
    (["pair", "R", "canonical-s", "-g", "7"], 0),
    (["pair", "R", "-1/2*lambda", "-g", "5"], 0),
    (["pair", "R", "-g", "5", "--", "-1/2*lambda"], 0),
    (["pair", "F2", "2*a1 - 1/3*α2 + β0", "-g", "5"], 0),
    (["pair", "--dump", "-g", "6"], 0),
    (["pair", "--dump", "F2", "-g", "6"], 2),
    (["pair", "R", "-g", "5"], 2),
    (["pair", "X9", "lambda", "-g", "5"], 2),
    (["pair", "F2", "a1 a2", "-g", "5"], 2),
    (["pair", "F2", "a1 + x", "-g", "5"], 2),
    (["pair", "F2", "a9", "-g", "5"], 2),
    (["pair", "R", "lambda", "-g", "5", "x", "y"], 2),
    (["solve-thetanull", "-g", "5"], 0),
    (["counts", "-g", "2"], 0),
    (["counts", "-g", "3"], 0),
    (["verify", "--from", "3", "--to", "9"], 0),
    (["verify", "--from", "3", "--to", "5", "--json"], 0),
    (["verify", "--from", "5", "--to", "3"], 2),
    (["nosuch"], 2),
    (["--help"], 0),
    (["classify", "--help"], 0),
]

_DIVISORS = {
    "DIVISOR": {"name": "t", "genus": 9, "a": "12", "b0": "5/3", "b": ["7/2", "9/2", "16/3", "6"]},
    "SLOPE_ONLY": {"name": "t", "genus": 9, "a": 12, "b0": "5/3"},
    "STEEP": {"name": "t", "genus": 9, "a": 100, "b0": 1},
}

# Every def that the sweep does not call, with its user: (kind, evidence), each kind checked by _holds
_USERS = {
    "catalog.DivisorSpec.a": ("README", "its `a`, `b0`, `b`"),
    "catalog.DivisorSpec.b": ("README", "its `a`, `b0`, `b`"),
    "cli.main": ("entry point", 'spinpic = "spinpic.cli:main"'),
    "kodaira.Decomposition.c": ("README", "`dec.c`"),
    "kodaira.Decomposition.c_prime": ("README", "`dec.c_prime`"),
    "picard.DivisorClass.__add__": ("data model", "x + y"),
    "picard.DivisorClass.__neg__": ("data model", "-x"),
    "picard.DivisorClass.__reduce__": ("data model", "copy and pickle"),
    "picard.DivisorClass.__str__": ("data model", "str(x)"),
    "picard.DivisorClass.coeff": ("README", "`cls.coeff`"),
    "picard._Value.__hash__": ("data model", "hash(value)"),
    "picard._Value.__reduce__": ("data model", "copy and pickle"),
    "picard._Value.__repr__": ("data model", "repr(value)"),
    "picard._Value.__setattr__": ("data model", "value.field = x, refused"),
    "picard.zero_class": ("__all__", "zero_class"),
    "verify._crashed": ("failure path",
                        "test_verify_rows.py::test_a_crash_in_the_shared_setup_ends_the_genus_in_one_failed_check"),
    "verify._fmt": ("failure path", "test_verify_cost.py::test_failure_records_render_as_before"),
}

# the probe reads (commands, README's block) as JSON from stdin; it prints
# {"called": [[file, first line, name], ...], "codes": [...], "readme": stdout}
_PROBE = r"""
import contextlib, io, json, os, sys

commands, block = json.load(sys.stdin)
called = set()


def profile(frame, event, arg):
    if event == "call":
        called.add(frame.f_code)


sys.setprofile(profile)
from spinpic import cli

codes = []
for argv in commands:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes.append(cli.run(argv))
readme = io.StringIO()
with contextlib.redirect_stdout(readme):
    exec(compile(block, "README.md", "exec"), {})
sys.setprofile(None)
root = os.path.dirname(cli.__file__)
print(json.dumps({
    "called": sorted({(os.path.basename(c.co_filename), c.co_firstlineno, c.co_name) for c in called
                      if os.path.dirname(c.co_filename) == root}),
    "codes": codes,
    "readme": readme.getvalue(),
}))
"""


def _defs() -> dict[tuple[str, int, str], str]:
    """(file, line of the def or its first decorator, name) -> module.qualified.name, for every def in src/spinpic."""
    out = {}

    def walk(node, file, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                line = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out[file, line, child.name] = prefix + child.name
                walk(child, file, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                walk(child, file, f"{prefix}{child.name}.")
            else:
                walk(child, file, prefix)

    for path in sorted(_SRC.glob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), path.name, f"{path.stem}.")
    return out


def _readme_block() -> str:
    (block,) = re.findall(r"^```python\n(.*?)^```$", _README, re.M | re.S)
    return block


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("divisors")
    for name, doc in _DIVISORS.items():
        (tmp / name).write_text(json.dumps(doc), encoding="utf-8")
    (tmp / "BROKEN").write_text('{"name": "t", "name": "u"}', encoding="utf-8")
    commands = [[str(tmp / a) if a in (*_DIVISORS, "BROKEN") else a for a in argv] for argv, _ in _COMMANDS]
    path = os.pathsep.join(filter(None, [str(_SRC.parent), os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", _PROBE], input=json.dumps([commands, _readme_block()]),
                         env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, check=True)
    return json.loads(run.stdout)


def test_the_sweep_exits_as_each_command_should(sweep):
    assert sweep["codes"] == [code for _, code in _COMMANDS]


def test_every_function_is_called_or_has_a_listed_user(sweep):
    defs = _defs()
    uncalled = set(defs.values()) - {defs[tuple(key)] for key in sweep["called"] if tuple(key) in defs}
    assert sorted(uncalled - set(_USERS)) == [], "no user: call each from src, or delete it"
    assert sorted(set(_USERS) - uncalled) == [], "listed in _USERS, but called by the sweep or not defined"


def _holds(name: str, kind: str, evidence: str) -> bool:
    if kind == "__all__":
        return evidence in spinpic.__all__ and name.endswith("." + evidence)
    if kind == "README":
        return evidence in _README
    if kind == "data model":
        return re.fullmatch(r"__\w+__", name.rpartition(".")[2]) is not None
    if kind == "entry point":
        return evidence in (_ROOT / "pyproject.toml").read_text(encoding="utf-8")
    if kind == "failure path":
        file, test = evidence.split("::")
        return f"\ndef {test}(" in (_ROOT / "tests" / file).read_text(encoding="utf-8")
    return False


def test_each_listed_user_is_there():
    assert [name for name, user in _USERS.items() if not _holds(name, *user)] == []


def test_readme_example_prints_what_its_comments_say(sweep):
    # each print(...) of the block gives one line, and a trailing comment names it
    prints = [line for line in _readme_block().splitlines() if line.startswith("print(")]
    printed = sweep["readme"].splitlines()
    assert len(printed) == len(prints)
    commented = [(line.partition("#")[2].strip(), out) for line, out in zip(prints, printed) if "#" in line]
    assert commented and all(want == out for want, out in commented), commented
