"""Every function defined in src/spinpic has a user, and this test says which.

`_sweep.run()` runs a fixed set of commands through `cli.run` and README's
```python block, as README.md holds it, under `sys.setprofile` in a fresh
interpreter, and reports every def of src/spinpic that was called. The
process must be fresh: `cli._parsers` and `verify._flat` are
`functools.cache`d, so a warm process would skip them. Each `def` in
src/spinpic must then have been called, or be listed in `_USERS` with the
user that needs it:

* a name in `spinpic.__all__`, or a member that README documents;
* the data model of a value (`hash`, `repr`, `copy`, an operator, ...);
* the console entry point that pyproject.toml declares;
* a failure path, with the Tier-1 test that reaches it.

A function that is neither called nor listed fails, and so does a listed
function that was called, or one that no longer exists.
"""

import re
from pathlib import Path

import pytest

import _sweep
import spinpic

_ROOT = Path(__file__).resolve().parent.parent

# Every def that the sweep does not call, with its user: (kind, evidence), each kind checked by _holds
_USERS = {
    "catalog.DivisorSpec.a": ("README", "its `a`, `b0`, `b`"),
    "catalog.DivisorSpec.b": ("README", "its `a`, `b0`, `b`"),
    "cli.main": ("entry point", 'spinpic = "spinpic.cli:main"'),
    "kodaira.Decomposition.__init__": ("data model", "Decomposition(...) by hand, copy and pickle"),
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


@pytest.fixture(scope="module")
def sweep():
    return _sweep.run()


def test_the_sweep_exits_as_each_command_should(sweep):
    assert sweep["codes"] == [code for _, code in _sweep.COMMANDS]


def test_every_function_is_called_or_has_a_listed_user(sweep):
    uncalled = set(_sweep.defs().values()) - set(sweep["called"])
    assert sorted(uncalled - set(_USERS)) == [], "no user: call each from src, or delete it"
    assert sorted(set(_USERS) - uncalled) == [], "listed in _USERS, but called by the sweep or not defined"


def _holds(name: str, kind: str, evidence: str) -> bool:
    if kind == "__all__":
        return evidence in spinpic.__all__ and name.endswith("." + evidence)
    if kind == "README":
        return evidence in _sweep.README
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
    prints = [line for line in _sweep.readme_block().splitlines() if line.startswith("print(")]
    printed = sweep["readme"].splitlines()
    assert len(printed) == len(prints)
    commented = [(line.partition("#")[2].strip(), out) for line, out in zip(prints, printed) if "#" in line]
    assert commented and all(want == out for want, out in commented), commented
