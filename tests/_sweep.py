"""One counting sweep over fixed commands, in a fresh interpreter: what the reachability and cost tests read.

Run as a script (`PYTHONPATH=src python tests/_sweep.py`; `run()` starts
one), it runs, under
`sys.setprofile` and in this order, `COSTS`, `COMMANDS` through `cli.run`
and README's ```python block, and prints one JSON document:

* "costs": for each command of `COSTS`, its rows, each a count above 0:
  - `module.qualname`, the calls of a def in src/spinpic (a generator
    counts each start and resume);
  - `module.qualname <- caller` for a def of `BY_CALLER`, its calls by the
    nearest calling def in src/spinpic;
  - `fractions.Fraction <- caller`, the Fractions that a frame of src/spinpic
    built directly, by its nearest def. Those that Fraction's arithmetic
    builds are left out: their number depends on the Python version.
  A comprehension, a generator expression or a lambda is not a def: their
  code objects differ between Python versions, so no row names one.
* "called": every def called by any command, the import or README's block;
* "codes": each command of `COMMANDS`'s exit code;
* "readme": what README's block printed.

One process runs every command, so each command's rows hold what the
commands before it left cached, such as `cli._parsers` for the first.
`run()` starts the script once per test session, and `assert_linear`
checks one of the `LINEAR` rows, whose counts grow linearly in h. `child`
runs every test's fresh interpreter; a failed one raises with its stderr.
"""

import ast
import contextlib
import functools
import io
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
from collections import Counter
from fractions import Fraction
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
SRC = _ROOT / "src" / "spinpic"
README = (_ROOT / "README.md").read_text(encoding="utf-8")

# a 2000-term class expression at genus 40 (h = 20) that repeats each curve-side label
_TERMS = " + ".join(f"{k % 7 + 1}/{k % 5 + 1}*{['lambda', *(f'd{i}' for i in range(21))][k % 22]}" for k in range(2000))

# each command's argv, split; TERMS stands for _TERMS
COSTS = [
    "verify --from 3 --to 22 --json",
    *(f"verify --from {g} --to {g} --json" for g in (20, 30, 40, 60, 80, 160)),
    *(f"classify -g {g} --json" for g in (9, 12, 14, 401, 699, 700, 999)),
    "pair B TERMS -g 40",
]

# the defs whose rows are keyed by caller
BY_CALLER = (
    "testcurves.curve_map", "testcurves.covering_curve",
    "transfer.even_component_degree", "transfer.odd_component_degree", "transfer.total_degree",
    "catalog.canonical_m", "catalog.canonical_s", "catalog.thetanull_class", "catalog.m1_theta_class",
    "catalog._own_d",
)

# (argv, exit code); DIVISOR, SLOPE_ONLY, STEEP and BROKEN name divisor files that the sweep writes
COMMANDS = [
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
    "DIVISOR": '{"name": "t", "genus": 9, "a": "12", "b0": "5/3", "b": ["7/2", "9/2", "16/3", "6"]}',
    "SLOPE_ONLY": '{"name": "t", "genus": 9, "a": 12, "b0": "5/3"}',
    "STEEP": '{"name": "t", "genus": 9, "a": 100, "b0": 1}',
    "BROKEN": '{"name": "t", "name": "u"}',
}


@functools.cache
def defs() -> dict[tuple[str, int, str], str]:
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

    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), path.name, f"{path.stem}.")
    return out


def readme_block() -> str:
    (block,) = re.findall(r"^```python\n(.*?)^```$", README, re.M | re.S)
    return block


_calls = Counter()  # code -> calls
_keyed = Counter()  # (code, the nearest calling def's code, or None) -> calls
_NEW = Fraction.__new__.__code__
_watched = {_NEW}  # the codes whose calls _keyed counts by caller
_files = set()  # src/spinpic's files, known once spinpic is imported


def _caller(frame):
    """The nearest def of src/spinpic at or above frame, past comprehensions, generator expressions and lambdas."""
    while frame is not None and frame.f_code.co_filename in _files:
        if not frame.f_code.co_name.startswith("<"):
            return frame.f_code
        frame = frame.f_back
    return None


def _profile(frame, event, arg):
    if event == "call":
        code = frame.f_code
        _calls[code] += 1
        if code in _watched and frame.f_back is not None and frame.f_back.f_code.co_filename in _files:
            _keyed[code, _caller(frame.f_back)] += 1


def _rows(names) -> dict[str, int]:
    """The rows of what _calls and _keyed hold, which both clears; no profile may run."""
    def name(code):
        return names.get((os.path.basename(code.co_filename), code.co_firstlineno, code.co_name)) if code else "-"

    rows = {name(code): n for code, n in _calls.items() if name(code) not in (None, *BY_CALLER)}
    for (code, caller), n in _keyed.items():
        row = f"{'fractions.Fraction' if code is _NEW else name(code)} <- {name(caller)}"
        rows[row] = rows.get(row, 0) + n
    _calls.clear()
    _keyed.clear()
    return rows


def main() -> dict:
    names = defs()
    sys.setprofile(_profile)
    from spinpic import cli

    _files.update(m.__file__ for name, m in sys.modules.items() if name.startswith("spinpic"))
    _watched.update(getattr(sys.modules[f"spinpic.{m}"], f).__code__ for m, f in (n.split(".") for n in BY_CALLER))
    called = set(_calls)
    _calls.clear()
    _keyed.clear()
    costs, codes = {}, []
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in _DIVISORS.items():
            Path(tmp, name).write_text(text, encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            for command in COSTS:
                cli.run([_TERMS if a == "TERMS" else a for a in shlex.split(command)])
                sys.setprofile(None)
                called |= set(_calls)
                costs[command] = _rows(names)
                sys.setprofile(_profile)
            for argv, _ in COMMANDS:
                codes.append(cli.run([str(Path(tmp, a)) if a in _DIVISORS else a for a in argv]))
    readme = io.StringIO()
    with contextlib.redirect_stdout(readme):
        exec(compile(readme_block(), "README.md", "exec"), {})
    sys.setprofile(None)
    called |= set(_calls)
    return {
        "costs": costs,
        "called": sorted({n for c in called if (n := names.get((os.path.basename(c.co_filename), c.co_firstlineno,
                                                                 c.co_name)))}),
        "codes": codes,
        "readme": readme.getvalue(),
    }


def env() -> dict[str, str]:
    """os.environ with this checkout's src first on PYTHONPATH, for a fresh interpreter."""
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))}


def child(*args) -> str:
    """What `python *args` (a script, or "-c" and code) prints with this checkout's spinpic; a failure raises with
    its stderr."""
    done = subprocess.run([sys.executable, *map(str, args)], env=env(), capture_output=True, text=True)
    if done.returncode:
        raise RuntimeError(f"{' '.join(map(str, args))} exited {done.returncode}; its stderr:\n{done.stderr}")
    return done.stdout


@functools.cache
def run() -> dict:
    """main() in a fresh interpreter, once per test session: its caches start cold."""
    return json.loads(child(__file__))


# (row, verify's genus g): a count a*h + b with b >= 0 at most doubles from g to 2g,
# where one call per (i, j) of the compat block would nearly quadruple
LINEAR = {"transfer.pullback": 40, "testcurves.intersect": 80}


def assert_linear(row: str) -> None:
    """row's count at verify 2g, g its LINEAR genus, is above its count at g and at most twice it."""
    small, big = (run()["costs"][f"verify --from {g} --to {g} --json"].get(row, 0)
                  for g in (LINEAR[row], 2 * LINEAR[row]))
    assert small < big <= 2 * small, (row, small, big)


if __name__ == "__main__":
    print(json.dumps(main(), indent=1, sort_keys=True))
