"""The runtime package stays stdlib-only and quick to start.

Every import in src/spinpic is stdlib or spinpic, and none is dataclasses:
importing it also loads inspect, ast, dis and tokenize, a large share of a
short CLI command's time, so the value classes are written out by hand.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

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
