"""The work of each command in `_sweep.COSTS`, pinned row by row in tests/costs.json.

A row is a count of calls of one def in src/spinpic, or of the Fractions
that one def built directly (see `_sweep`'s docstring). The table is exact:
a count that rises fails, and so does one that falls, until the same change
re-pins the table, so the diff of costs.json shows what a change did to the
work. To re-pin, run this file as a script: `python tests/test_costs.py`.
"""

import json
from pathlib import Path

import pytest

import _sweep

_TABLE = Path(__file__).with_name("costs.json")


def changes(pinned: dict, swept: dict) -> list[str]:
    """Every row whose count differs, as "command: row old -> new", where a row that is not there reads 0."""
    out = []
    for command in sorted(pinned.keys() | swept.keys()):
        old, new = pinned.get(command, {}), swept.get(command, {})
        out += [f"{command}: {row} {old.get(row, 0)} -> {new.get(row, 0)}"
                for row in sorted(old.keys() | new.keys()) if old.get(row) != new.get(row)]
    return out


def test_every_count_is_as_pinned():
    assert changes(json.loads(_TABLE.read_text(encoding="utf-8")), _sweep.run()["costs"]) == [], \
        "a count moved: if the change means it, re-pin by `python tests/test_costs.py`"


def test_work_grows_linearly_in_h():
    for row in _sweep.LINEAR:
        _sweep.assert_linear(row)


def test_a_crashing_sweep_raises_with_its_stderr(tmp_path):
    # the child's traceback, such as one that a renamed BY_CALLER entry gives, is in the error, for a script or -c code
    code = "import spinpic.transfer\nraise LookupError('no def transfer.renamed')\n"
    script = tmp_path / "crash.py"
    script.write_text(code)
    for args in ((script,), ("-c", code)):
        with pytest.raises(RuntimeError) as info:
            _sweep.child(*args)
        message = str(info.value)
        head = f"{' '.join(map(str, args))} exited 1; its stderr:\nTraceback (most recent call last):\n"
        assert message.startswith(head)
        assert message.endswith("\nLookupError: no def transfer.renamed\n")


_PINNED = {
    "verify --from 3 --to 3": {"picard.parse_class": 4, "transfer.pullback": 2},
    "classify -g 9": {"kodaira.classify": 1},
}


def test_a_moved_count_is_named_with_its_command_and_row():
    assert changes(_PINNED, json.loads(json.dumps(_PINNED))) == []
    risen = {**_PINNED, "classify -g 9": {"kodaira.classify": 2}}
    fallen = {**_PINNED, "verify --from 3 --to 3": {"picard.parse_class": 3, "transfer.pullback": 2}}
    new = {**_PINNED, "classify -g 9": {"kodaira.classify": 1, "picard._sum_terms": 5}}
    gone = {**_PINNED, "verify --from 3 --to 3": {"picard.parse_class": 4}}
    assert [changes(_PINNED, swept) for swept in (risen, fallen, new, gone)] == [
        ["classify -g 9: kodaira.classify 1 -> 2"],
        ["verify --from 3 --to 3: picard.parse_class 4 -> 3"],
        ["classify -g 9: picard._sum_terms 0 -> 5"],
        ["verify --from 3 --to 3: transfer.pullback 2 -> 0"],
    ]


if __name__ == "__main__":
    _TABLE.write_text(json.dumps(_sweep.run()["costs"], indent=1, sort_keys=True) + "\n", encoding="utf-8")
