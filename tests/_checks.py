"""verify's per-genus identities one by one, as the tests read them.

`run_genus(g)` lists the stream of `verify._identities(g)`, the one that
`verify.build_report` counts, as `Check`s with both sides rendered by
`verify._fmt`. Each compat row family is expanded over every j in stream
order: an entry that fails is taken from the row's own `failures()`, so a
fault reaches the list through the package's row evaluator, and an entry
that passes renders its got on both sides, since equal values render
alike.

`label_reads(monkeypatch, module)` binds a recorder in place of the
module's `_LABELS`, picard's label table, and returns the list of the
table's attributes that the module then reads.
"""

from typing import NamedTuple

from spinpic import picard, verify


class _Recorder:
    """picard's label table, behind a log of each attribute read of it."""

    def __init__(self, log: list[str]) -> None:
        self._log = log

    def __getattr__(self, name: str):
        self._log.append(name)
        return getattr(picard._LABELS, name)


def label_reads(monkeypatch, module) -> list[str]:
    log = []
    monkeypatch.setattr(module, "_LABELS", _Recorder(log))
    return log


class Check(NamedTuple):
    name: str
    ok: bool
    expected: str
    got: str


def _rendered(name, expected, got) -> Check:
    return Check(name, expected == got, verify._fmt(expected), verify._fmt(got))


def _expanded(row):
    failed = {name: (expected, got) for name, expected, got in row.failures()}
    for j in range(row.h + 1):
        for kind in "FG":
            name = f"compat:{kind}{row.i}:d{j}"
            if name in failed:
                yield _rendered(name, *failed[name])
            else:
                got = verify._fmt(row.got.get((kind, j), 0))
                yield Check(name, True, got, got)


def run_genus(g: int) -> list[Check]:
    """Every per-genus identity as a `Check`, in order, row families expanded; g >= 3."""
    checks = []
    for item in verify._identities(g):
        checks += _expanded(item) if isinstance(item, verify._Row) else [_rendered(*item)]
    return checks
