"""Every class that skips the public constructor's validation is checked here, for the whole session.

picard._trusted builds a class from what its callers promise: int
numerators and den, den >= 1, gcd(den, *num) = 1, no zero numerator, and
every label in genus g's basis for its side. The binding of _trusted in
each module that calls it is wrapped from the start of the session to its
end, so every kernel output, closed form, test curve and pullback is
checked as it is built. The wrapper returns the same class, and records
each broken promise as (genus, side, breach). A test that records anything
fails, unless it asks for the record, the fixture trusted_record, and
asserts on it.

Genus g's basis is the one that spinpic._oracle spells apart from picard,
bound at session start as each _trusted is, so a test that patches the
oracle leaves this check as it was: the wrapper neither calls
picard._basis, whose calls some tests count, nor reads picard's label
table, which some tests misspell or watch.

kodaira._trusted_decomposition, decompose_canonical's way past the public
Decomposition constructor's check, is wrapped the same way: each
decomposition it builds is rebuilt by that constructor, whose refusal is
recorded as (genus, "decomposition", message).
"""

from functools import lru_cache
from math import gcd

import pytest

from spinpic import _oracle, catalog, kodaira, picard, testcurves, transfer

_MODULES = (picard, catalog, testcurves, transfer)  # each calls _trusted by its own binding
_ORIGINALS = {}
_RECORD: list[tuple[int, str, str]] = []
_basis = None  # bound at session start: (g, side) -> the oracle's genus g basis labels on the side, as a set


def _breaches(ctx, side, num, den) -> list[str]:
    """What the arguments of one _trusted call break of its contract, in words: none costs a few set operations."""
    found = []
    if not num.keys() <= (basis := _basis(ctx.g, side)):
        found += [f"label {label!r}" for label in num if label not in basis]
    if 0 in num.values():
        found += [f"zero {label!r}" for label, n in num.items() if n == 0]
    if type(den) is not int or not set(map(type, num.values())) <= {int}:  # gcd takes ints only
        return found + [f"non-int {den!r}, {list(num.values())!r}"]
    if den < 1:
        found.append(f"den {den}")
    elif den != 1 and (k := gcd(den, *num.values())) != 1:
        found.append(f"gcd {k}")
    return found


def _checked(trusted):
    def checked(ctx, side, num, den):
        if breaches := _breaches(ctx, side, num, den):
            _RECORD.extend((ctx.g, side, breach) for breach in breaches)
        return trusted(ctx, side, num, den)

    return checked


def _checked_decomposition(trusted):
    def checked(spec, *fields):
        try:
            kodaira.Decomposition(spec, *fields)
        except ValueError as refused:
            _RECORD.append((spec.ctx.g, "decomposition", str(refused)))
        return trusted(spec, *fields)

    return checked


def pytest_sessionstart(session):
    global _basis
    _basis = lru_cache(maxsize=None)(lambda g, side, spell=_oracle.basis: frozenset(spell(g, side)))
    for module in _MODULES:
        _ORIGINALS[module, "_trusted"] = module._trusted
        module._trusted = _checked(module._trusted)
    _ORIGINALS[kodaira, "_trusted_decomposition"] = kodaira._trusted_decomposition
    kodaira._trusted_decomposition = _checked_decomposition(kodaira._trusted_decomposition)


def pytest_sessionfinish(session):
    for (module, name), trusted in _ORIGINALS.items():
        setattr(module, name, trusted)


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    # what was recorded since the last test's call, its teardown and collection included, counts against this one
    try:
        result = yield
    finally:
        record = _RECORD[:]
        _RECORD.clear()
    if record and "trusted_record" not in item.fixturenames:
        raise AssertionError(f"{len(record)} breaches of a trusted builder's contract, the first: {record[:5]}")
    return result


@pytest.fixture
def trusted_record():
    """The breaches of a trusted builder's contract that this test records, as (genus, side, breach)."""
    return _RECORD
