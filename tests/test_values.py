"""The value classes behave as the frozen dataclasses they replace.

Each compares equal to an instance of its own class with equal fields and
returns NotImplemented for any other class, hashes or refuses to as
before, refuses field assignment (every value class is frozen), prints the
dataclass repr, survives copy, deep copy and pickle (a class rebuilds from a plain dict of its read-only coefficient
mapping, which does not pickle by itself), and takes its
fields positionally or by keyword with the old defaults. The validating
constructors run their `__post_init__` once per public construction.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from spinpic.catalog import BrillNoether, DivisorSpec, GiesekerPetri, K3, UserSupplied
from spinpic.kodaira import Decomposition, KodairaCertificate
from spinpic.picard import M_SIDE, DivisorClass, GenusCtx
from spinpic.verify import _Row

_SPEC_REPR = ("DivisorSpec(ctx=GenusCtx(g=12), provenance=UserSupplied(name='x'), "
              "a=Fraction(7, 1), b0=Fraction(1, 1), b=None)")


def _spec(b0=1):
    return DivisorSpec(GenusCtx(12), UserSupplied("x"), 7, b0)


# (class, fields, positional build, keyword build of an equal value, a different value or None,
#  repr, hashable)
_CASES = [
    (GenusCtx, ("g",), lambda: GenusCtx(9), lambda: GenusCtx(g=9), GenusCtx(10),
     "GenusCtx(g=9)", True),
    (DivisorClass, ("ctx", "side", "coeff"), lambda: DivisorClass(GenusCtx(5), M_SIDE, {"d0": 1, "d1": 0}),
     lambda: DivisorClass(ctx=GenusCtx(5), side=M_SIDE, coeff={"d0": Fraction(1)}), DivisorClass(GenusCtx(5), M_SIDE),
     "DivisorClass(ctx=GenusCtx(g=5), side='M', coeff=mappingproxy({'d0': Fraction(1, 1)}))", False),
    (BrillNoether, ("r", "d"), lambda: BrillNoether(1, 5), lambda: BrillNoether(r=1, d=5), BrillNoether(2, 5),
     "BrillNoether(r=1, d=5)", True),
    (K3, (), K3, K3, None, "K3()", True),
    (GiesekerPetri, ("k",), lambda: GiesekerPetri(6), lambda: GiesekerPetri(k=6), GiesekerPetri(7),
     "GiesekerPetri(k=6)", True),
    (UserSupplied, ("name",), lambda: UserSupplied("x"), lambda: UserSupplied(name="x"), UserSupplied("y"),
     "UserSupplied(name='x')", True),
    (DivisorSpec, ("ctx", "provenance", "a", "b0", "b"), _spec,
     lambda: DivisorSpec(ctx=GenusCtx(12), provenance=UserSupplied("x"), a=Fraction(7), b0=Fraction(1), b=None),
     _spec(b0=2), _SPEC_REPR, True),
    (Decomposition, ("d_spec", "nu", "den", "c_num", "c_prime_num"),
     lambda: Decomposition(_spec(), Fraction(1, 2), None, None, None),
     lambda: Decomposition(d_spec=_spec(), nu=Fraction(1, 2), den=None, c_num=None, c_prime_num=None),
     Decomposition(_spec(), Fraction(1, 3), None, None, None),
     f"Decomposition(d_spec={_SPEC_REPR}, nu=Fraction(1, 2), den=None, c_num=None, c_prime_num=None)", True),
    (KodairaCertificate, ("ctx", "verdict", "rk", "decomposition", "flags", "annotations", "citations"),
     lambda: KodairaCertificate(GenusCtx(9), "GENERAL_TYPE", None, None, (), (), ("x",)),
     lambda: KodairaCertificate(ctx=GenusCtx(9), verdict="GENERAL_TYPE", rk=None, decomposition=None,
                                flags=(), annotations=(), citations=("x",)),
     KodairaCertificate(GenusCtx(9), "GENERAL_TYPE", None, None, ("CONDITIONAL",), (), ("x",)),
     "KodairaCertificate(ctx=GenusCtx(g=9), verdict='GENERAL_TYPE', rk=None, decomposition=None, "
     "flags=(), annotations=(), citations=('x',))", True),
    (_Row, ("i", "h", "got"), lambda: _Row(1, 2, {("F", 1): Fraction(0)}),
     lambda: _Row(i=1, h=2, got={("F", 1): Fraction(0)}), _Row(1, 3, {("F", 1): Fraction(0)}),
     "_Row(i=1, h=2, got={('F', 1): Fraction(0, 1)})", False),
]


@pytest.mark.parametrize("cls,fields,build,build_by_keyword,different,text,hashable", _CASES,
                         ids=[case[0].__name__ for case in _CASES])
def test_value_semantics(cls, fields, build, build_by_keyword, different, text, hashable):
    value, same = build(), build_by_keyword()
    assert type(value) is cls and value is not same
    assert value == same and not value != same
    if different is not None:
        assert value != different and not value == different
    field_values = tuple(getattr(value, name) for name in fields)
    for other in (object(), field_values, K3() if cls is not K3 else GenusCtx(9)):
        assert value.__eq__(other) is NotImplemented and value != other
    if hashable:
        assert hash(value) == hash(same)
    else:
        with pytest.raises(TypeError):
            hash(value)
    assert repr(value) == text
    assert copy.copy(value) == value
    assert copy.deepcopy(value) == value and pickle.loads(pickle.dumps(value)) == value
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(same, name))


@pytest.mark.parametrize("cls,build", [
    (DivisorClass, lambda: DivisorClass(GenusCtx(5), M_SIDE, {"d0": 1})),
    (DivisorSpec, _spec),
], ids=["DivisorClass", "DivisorSpec"])
def test_public_construction_validates_once(cls, build, monkeypatch):
    original, seen = cls.__post_init__, []

    def counting(self, *args):  # a spec's __post_init__ takes a, b0 and b, which its class replaces
        seen.append(self)
        original(self, *args)

    monkeypatch.setattr(cls, "__post_init__", counting)
    value = build()
    assert len(seen) == 1 and seen[0] is value
