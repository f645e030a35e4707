"""The five value types are immutable namedtuples.

Each is built by position or by keyword, compares and hashes by value,
refuses assignment and survives a pickle round trip.  Each is a tuple of
its fields, and compares equal to the plain tuple of them.  Their checks
on construction are pinned beside their other tests, in test_catalog and
test_modules.
"""

import pickle
from operator import is_

import pytest

from fourspace import catalog as cat
from fourspace.catalog import EnumerationBounds, IndecDescriptor
from fourspace.exactmat import QQ, PrimeField
from fourspace.modules import LambdaModule
from fourspace.oracle import HomSystem, hom_system
from fourspace.verify import Mismatch

GF = PrimeField(32003)


def _fields(cls):
    """The fields of one value of cls, in field order; each call builds
    its matrices anew, so two calls give equal values, not the same one."""
    m = cat.build(cat.R(1, 2), GF)
    return {
        IndecDescriptor: lambda: {"family": "RH", "params": (1, 2)},
        EnumerationBounds: lambda: {"max_n": 2, "max_l": 1, "lambdas": (2, 5)},
        LambdaModule: lambda: dict(zip("ABCD", m.mats())),
        HomSystem: lambda: hom_system(m, cat.build(cat.P(1, 0), GF))._asdict(),
        Mismatch: lambda: {"trial": 3, "descriptor": "R(1,2)", "formula": 2, "oracle": 1,
                           "module_dim": m.dim_vector(), "module": m},
    }[cls]()


TYPES = [IndecDescriptor, EnumerationBounds, LambdaModule, HomSystem, Mismatch]
types = pytest.mark.parametrize("cls", TYPES, ids=lambda cls: cls.__name__)


@types
def test_positional_and_keyword_construction_agree(cls):
    fields = _fields(cls)
    by_position, by_keyword = cls(*fields.values()), cls(**fields)
    assert type(by_position) is cls and by_position == by_keyword
    assert cls._fields == tuple(fields)
    for name, value in fields.items():
        kept = getattr(by_keyword, name)
        if (cls, name) == (IndecDescriptor, "params"):
            # a descriptor keeps its params as its check returns them: a
            # tuple of the very entries given, when they are plain ints
            assert type(kept) is tuple and kept == value and all(map(is_, kept, value))
        else:
            assert kept is value
    assert by_keyword == tuple(fields.values())


@types
def test_equal_values_hash_alike(cls):
    a, b = cls(**_fields(cls)), cls(**_fields(cls))
    assert a is not b and a == b and hash(a) == hash(b) and len({a, b}) == 1


@types
def test_assignment_raises(cls):
    value = cls(**_fields(cls))
    for name in (*cls._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    assert value == cls(**_fields(cls))


@types
def test_pickle_round_trip(cls):
    value = cls(**_fields(cls))
    back = pickle.loads(pickle.dumps(value))
    assert type(back) is cls and back == value and hash(back) == hash(value)


def test_bounds_default_to_no_lambdas():
    assert EnumerationBounds(3, 2) == EnumerationBounds(max_n=3, max_l=2, lambdas=())
    assert EnumerationBounds(3, 2).lambdas == ()


def test_module_letters_are_the_module():
    m = cat.build(cat.P(2, 1), QQ)
    assert m.mats() is m and m.mats() == (m.A, m.B, m.C, m.D)

