"""Package-level invariants."""

import importlib
import pkgutil

import pytest

import hkr
from hkr.charmap import OrthogonalityReport
from hkr.cli import CacheEntry
from hkr.commuting import TupleClass
from hkr.fgl import CoprimalityCertificate, FormalGroupLaw
from hkr.groupcore import ConjugacyClass
from hkr.inertia import FixPoint, OrbitCensus
from hkr.levelrings import LevelDescriptor, VandermondeReport

MODULES = sorted(info.name for info in pkgutil.iter_modules(hkr.__path__) if info.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"hkr.{name}")
    for attr in getattr(module, "__all__", ()):
        assert hasattr(module, attr), f"hkr.{name}.__all__ names missing {attr!r}"


RECORDS = [CacheEntry, ConjugacyClass, TupleClass, OrthogonalityReport, FormalGroupLaw,
           CoprimalityCertificate, FixPoint, OrbitCensus, VandermondeReport, LevelDescriptor]


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: r.__name__)
def test_records_are_immutable_values(record):
    a = record(*range(len(record._fields)))
    b = record(*range(len(record._fields)))
    c = record(*range(1, len(record._fields) + 1))
    assert a == b and hash(a) == hash(b) and a != c
    with pytest.raises(AttributeError):
        setattr(a, record._fields[0], -1)
    with pytest.raises(AttributeError):
        a.extra = -1
