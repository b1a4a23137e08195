"""Package-level invariants."""

import importlib
import pkgutil

import pytest

import hkr

MODULES = sorted(info.name for info in pkgutil.iter_modules(hkr.__path__) if info.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"hkr.{name}")
    for attr in getattr(module, "__all__", ()):
        assert hasattr(module, attr), f"hkr.{name}.__all__ names missing {attr!r}"
