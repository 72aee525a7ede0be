import importlib
import pkgutil

import pytest

import fracspec

MODULES = ["fracspec"] + [f"fracspec.{m.name}" for m in pkgutil.iter_modules(fracspec.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", []) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
