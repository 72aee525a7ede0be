import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import fracspec

MODULES = ["fracspec"] + [f"fracspec.{m.name}" for m in pkgutil.iter_modules(fracspec.__path__)]
#: the modules whose public names make up the package namespace
LIBRARY = ["coupling", "errors", "graphs", "harness", "operators", "properties", "transforms",
           "wiener"]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", []) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


def test_package_names_are_the_library_modules_names():
    names = [n for m in LIBRARY for n in importlib.import_module(f"fracspec.{m}").__all__]
    assert len(set(fracspec.__all__)) == len(fracspec.__all__)
    assert sorted(fracspec.__all__) == sorted(names)


@pytest.mark.parametrize("name", LIBRARY)
def test_each_package_name_is_its_modules_object(name):
    module = importlib.import_module(f"fracspec.{name}")
    assert [n for n in module.__all__ if getattr(fracspec, n, None) is not getattr(module, n)] == []


def test_package_import_leaves_io_and_cli_unloaded():
    # the file readers and writers and the CLI are imported by name, when used
    src = os.path.dirname(os.path.dirname(os.path.abspath(fracspec.__file__)))
    code = "import sys, fracspec; print([m for m in ('fracspec.io', 'fracspec.cli') if m in sys.modules])"
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60, check=True)
    assert proc.stdout.strip() == "[]"
