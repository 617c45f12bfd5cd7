import importlib
import pkgutil

import pytest

import lagdelta

MODULES = sorted(m.name for m in pkgutil.iter_modules(lagdelta.__path__))


def test_package_names_resolve():
    missing = [n for n in lagdelta.__all__ if not hasattr(lagdelta, n)]
    assert missing == []


@pytest.mark.parametrize("name", MODULES)
def test_module_names_resolve(name):
    mod = importlib.import_module(f"lagdelta.{name}")
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert missing == []

