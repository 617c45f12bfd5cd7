import ast
import importlib
import pathlib
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



def test_no_private_imports_across_modules():
    # a decision two modules need lives behind a public name of one of them
    found = []
    for path in sorted(pathlib.Path(lagdelta.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level:
                found += [f"{path.name}: {alias.name}" for alias in node.names
                          if alias.name.startswith("_")]
    assert found == []
