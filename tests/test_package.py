"""The package's public names: every ``__all__`` and every name the package
namespace imports resolve."""

import ast
import importlib
import pkgutil

import pytest

import superint

_MODULES = sorted(m.name for m in pkgutil.iter_modules(superint.__path__))


def test_every_module_is_listed():
    assert _MODULES == ["catalog", "cli", "dynamics", "errors", "geometry", "jets",
                        "poisson", "systems"]


@pytest.mark.parametrize("name", _MODULES)
def test_star_import_of_each_module(name):
    # a stale __all__ entry makes the star import raise AttributeError
    namespace = {}
    exec(f"from superint.{name} import *", namespace)
    module = importlib.import_module(f"superint.{name}")
    assert set(getattr(module, "__all__", ())) <= set(namespace)


def test_every_name_the_package_imports_resolves():
    with open(superint.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert len(imports) == 7
    for node in imports:
        module = importlib.import_module(f"superint.{node.module}")
        for alias in node.names:
            assert hasattr(module, alias.name), (node.module, alias.name)
            assert getattr(superint, alias.asname or alias.name) is getattr(module, alias.name)
