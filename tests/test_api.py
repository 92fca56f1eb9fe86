"""The public API has no stale exports: every exported name is defined."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import prsplit

MODULES = [info.name for info in pkgutil.iter_modules(prsplit.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"prsplit.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []


def test_package_reexports_only_public_names_of_its_modules():
    tree = ast.parse(Path(prsplit.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        module = importlib.import_module(f"prsplit.{node.module}")
        for alias in node.names:
            assert hasattr(prsplit, alias.asname or alias.name), alias.name
            assert alias.name in module.__all__, f"{node.module}.{alias.name} is not in __all__"
