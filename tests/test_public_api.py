"""Every exported name resolves.

Checks each module's ``__all__`` and every name the package
``__init__`` imports, so a deleted name cannot linger in an export list.
"""

import ast
import importlib
from pathlib import Path

import pytest

import hsplit

MODULES = ["manifold", "fields", "equilibrium", "splitting", "apps", "verify", "cli"]


@pytest.mark.parametrize("module", MODULES)
def test_module_all_names_resolve(module):
    mod = importlib.import_module(f"hsplit.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


def test_package_imports_resolve():
    tree = ast.parse(Path(hsplit.__file__).read_text())
    imported = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert imported
    for module, name in imported:
        assert hasattr(importlib.import_module(f"hsplit.{module}"), name), (module, name)
        assert hasattr(hsplit, name), name
