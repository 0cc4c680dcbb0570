"""Every exported name resolves, and the settable values stay counted.

Checks each module's ``__all__`` and every name the package
``__init__`` imports, so a deleted name cannot linger in an export list.
The census pins the number of settable values, so a new option changes
the pinned number in the same diff.
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


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def settable_values(root: Path) -> int:
    """Defaulted parameters of every ``def``, positional and keyword-only
    (lambdas excluded), plus defaulted fields of ``@dataclass`` classes."""
    total = 0
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                total += len(args.defaults) + sum(d is not None for d in args.kw_defaults)
            elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
                total += sum(
                    isinstance(stmt, ast.AnnAssign) and stmt.value is not None
                    for stmt in node.body
                )
    return total


def test_settable_value_census():
    assert settable_values(Path(hsplit.__file__).parent) == 99
