"""The public surface: every exported name exists, and the package exports
only names its modules list in ``__all__``."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import zenogrover

MODULES = sorted(m.name for m in pkgutil.iter_modules(zenogrover.__path__))


def _package_imports() -> dict[str, list[str]]:
    """Module -> the names ``zenogrover/__init__.py`` imports from it."""
    tree = ast.parse(Path(zenogrover.__file__).read_text())
    return {
        node.module: [alias.name for alias in node.names]
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
    }


@pytest.mark.parametrize("name", MODULES)
def test_exports_resolve(name):
    module = importlib.import_module(f"zenogrover.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ lists undefined names {missing}"
    stale = set(_package_imports().get(name, [])) - set(module.__all__)
    assert not stale, f"zenogrover imports {sorted(stale)} not in {name}.__all__"
