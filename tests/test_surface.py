"""The public surface: the package exports lazily (PEP 562), every exported
name is the object its module defines and lists in ``__all__``, and every
submodule resolves as an attribute of the package."""

import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import zenogrover

MODULES = sorted(m.name for m in pkgutil.iter_modules(zenogrover.__path__))
README = Path(__file__).resolve().parents[1] / "README.md"


def _fresh(code: str) -> str:
    """Run ``code`` in a fresh interpreter that imports this test's package;
    return its stdout."""
    env = dict(os.environ)
    src = str(Path(zenogrover.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          timeout=60, capture_output=True, text=True).stdout


@pytest.mark.parametrize("name", MODULES)
def test_exports_resolve(name):
    module = importlib.import_module(f"zenogrover.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ lists undefined names {missing}"
    exported = [n for n, m in zenogrover._EXPORTS.items() if m == name]
    stale = set(exported) - set(module.__all__)
    assert not stale, f"zenogrover exports {sorted(stale)} not in {name}.__all__"
    assert all(getattr(zenogrover, n) is getattr(module, n) for n in exported)


def test_every_engine_module_exports():
    # the table is not empty, and it names only real modules
    assert set(zenogrover._EXPORTS.values()) == set(MODULES) - {"cli"}
    assert set(zenogrover.__all__) == set(zenogrover._EXPORTS)
    assert set(zenogrover.__all__) <= set(dir(zenogrover))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        zenogrover.no_such_name
    assert not hasattr(zenogrover, "no_such_name")


def test_import_is_lazy_and_every_submodule_resolves():
    loaded = json.loads(_fresh(
        "import json, sys, zenogrover\n"
        "before = [m for m in sys.modules if m.startswith('zenogrover.')]\n"
        f"same = [getattr(zenogrover, m) is sys.modules['zenogrover.' + m] for m in {MODULES!r}]\n"
        "print(json.dumps([before, same]))\n"
    ))
    assert loaded == [[], [True] * len(MODULES)]


def test_star_import_binds_every_export():
    names = json.loads(_fresh(
        "import json\nfrom zenogrover import *\n"
        "print(json.dumps(sorted(n for n in dir() if not n.startswith('_') and n != 'json')))\n"
    ))
    assert names == sorted(zenogrover.__all__)


def test_readme_library_example_runs_in_a_fresh_process():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    assert len(blocks) == 1
    assert len(_fresh(blocks[0]).splitlines()) == 3
