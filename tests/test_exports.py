"""Public surface: every exported name resolves, so no deletion leaves a stale export.

The package exports its submodules only, and every public name is
imported from the submodule that defines it.
"""

import ast
import importlib
import os
import pathlib
import pkgutil
import re
import subprocess
import sys

import pytest

import slabnn

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(slabnn.__path__)
                    if m.name != "__main__")


def test_package_exports_resolve():
    missing = [name for name in slabnn.__all__ if not hasattr(slabnn, name)]
    assert not missing


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_exports_resolve(name):
    mod = importlib.import_module(f"slabnn.{name}")
    exported = getattr(mod, "__all__", ())
    assert len(set(exported)) == len(exported)
    missing = [attr for attr in exported if not hasattr(mod, attr)]
    assert not missing


def test_package_lists_only_its_library_submodules():
    # A fresh interpreter, so that no submodule another test imported
    # shows up as an attribute.
    code = ("import slabnn, types; print(sorted(slabnn.__all__)); "
            "print(all(isinstance(getattr(slabnn, n), types.ModuleType) "
            "for n in slabnn.__all__ if n != '__version__'))")
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(slabnn.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.split("\n")
    assert out[0] == repr(sorted(set(SUBMODULES) - {"cli"} | {"__version__"}))
    assert out[1] == "True"


def _package_imports(tree, in_package):
    """Names taken by ``from slabnn import`` (``from . import`` inside the package)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                (node.level == 0 and node.module == "slabnn")
                or (in_package and node.level == 1 and node.module is None)):
            yield from (alias.name for alias in node.names)


def test_package_imports_name_only_submodules():
    root = pathlib.Path(__file__).resolve().parents[1]
    sources = [(path, path.read_text(), path.parent.name == "slabnn")
               for pattern in ("src/slabnn/*.py", "tests/*.py", "demos/*.py", "perfbench/*.py")
               for path in sorted(root.glob(pattern))]
    readme = (root / "README.md").read_text()
    sources += [("README.md", block, False)
                for block in re.findall(r"```python\n(.*?)```", readme, re.S)]
    found = {(str(path), name) for path, text, in_package in sources
             for name in _package_imports(ast.parse(text), in_package)
             if name not in SUBMODULES}
    assert not found
