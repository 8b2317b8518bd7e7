"""Public surface: every exported name resolves, so no deletion leaves a stale export."""

import importlib
import pkgutil

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
