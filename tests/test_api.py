import importlib
import inspect
import pkgutil

import pytest

import purbounds

# __main__ runs the CLI on import
MODULES = [info.name for info in pkgutil.iter_modules(purbounds.__path__) if not info.name.startswith("_")]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"purbounds.{name}")
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []


def test_package_reexports_only_module_exports():
    exported = set()
    for name in MODULES:
        exported.update(importlib.import_module(f"purbounds.{name}").__all__)
    public = {k for k, v in vars(purbounds).items() if not k.startswith("_") and not inspect.ismodule(v)}
    assert sorted(public - exported) == []
