import importlib
import pkgutil

import pytest

import peftlab

MODULES = sorted(info.name for info in pkgutil.iter_modules(peftlab.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"peftlab.{name}")
    missing = [export for export in module.__all__ if not hasattr(module, export)]
    assert not missing, f"peftlab.{name}.__all__ names undefined {missing}"
