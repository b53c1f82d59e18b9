import importlib
import inspect
import pkgutil

import pytest

import peftlab

MODULES = sorted(info.name for info in pkgutil.iter_modules(peftlab.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"peftlab.{name}")
    missing = [export for export in module.__all__ if not hasattr(module, export)]
    assert not missing, f"peftlab.{name}.__all__ names undefined {missing}"


@pytest.mark.parametrize("name", [name for name in MODULES if name != "cli"])
def test_every_public_definition_is_exported(name):
    # cli is exempt: its `cmd_*` functions are entry points, reached through `run`
    module = importlib.import_module(f"peftlab.{name}")
    defined = [
        attr for attr, obj in vars(module).items()
        if not attr.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module.__name__
    ]
    unlisted = sorted(set(defined) - set(module.__all__))
    assert not unlisted, f"peftlab.{name} defines public {unlisted} outside __all__"
