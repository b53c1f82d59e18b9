import ast
import importlib
import inspect
import pathlib
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


def test_no_test_name_is_defined_in_two_modules():
    # one name in two modules is one behaviour with two owners, or two that read
    # alike; helpers too: a helper two modules need lives once, in conftest.py
    modules = {}
    for path in sorted(pathlib.Path(__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                modules.setdefault(node.name, []).append(path.stem)
    shared = {name: stems for name, stems in modules.items() if len(stems) > 1}
    assert not shared, f"names defined in more than one module: {shared}"
