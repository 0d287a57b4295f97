"""Exports in both directions: each entry of ``demkit.__all__`` and of
each ``demkit.<module>.__all__`` is an attribute of its module, and every
public function or class a module with an ``__all__`` defines is listed
in it."""

import importlib
import inspect
import pkgutil

import pytest

import demkit

MODULES = [demkit] + [
    importlib.import_module(f"demkit.{m.name}") for m in pkgutil.iter_modules(demkit.__path__)
]


@pytest.mark.parametrize(
    "module, name",
    [(m.__name__, name) for m in MODULES for name in getattr(m, "__all__", ())],
)
def test_exported_name_is_an_attribute(module, name):
    assert hasattr(importlib.import_module(module), name)


@pytest.mark.parametrize("module", [m.__name__ for m in MODULES if hasattr(m, "__all__")])
def test_public_definitions_are_exported(module):
    mod = importlib.import_module(module)
    defined = [
        name
        for name, obj in vars(mod).items()
        if not name.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module
    ]
    assert [name for name in defined if name not in mod.__all__] == []
