"""Every exported name resolves: each entry of ``demkit.__all__`` and of
each ``demkit.<module>.__all__`` is an attribute of its module."""

import importlib
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
