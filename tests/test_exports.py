"""Exports: each name is bound where it is defined, and only there.

Each entry of ``demkit.__all__`` and of each ``demkit.<module>.__all__``
is an attribute of its module; every public function or class a module
with an ``__all__`` defines is listed in it; and every function or class
a module lists is its own, so no module re-exports another's names.  The
package binds none of its modules' names, and ``import demkit`` loads no
module of it: a name is imported from the module that defines it, as in
``from demkit.em_losses import dem_eval``.
"""

import importlib
import inspect
import pkgutil
import subprocess
import sys

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


@pytest.mark.parametrize("module", [m.__name__ for m in MODULES if hasattr(m, "__all__")])
def test_exported_definitions_are_the_modules_own(module):
    mod = importlib.import_module(module)
    borrowed = [
        f"{name} (from {obj.__module__})"
        for name in mod.__all__
        if (inspect.isfunction(obj := getattr(mod, name)) or inspect.isclass(obj))
        and obj.__module__ != module
    ]
    assert borrowed == []


def test_importing_the_package_loads_none_of_its_modules():
    code = "import sys, demkit; print(sorted(m for m in sys.modules if m.startswith('demkit.')))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
