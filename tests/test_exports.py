"""Exports: each name is bound where it is defined, and only there.

Each entry of ``demkit.__all__`` and of each ``demkit.<module>.__all__``
is an attribute of its module; every public function or class a module
with an ``__all__`` defines is listed in it; and every function or class
a module lists is its own, so no module re-exports another's names.  The
package binds none of its modules' names, and ``import demkit`` loads no
module of it: a name is imported from the module that defines it, as in
``from demkit.em_losses import dem_eval``.

Each exported name of the loss, model, benchmark and search modules has a
user in code: another module of the package, its own module outside its
own definition, a script, or the acceptance tests.  A name that only the
unit tests call is a public API kept for nothing, or it is listed in
``UNCALLED`` with the reason it stays.  ``numkit`` is not held to this:
its public functions are the validating entry points of its kernels.
"""

import ast
import importlib
import inspect
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import demkit

MODULES = [demkit] + [
    importlib.import_module(f"demkit.{m.name}") for m in pkgutil.iter_modules(demkit.__path__)
]

PACKAGE = Path(demkit.__file__).resolve().parent
ROOT = Path(__file__).resolve().parent.parent
USED_MODULES = ["em_losses", "adadem", "model", "bench", "search"]
# Exported names with no user in code, each with the reason it stays.
UNCALLED = {
    "adadem_row_values": "AdaDEM's per-row loss values, the row twin of em_row_values "
    "and dem_row_values; a per-step adaptation trace or gradient oracle may read them",
}


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


def _referenced(statements) -> set:
    """Every name a ``Name``, an ``Attribute`` or an import in ``statements`` uses."""
    names = set()
    for node in (n for statement in statements for n in ast.walk(statement)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
    return names


def _defines(statement, name: str) -> bool:
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return statement.name == name
    targets = getattr(statement, "targets", None) or [getattr(statement, "target", None)]
    return any(isinstance(t, ast.Name) and t.id == name for t in targets)


def _body(path: Path) -> list:
    return ast.parse(path.read_text()).body


@pytest.mark.parametrize("module", USED_MODULES)
def test_exported_names_have_a_user_in_code(module):
    others = [p for p in sorted(PACKAGE.glob("*.py")) if p.stem != module]
    others += sorted((ROOT / "scripts").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]
    used = _referenced(s for path in others for s in _body(path))
    own = _body(PACKAGE / f"{module}.py")
    exported = importlib.import_module(f"demkit.{module}").__all__
    uncalled = [
        name for name in exported
        if name not in used and name not in _referenced(s for s in own if not _defines(s, name))
    ]
    # An allowed name that gains a user leaves UNCALLED.
    assert uncalled == [name for name in exported if name in UNCALLED]
