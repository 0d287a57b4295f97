"""The demkit functions the benchmark's traced run counts still exist.

``perfbench/child.py`` watches ``(ancestor, name)`` call pairs, and each
workload of ``perfbench/workloads.py`` expects call counts of named
functions; the traced run checks those counts.  The tracer wraps only the
public functions a module defines itself, so a renamed or privatised
function reads 0 calls and fails those checks, which this suite does not
run.  This test reads both files, so the suite fails on such a change too.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def traced_names() -> list:
    """The ``module.function`` names the traced run counts calls of, and
    the two entry points ``child.py`` calls."""
    child, workloads = _load("child"), _load("workloads")
    names = {name for pair in child.WATCH for name in pair}
    for make in workloads.WORKLOADS.values():
        for key in make(0).expected:
            name, _, stat = key.rpartition(".")
            if stat == "calls":
                names.add(name)
    return sorted(names | {"cli.prepared_experiment", "cli.main"})


def test_the_names_include_the_step_and_loss_functions():
    assert {
        "model.train_source",
        "model.sgd_step",
        "model.adapt_stream",
        "em_losses.dem_rows",
        "adadem.adadem_rows",
        "numkit.finite_diff_grad",
    } <= set(traced_names())


@pytest.mark.parametrize("name", traced_names())
def test_traced_name_is_a_public_function_of_its_module(name):
    module, _, attr = name.partition(".")
    assert not attr.startswith("_")
    obj = getattr(importlib.import_module(f"demkit.{module}"), attr, None)
    assert callable(obj), f"demkit.{name} is not a callable"
    assert obj.__module__ == f"demkit.{module}"


def test_gradcheck_makes_the_benchmark_count_of_oracle_calls_per_trial(monkeypatch):
    """The traced run expects ``numkit.finite_diff_grad.calls`` per
    ``GRADCHECK_TRIALS``; three trials must make three times that share."""
    from demkit import cli

    workloads = _load("workloads")
    expected = workloads.gradcheck_scalar(0).expected["numkit.finite_diff_grad.calls"]
    per_trial, rest = divmod(expected, workloads.GRADCHECK_TRIALS)
    assert rest == 0

    calls = []
    real = cli.finite_diff_grad

    def counted(f, z, *args, **kwargs):
        calls.append(None)
        return real(f, z, *args, **kwargs)

    monkeypatch.setattr(cli, "finite_diff_grad", counted)
    assert cli.main(["gradcheck", "--trials", "3", "--seed", "0"]) == cli.EXIT_OK
    assert len(calls) == 3 * per_trial
