"""Each hyperparameter rule is checked in one place, and every entry point
reaches that check.

The rules and their owners: a grid axis (``search.grid_axis``), the
temperature ``tau`` (``numkit._positive``, finite and positive), the class
count ``C`` (``numkit._classes``), every other integer count, the seed of
a config included (``numkit._count``), a learning rate, an init scale and
a grid's lower bounds (``numkit._nonnegative``, finite and at least 0),
the DEM weight ``alpha`` (``em_losses.DemConfig``), the label ratio ``rho``
(``bench._label_ratio``) and the calibrator momentum ``pi``
(``adadem._momentum``).  Each test drives every entry point of one rule,
the CLI's ``experiment_plan`` among them where a config setting reaches
the rule, with NaN, +-inf and a negative value, and with 0 where 0 breaks
the rule (a count: a value just below its least, -1, a float, a bool and
a numpy float; the momentum: also a value above 1), and each must refuse
it with ``ValueError`` naming the value.  ``filterwarnings = error`` fails
a test on any numpy warning raised on the way, too.
"""

import ast
import copy
import importlib.util
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

import demkit
from demkit import cli
from demkit.adadem import MecState, mec_init
from demkit.bench import MixtureSpec, ShiftSpec, StreamSpec, long_tail_priors, sample_batch
from demkit.em_losses import (
    ConfigError,
    DemConfig,
    boundary_second_derivative,
    cadf_tempered_eval,
    reward_curve,
    validate_config,
)
from demkit.model import AdaDemPlugin, SgdConfig, init_linear, init_mlp, train_source
from demkit.numkit import Rng
from demkit.search import GRID_MAX_POINTS, GridSpec, grid_axis

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "reward_curves.py"

BAD_FLOATS = [math.nan, math.inf, -math.inf, 0.0, -1.0]
BAD_IDS = ["nan", "inf", "-inf", "zero", "negative"]


def _message(text: str):
    return pytest.raises(ValueError, match=re.escape(text))


def _planned(section: str, key: str | None, value):
    """``cli.experiment_plan`` of the default config with ``value`` at
    ``section``'s ``key`` (a top-level setting when ``key`` is None)."""
    cfg = copy.deepcopy(cli.DEFAULT_CONFIG)
    if key is None:
        cfg[section] = value
    else:
        cfg[section][key] = value
    return cli.experiment_plan(cfg)


GRID_CASES = [(0.0, 2.0, step, "step must be positive and finite") for step in BAD_FLOATS] + [
    # numpy-scalar bounds whose span over the step overflows to an infinite count
    (np.float64(0.0), np.float64(1e308), np.float64(0.1),
     f"the grid has more than {GRID_MAX_POINTS} points"),
]


@pytest.mark.parametrize("lo, hi, step, problem", GRID_CASES, ids=BAD_IDS + ["numpy-overflow"])
def test_grid_axis_rule(lo, hi, step, problem, tmp_path, monkeypatch):
    refused = f"at step {step}: {problem}"
    with _message(refused):
        grid_axis(lo, hi, step)
    with _message(refused):
        GridSpec(lo, hi, 0.0, 2.0, step, 1.0)

    out = tmp_path / "curve.csv"
    args = cli.build_parser().parse_args(["reward-curve", "--out", str(out)])
    args.m_min, args.m_max, args.m_step = lo, hi, step
    with _message(refused):
        args.func(args)
    assert not out.exists()

    spec = importlib.util.spec_from_file_location("script_reward_curves", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(sys, "argv", ["reward_curves.py", f"--m-max={hi}", f"--m-step={step}"])
    with _message(refused):
        script.main()


@pytest.mark.parametrize("tau", BAD_FLOATS, ids=BAD_IDS)
def test_temperature_rule(tau):
    refused = f"temperature tau must be positive and finite, got {tau}"
    with _message(refused):
        cadf_tempered_eval([1.0, 2.0], tau)
    with _message(refused):
        boundary_second_derivative(tau, 1.0, 10)
    with pytest.raises(ConfigError, match=re.escape(f"invalid hyperparameters tau={tau},")):
        DemConfig(tau, 1.0)


@pytest.mark.parametrize("C", [math.nan, math.inf, -math.inf, 0, -3], ids=BAD_IDS)
def test_class_count_rule(C):
    refused = f"C must be an integer, got {C}" if isinstance(C, float) else (
        f"C must be at least 2, got {C}"
    )
    with _message(refused):
        init_mlp(C, 2, 4, Rng(0), 0.1)
    with _message(refused):
        init_linear(C, 2)
    with _message(refused):
        MixtureSpec(C, 1.0, 1.0)
    with _message(refused):
        reward_curve(C, DemConfig(1.0, 1.0), [0.0])


@pytest.mark.parametrize("rho", BAD_FLOATS, ids=BAD_IDS)
def test_label_ratio_rule(rho):
    refused = f"label_rho must be finite and >= 1, got {rho}"
    with _message(refused):
        StreamSpec("single_domain", (ShiftSpec("translate"),), 1, 1, rho)
    with _message(refused):
        long_tail_priors(4, rho)


@pytest.mark.parametrize("pi", BAD_FLOATS + [1.5], ids=BAD_IDS + ["above-one"])
def test_momentum_rule(pi):
    # The plugin refuses a bad pi when it is built, not at its first batch,
    # and a calibrator built directly refuses it too.
    refused = f"momentum pi must lie in (0, 1], got {pi}"
    with _message(refused):
        mec_init(3, pi)
    with _message(refused):
        MecState(np.full((3, 3), 1 / 3), pi)
    with _message(refused):
        AdaDemPlugin(pi)
    with _message(f"loss: {refused}"):
        _planned("loss", "pi", pi)


NONNEGATIVE = [math.nan, math.inf, -math.inf, -1.0]
NONNEGATIVE_IDS = ["nan", "inf", "-inf", "negative"]

# (setting as the refusal names it, an entry point taking it)
NONNEGATIVE_ENTRY_POINTS = {
    "SgdConfig-lr": ("learning rate", SgdConfig),
    "init_mlp-scale": ("scale", lambda v: init_mlp(3, 2, 4, Rng(0), v)),
    "init_linear-scale": ("scale", lambda v: init_linear(3, 2, Rng(0), v)),
    "GridSpec-tau_min": ("tau_min", lambda v: GridSpec(v, 2.0, 0.0, 2.0, 0.1, 1.0)),
    "GridSpec-alpha_min": ("alpha_min", lambda v: GridSpec(0.1, 2.0, v, 2.0, 0.1, 1.0)),
    "plan-source-lr": ("source: learning rate", lambda v: _planned("source", "lr", v)),
    "plan-source-init_scale": ("source: init_scale", lambda v: _planned("source", "init_scale", v)),
    "plan-optimizer-lr": ("optimizer: learning rate", lambda v: _planned("optimizer", "lr", v)),
    "plan-lrs": ("lrs/0: learning rate", lambda v: _planned("lrs", None, [v])),
    "plan-grid-tau_min": ("grid: tau_min", lambda v: _planned("grid", "tau_min", v)),
    "plan-grid-alpha_min": ("grid: alpha_min", lambda v: _planned("grid", "alpha_min", v)),
}


@pytest.mark.parametrize("entry", NONNEGATIVE_ENTRY_POINTS)
def test_nonnegative_rule(entry):
    name, call = NONNEGATIVE_ENTRY_POINTS[entry]
    for value in NONNEGATIVE:
        with _message(f"{name} must be finite and non-negative, got {value}"):
            call(value)
    call(0.0)


@pytest.mark.parametrize("alpha", NONNEGATIVE, ids=NONNEGATIVE_IDS)
def test_alpha_rule(alpha):
    # A ConfigError (exit 2), whatever the loss the config names.
    need = "requires alpha >= 0" if alpha == -1.0 else "requires finite tau and alpha"
    refused = f"invalid hyperparameters tau=1.0, alpha={alpha}: {need}"
    assert not validate_config(1.0, alpha)
    with pytest.raises(ConfigError, match=re.escape(refused)):
        DemConfig(1.0, alpha)
    with pytest.raises(ConfigError, match=re.escape(f"loss: {refused}")):
        _planned("loss", "alpha", alpha)
    assert validate_config(1.0, 0.0)
    DemConfig(1.0, 0.0)
    _planned("loss", "alpha", 0.0)


def _train(**counts):
    model = init_linear(3, 2)
    counts = {"epochs": 1, "batch_size": 2, **counts}
    train_source(model, np.zeros((4, 2)), np.zeros(4, dtype=np.int64), counts["epochs"],
                 SgdConfig(0.1), Rng(0), counts["batch_size"])


def _gradcheck(trials):
    args = cli.build_parser().parse_args(["gradcheck"])
    args.trials = trials
    args.func(args)


MIX = MixtureSpec(3, 1.0, 1.0)
SHIFTS = (ShiftSpec("translate"),)

# (setting as the refusal names it, its least value, an entry point taking it)
COUNT_ENTRY_POINTS = {
    "init_mlp-C": ("C", 2, lambda v: init_mlp(v, 2, 4, Rng(0), 0.1)),
    "uniforms-n": ("n", 0, lambda v: Rng(0).uniforms(v)),
    "normals-n": ("n", 0, lambda v: Rng(0).normals(v)),
    "init_mlp-d": ("d", 1, lambda v: init_mlp(3, v, 4, Rng(0), 0.1)),
    "init_linear-d": ("d", 1, lambda v: init_linear(3, v)),
    "init_mlp-hidden": ("hidden width", 1, lambda v: init_mlp(3, 2, v, Rng(0), 0.1)),
    "train_source-batch_size": ("batch_size", 1, lambda v: _train(batch_size=v)),
    "train_source-epochs": ("epochs", 0, lambda v: _train(epochs=v)),
    "StreamSpec-batches_per_shift": (
        "batches_per_shift", 1, lambda v: StreamSpec("single_domain", SHIFTS, v, 64, 1.0)
    ),
    "StreamSpec-batch_size": (
        "batch_size", 1, lambda v: StreamSpec("single_domain", SHIFTS, 1, v, 1.0)
    ),
    "sample_batch-n": ("n", 1, lambda v: sample_batch(MIX, np.full(3, 1 / 3), v, Rng(0))),
    "gradcheck-trials": ("--trials", 1, _gradcheck),
    "plan-seed": ("seed", 0, lambda v: _planned("seed", None, v)),
}


@pytest.mark.parametrize("entry", COUNT_ENTRY_POINTS)
def test_count_rule(entry):
    name, least, call = COUNT_ENTRY_POINTS[entry]
    for value in (least - 1, -1, 2.5, True, np.float64(2.0)):
        if isinstance(value, int) and not isinstance(value, bool):
            refused = f"{name} must be at least {least}, got {value!r}"
        else:
            refused = f"{name} must be an integer, got {value!r}"
        with _message(refused):
            call(value)


def _ordered_integer_checks(path: Path) -> list:
    """(file, function, line) of each ordering comparison (``<``, ``<=``,
    ``>``, ``>=``) in a function of ``path`` with an ``_integer`` call in an
    operand."""
    found = []
    for func in ast.walk(ast.parse(path.read_text())):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.Compare) and any(
                isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE)) for op in node.ops
            ) and any(
                isinstance(call, ast.Call)
                and "_integer" in (getattr(call.func, "id", None), getattr(call.func, "attr", None))
                for call in ast.walk(node)
            ):
                found.append((path.name, func.name, node.lineno))
    return found


def test_only_count_orders_an_integer():
    # A count check written out again, say ``if _integer(n, "n") < 1:``,
    # belongs in numkit._count; a membership test such as ShiftSpec's
    # ``_integer(level, "level") not in LEVEL_MULTIPLIERS`` is not a count.
    found = [check for path in sorted(Path(demkit.__file__).parent.glob("*.py"))
             for check in _ordered_integer_checks(path)]
    assert [(name, func) for name, func, _ in found] == [("numkit.py", "_count")], found
