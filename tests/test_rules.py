"""Each hyperparameter rule is checked in one place, and every entry point
reaches that check.

The rules and their owners: a grid axis (``search.grid_axis``), the
temperature ``tau`` (``numkit._positive``, finite and positive), the class
count ``C`` (``numkit._classes``) and the label ratio ``rho``
(``bench._label_ratio``).
Each test drives every entry point of one rule with NaN, +-inf, 0 and a
negative value, and each must refuse it with ``ValueError`` naming the
value.  ``filterwarnings = error`` fails a test on any numpy warning
raised on the way, too.
"""

import importlib.util
import math
import re
import sys
from pathlib import Path

import pytest

from demkit import cli
from demkit.bench import MixtureSpec, ShiftSpec, StreamSpec, long_tail_priors
from demkit.em_losses import (
    ConfigError,
    DemConfig,
    boundary_second_derivative,
    cadf_tempered_eval,
    reward_curve,
)
from demkit.model import init_linear, init_mlp
from demkit.numkit import Rng
from demkit.search import GridSpec, grid_axis

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "reward_curves.py"

BAD_FLOATS = [math.nan, math.inf, -math.inf, 0.0, -1.0]
BAD_IDS = ["nan", "inf", "-inf", "zero", "negative"]


def _message(text: str):
    return pytest.raises(ValueError, match=re.escape(text))


@pytest.mark.parametrize("step", BAD_FLOATS, ids=BAD_IDS)
def test_grid_axis_rule(step, tmp_path, monkeypatch):
    refused = f"at step {step}: step must be positive and finite"
    with _message(refused):
        grid_axis(0.0, 2.0, step)
    with _message(refused):
        GridSpec(0.0, 2.0, 0.0, 2.0, step, 1.0)

    out = tmp_path / "curve.csv"
    args = cli.build_parser().parse_args(["reward-curve", "--out", str(out)])
    args.m_step = step
    with _message(refused):
        args.func(args)
    assert not out.exists()

    spec = importlib.util.spec_from_file_location("script_reward_curves", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(sys, "argv", ["reward_curves.py", f"--m-step={step}"])
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
        f"need at least two classes, got {C}"
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
