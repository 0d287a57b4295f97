"""Smoke tests for the example scripts under ``scripts/``.

The scripts build their experiments with ``cli.prepared_experiment`` from
the shipped configs and call ``search``, ``bench`` and the loss modules
directly, so importing each one catches a removed export, and running the
cheapest one end to end catches a changed signature on its path.
"""

import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from demkit.bench import ShiftSpec, StreamSpec, default_mixture, make_stream
from demkit.cli import load_config
from demkit.model import EmPlugin, init_mlp
from demkit.numkit import Rng

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(f"script_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["continual_comparison", "lr_robustness", "reward_curves"])
def test_script_imports(name):
    assert callable(load_script(name).main)


def test_reward_curves_runs(tmp_path, monkeypatch, capsys):
    out = tmp_path / "curves.csv"
    argv = ["reward_curves.py", "--m-max", "1", "--m-step", "0.5", "--out", str(out)]
    monkeypatch.setattr(sys, "argv", argv)
    load_script("reward_curves").main()
    assert "peak m" in capsys.readouterr().out
    lines = out.read_text().splitlines()
    assert lines[0] == "m,p_max,reward_tau_0.5,reward_tau_1,reward_tau_1.5,reward_tau_2"
    assert [line.split(",")[0] for line in lines[1:]] == ["0", "0.5", "1"]


@pytest.mark.parametrize(
    "name, config",
    [("lr_robustness", "single_domain_em"), ("continual_comparison", "continual_adadem")],
)
def test_prepared_runs_the_shipped_config_at_the_seed(name, config, monkeypatch):
    script = load_script(name)
    seen = []

    def recording(cfg):
        seen.append(cfg)
        return "spec", "model", "data"

    monkeypatch.setattr(script, "prepared_experiment", recording)
    assert script.prepared(7) == ("model", "data")
    expected = load_config(str(ROOT / "configs" / f"{config}.json"))
    expected["seed"] = 7
    assert seen == [expected]


def tiny_experiment(mode):
    """A two-shift stream of two 16-row batches and a small MLP."""
    mix = default_mixture()
    shift = ShiftSpec("rotate2d", 0.5)
    data = make_stream(mix, StreamSpec(mode, (shift, shift), 2, 16), Rng(0).derive("stream"))
    return init_mlp(mix.C, mix.d, 4, Rng(1), 0.5), data


def test_lr_robustness_scores_a_diverging_rate_nan(monkeypatch):
    script = load_script("lr_robustness")
    model, data = tiny_experiment("single_domain")
    monkeypatch.setattr(script, "DEFAULT_LR_GRID", (1e-3, 1e308))
    with np.errstate(all="ignore"):
        res = script.sweep(model, data, EmPlugin)
    assert [lr for lr, _ in res.rows] == [1e-3, 1e308]
    assert not math.isnan(res.rows[0][1]) and math.isnan(res.rows[1][1])


def test_continual_comparison_best_lr_skips_diverged_rates(monkeypatch):
    script = load_script("continual_comparison")
    model, data = tiny_experiment("continual")
    monkeypatch.setattr(script, "DEFAULT_LR_GRID", (1e-3, 1e308))
    with np.errstate(all="ignore"):
        assert script.best_lr(model, data, EmPlugin)[0] == 1e-3
        monkeypatch.setattr(script, "DEFAULT_LR_GRID", (1e308,))
        lr, acc = script.best_lr(model, data, EmPlugin)
    assert math.isnan(lr) and math.isnan(acc)
