"""Smoke tests for the example scripts under ``scripts/``.

The scripts call ``search``, ``bench`` and the loss modules directly, so
importing each one catches a removed export, and running the cheapest
one end to end catches a changed signature on its path.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


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
