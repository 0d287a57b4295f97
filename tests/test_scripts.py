"""Tests for the example scripts under ``scripts/``.

The experiment scripts are seed loops over the CLI's recipes: each seed
loads the shipped config, replaces its seed, builds the experiment with
``cli.prepared_experiment`` and runs ``search.lr_sweep`` or
``search.grid_search`` on it with the config's settings.  Pointing a script's ``CONFIG`` at a
small config checks that its numbers are the CLI's for the same config
and seed.
"""

import copy
import importlib.util
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from demkit.cli import experiment_plan, jround, load_config, main
from demkit.search import GridResult, LrSweepResult, TrialResult, grid_search

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


@pytest.mark.parametrize("step", ["0", "1e-9"])
def test_reward_curves_refuses_a_bad_step_before_building_the_axis(step, monkeypatch):
    # --m-step 0 ended in a ZeroDivisionError, and 1e-9 asked numpy for a
    # 224 GiB axis; both are refused before any point is allocated.
    def no_axis(*args, **kwargs):
        raise AssertionError("the axis was allocated")

    script = load_script("reward_curves")
    monkeypatch.setattr(sys, "argv", ["reward_curves.py", "--m-step", step])
    monkeypatch.setattr(np, "arange", no_axis)
    with pytest.raises(ValueError, match=re.escape(f"grid axis [0.0, 30.0] at step {float(step)}:")):
        script.main()


@pytest.mark.parametrize(
    "name, config",
    [("lr_robustness", "single_domain_em"), ("continual_comparison", "continual_adadem")],
)
def test_each_seed_runs_the_shipped_config_with_only_the_seed_replaced(
    name, config, monkeypatch
):
    script = load_script(name)
    seen = []

    def recording(cfg):
        seen.append(copy.deepcopy(cfg))
        return "model", experiment_plan(cfg)

    point = TrialResult(1.0, 1.0, True, 0.5)
    monkeypatch.setattr(script, "prepared_experiment", recording)
    monkeypatch.setattr(script, "lr_sweep", lambda *args: LrSweepResult([(1e-3, 0.5)], 0.4, 1))
    monkeypatch.setattr(
        script,
        "grid_search",
        lambda *args: GridResult(point, [point], 0.5, 0.5, 0.5),
        raising=False,
    )
    monkeypatch.setattr(sys, "argv", [name, "--seeds", "2"])
    script.main()
    expected = []
    for seed in (0, 1):
        cfg = load_config(str(ROOT / "configs" / f"{config}.json"))
        cfg["seed"] = seed
        expected.append(cfg)
    assert seen == expected


def small_config(tmp_path, mode, **overrides):
    """A two-shift stream of eight 16-row batches, a small MLP and a
    six-point (tau, alpha) grid whose best point is not the classical
    one, written where ``script.CONFIG`` can point."""
    cfg = {
        "seed": 0,
        "output_dir": str(tmp_path / "out"),
        "source": {"hidden": 8, "epochs": 20, "n": 400},
        "stream": {
            "mode": mode,
            "shifts": [{"kind": "rotate2d", "magnitude": 0.5}] * 2,
            "batches_per_shift": 8,
            "batch_size": 16,
        },
        "optimizer": {"lr": 0.025, "momentum": 0.9},
        "grid": {"tau_min": 1.0, "alpha_max": 2.0, "step": 1.0, "subset_fraction": 0.4},
        "lrs": [1e-3, 1e-2, 5e-2],
    }
    cfg.update(overrides)
    path = tmp_path / f"{mode}.json"
    path.write_text(json.dumps(cfg))
    return path


def test_continual_comparison_dem_star_is_grid_search_full_accuracy(
    tmp_path, monkeypatch, capsys
):
    script = load_script("continual_comparison")
    config = small_config(tmp_path, "continual")
    results = []

    def recording(*args):
        results.append(grid_search(*args))
        return results[-1]

    monkeypatch.setattr(script, "CONFIG", config)
    monkeypatch.setattr(script, "grid_search", recording)
    monkeypatch.setattr(sys, "argv", ["continual_comparison.py", "--seeds", "1"])
    script.main()
    out = capsys.readouterr().out

    assert main(["grid-search", "--config", str(config)]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    (res,) = results
    assert (res.best.tau, res.best.alpha) != (1.0, 1.0)
    assert jround(res.best_full) == summary["best"]["full_accuracy"]
    assert jround(res.classical_full) == summary["classical"]["full_accuracy"]
    assert (jround(res.best.tau), jround(res.best.alpha)) == (
        summary["best"]["tau"],
        summary["best"]["alpha"],
    )
    assert f"dem* {res.best_full:.4f}" in out
    assert f"lr 0.025), classical {res.classical_full:.4f}" in out


def test_continual_comparison_reports_no_classical_point_off_the_grid(
    tmp_path, monkeypatch, capsys
):
    # (1, 1) is not on this grid, so grid_search scores no classical point.
    grid = {"tau_min": 0.5, "tau_max": 1.5, "alpha_min": 0.5, "alpha_max": 1.5,
            "step": 1.0, "subset_fraction": 0.4}
    script = load_script("continual_comparison")
    monkeypatch.setattr(script, "CONFIG", small_config(tmp_path, "continual", grid=grid))
    monkeypatch.setattr(sys, "argv", ["continual_comparison.py", "--seeds", "1"])
    script.main()
    seed_line, medians = capsys.readouterr().out.splitlines()
    assert seed_line.startswith("seed 0: em ")
    assert seed_line.endswith("lr 0.025), classical n/a")
    assert medians.startswith("medians: em ")


def run_lr_robustness(tmp_path, monkeypatch, capsys, config):
    """The script's stdout rows and CSV rows, one seed, on ``config``."""
    script = load_script("lr_robustness")
    out = tmp_path / "robustness.csv"
    monkeypatch.setattr(script, "CONFIG", config)
    monkeypatch.setattr(
        sys, "argv", ["lr_robustness.py", "--seeds", "1", "--out", str(out)]
    )
    with np.errstate(all="ignore"):
        script.main()
    stdout = capsys.readouterr().out.splitlines()
    table = {line.split()[1]: line.split() for line in stdout[1:3]}
    return table, out.read_text().splitlines()


def test_lr_robustness_count_is_lr_sweep_tolerance_count(tmp_path, monkeypatch, capsys):
    config = small_config(tmp_path, "single_domain")
    table, csv_rows = run_lr_robustness(tmp_path, monkeypatch, capsys, config)
    for name in ("em", "adadem"):
        cfg = json.loads(config.read_text())
        cfg["loss"] = {"name": name}
        config.write_text(json.dumps(cfg))
        assert main(["lr-sweep", "--config", str(config)]) == 0
        capsys.readouterr()
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        seed, loss, baseline, best, tolerated = table[name]
        assert int(tolerated) == summary["tolerance_count"]
        assert baseline == f"{summary['baseline_accuracy']:.4f}"
        assert best == f"{max(summary['accuracies']):.4f}"
        assert [row for row in csv_rows if f",{name}," in row] == [
            f"0,{name},{lr:g},{acc:.6f}"
            for lr, acc in zip(summary["lrs"], summary["accuracies"])
        ]


def test_lr_robustness_scores_a_diverging_rate_nan(tmp_path, monkeypatch, capsys):
    config = small_config(tmp_path, "single_domain", lrs=[1e-3, 1e308])
    _, csv_rows = run_lr_robustness(tmp_path, monkeypatch, capsys, config)
    for name in ("em", "adadem"):
        stable, diverged = [row for row in csv_rows if f",{name}," in row]
        assert stable.startswith(f"0,{name},0.001,") and not stable.endswith("nan")
        assert diverged == f"0,{name},1e+308,nan"
