"""End-to-end tests for the command-line interface.

Most cases invoke ``main(argv)`` in process (it returns the exit code);
one subprocess test covers the real interpreter entry point.
"""

import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest
from jsonschema import Draft202012Validator

from demkit.cli import (
    DEFAULT_CONFIG,
    EXIT_BAD_HYPERPARAMS,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_USAGE,
    METRICS_HEADER,
    SCHEMA,
    UsageError,
    fmt9,
    jround,
    load_config,
    main,
    vec9,
)


GRADCHECK_TRIALS_40_SEED_3 = """\
gradcheck adadem: max rel err 1.87395044e-10 [ok]
gradcheck cadf_tempered: max rel err 1.33268131e-10 [ok]
gradcheck cross_entropy: max rel err 1.00136344e-10 [ok]
gradcheck dem: max rel err 1.7620061e-10 [ok]
gradcheck detached_em: max rel err 0 [ok]
gradcheck em: max rel err 3.746084e-11 [ok]
gradcheck linear/adadem: max rel err 1.60820281e-11 [ok]
gradcheck linear/cross_entropy: max rel err 3.05518388e-11 [ok]
gradcheck linear/dem: max rel err 9.13577547e-12 [ok]
gradcheck linear/em: max rel err 1.38169892e-11 [ok]
gradcheck mlp/adadem: max rel err 6.03320172e-12 [ok]
gradcheck mlp/cross_entropy: max rel err 1.72442234e-11 [ok]
gradcheck mlp/dem: max rel err 8.65474359e-12 [ok]
gradcheck mlp/em: max rel err 1.69064832e-11 [ok]
"""


def small_config(tmp_path, **overrides):
    """A config small enough that every command finishes in well under a
    second; sections in ``overrides`` replace the corresponding block."""
    cfg = {
        "seed": 0,
        "output_dir": str(tmp_path / "out"),
        "mixture": {"C": 5, "d": 2, "radius": 4.0, "sigma": 1.0},
        "source": {
            "arch": "linear",
            "epochs": 2,
            "n": 200,
            "lr": 0.5,
            "momentum": 0.0,
            "batch_size": 32,
            "init_scale": 0.0,
        },
        "stream": {
            "mode": "single_domain",
            "shifts": [{"kind": "rotate2d", "magnitude": 0.4}],
            "batches_per_shift": 3,
            "batch_size": 16,
        },
        "optimizer": {"lr": 0.001, "momentum": 0.9, "scope": "all"},
        "loss": {"name": "em"},
        "lrs": [1e-3, 5e-3],
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


class TestFormatting:
    def test_fmt9(self):
        assert fmt9(0.1) == "0.1"
        assert fmt9(-0.0) == "0"
        assert fmt9(1 / 3) == "0.333333333"
        assert fmt9(1234567891.0) == "1.23456789e+09"

    def test_jround_is_fmt9_fixed_point(self):
        x = jround(1 / 3)
        assert fmt9(x) == "0.333333333"
        assert jround(x) == x

    def test_vec9(self):
        assert vec9([0.5, -0.0, 1.0]) == "0.5;0;1"


class TestLoadConfig:
    def test_defaults_validate_against_the_schema(self):
        Draft202012Validator(SCHEMA).validate(DEFAULT_CONFIG)

    def test_default_shifts_are_distinct_dicts(self):
        # deepcopy keeps aliasing, so load_config's copies stay distinct too.
        shifts = DEFAULT_CONFIG["stream"]["shifts"]
        assert len({id(sh) for sh in shifts}) == len(shifts) == 3

    def test_sections_merge_over_defaults(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"optimizer": {"lr": 0.01}}))
        cfg = load_config(str(path))
        assert cfg["optimizer"]["lr"] == 0.01
        assert cfg["optimizer"]["momentum"] == DEFAULT_CONFIG["optimizer"]["momentum"]
        assert cfg["seed"] == DEFAULT_CONFIG["seed"]

    def test_shifts_replace_rather_than_merge(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"stream": {"shifts": [{"kind": "translate"}]}}))
        cfg = load_config(str(path))
        assert len(cfg["stream"]["shifts"]) == 1
        assert cfg["stream"]["shifts"][0]["kind"] == "translate"
        assert cfg["stream"]["batches_per_shift"] == 60  # untouched default

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"optimiser": {"lr": 0.01}}))
        with pytest.raises(UsageError, match="schema"):
            load_config(str(path))

    def test_missing_file_and_bad_json(self, tmp_path):
        with pytest.raises(UsageError):
            load_config(str(tmp_path / "absent.json"))
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(UsageError):
            load_config(str(bad))


    @pytest.mark.parametrize(
        "command, overrides",
        [
            ("lr-sweep", {"lrs": [math.nan, 1e-3]}),
            ("run", {"loss": {"name": "dem", "tau": math.nan, "alpha": 0}}),
            ("run", {"optimizer": {"lr": math.inf}}),
            ("grid-search", {"grid": {"tau_max": -math.inf}}),
        ],
    )
    def test_non_finite_numbers_exit_64(self, tmp_path, capsys, command, overrides):
        # json.dumps writes NaN, Infinity and -Infinity, which json.load
        # would parse; load_config refuses them before the schema runs.
        cfg = small_config(tmp_path, **overrides)
        assert main([command, "--config", str(cfg)]) == EXIT_USAGE
        assert "is not finite" in capsys.readouterr().err

    def test_overflowing_number_is_refused(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"optimizer": {"lr": 1e999}}')
        with pytest.raises(UsageError, match="1e999 is not finite"):
            load_config(str(path))


class TestRewardCurveCommand:
    def test_writes_curve(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        code = main([
            "reward-curve", "--c", "10", "--m-min", "0", "--m-max", "1",
            "--m-step", "0.5", "--out", str(out),
        ])
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "m,p_max,reward"
        assert len(lines) == 4  # header + m in {0, 0.5, 1}
        # At zero margin the logits are uniform: p_max = 1/C and the
        # classical reward vanishes exactly.
        assert lines[1] == "0,0.1,0"

    def test_deterministic_bytes(self, tmp_path):
        out = tmp_path / "curve.csv"
        argv = ["reward-curve", "--m-max", "2", "--m-step", "0.25", "--out", str(out)]
        assert main(argv) == EXIT_OK
        first = out.read_bytes()
        assert main(argv) == EXIT_OK
        assert out.read_bytes() == first

    def test_invalid_hyperparameters_exit_2(self, tmp_path, capsys):
        code = main([
            "reward-curve", "--tau", "1.5", "--alpha", "2.0",
            "--out", str(tmp_path / "x.csv"),
        ])
        assert code == EXIT_BAD_HYPERPARAMS
        assert "invalid hyperparameters" in capsys.readouterr().err

    def test_bad_grid_exit_64(self, tmp_path):
        base = ["reward-curve", "--out", str(tmp_path / "x.csv")]
        assert main(base + ["--m-step", "0"]) == EXIT_USAGE
        assert main(base + ["--m-min", "2", "--m-max", "1"]) == EXIT_USAGE
        assert main(base + ["--c", "1"]) == EXIT_USAGE

    @pytest.mark.parametrize("flag", ["--m-min", "--m-max", "--m-step", "--tau", "--alpha"])
    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_non_finite_flag_exit_64(self, tmp_path, capsys, flag, value):
        # An infinite --m-max cannot size the grid, and tau = inf with
        # alpha = 0 makes every reward NaN.
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as exc:
            main(["reward-curve", f"{flag}={value}", "--out", str(out)])
        assert exc.value.code == EXIT_USAGE
        assert f"argument {flag}: must be finite, got {value}" in capsys.readouterr().err
        assert not out.exists()


class TestGradcheckCommand:
    def test_passes_and_reports_every_loss(self, capsys):
        assert main(["gradcheck", "--trials", "2"]) == EXIT_OK
        out = capsys.readouterr().out
        for name in ("em", "detached_em", "cadf_tempered", "dem", "cross_entropy",
                     "adadem", "linear/em", "mlp/adadem"):
            assert f"gradcheck {name}:" in out
        assert "[ok]" in out and "FAIL" not in out

    def test_end_to_end_cases_are_one_flat_pair_per_model_and_loss(self):
        from demkit.cli import _end_to_end_cases
        from demkit.numkit import Rng, rel_err

        sizes = {"linear": 4 * 3 + 4, "mlp": 5 * 3 + 5 + 4 * 5 + 4}
        names = []
        for name, analytic, oracle in _end_to_end_cases(Rng(0).derive("end-to-end")):
            names.append(name)
            size = sizes[name.split("/")[0]]
            assert analytic.shape == oracle.shape == (size,)
            assert rel_err(analytic, oracle) < 1e-6
        assert names == [f"{m}/{l}" for m in ("linear", "mlp")
                         for l in ("em", "dem", "cross_entropy", "adadem")]

    def test_corrupted_gradient_fails_with_exit_3(self, monkeypatch, capsys):
        from demkit import cli

        cases = cli._gradcheck_cases

        def corrupted(rng, trials):
            for name, analytic, oracle in cases(rng, trials):
                yield name, analytic + 1e-3 if name == "em" else analytic, oracle

        monkeypatch.setattr(cli, "_gradcheck_cases", corrupted)
        assert main(["gradcheck", "--trials", "2"]) == EXIT_NUMERIC
        captured = capsys.readouterr()
        assert "FAIL" in captured.out
        assert "gradcheck failed" in captured.err

    @pytest.mark.parametrize("where", ["every", "first", "last"])
    def test_nan_error_fails_with_exit_3(self, monkeypatch, capsys, where):
        # Python's max(0.0, nan) is 0.0, so a fold through the builtin
        # max would report a NaN error as "0 [ok]".
        from demkit import cli

        cases = cli._gradcheck_cases
        trials = 5

        def corrupted(rng, trials):
            k = 0
            for name, analytic, oracle in cases(rng, trials):
                if name == "em":
                    if where == "every" or (where, k) in (("first", 0), ("last", trials - 1)):
                        analytic = analytic.copy()
                        analytic[0] = np.nan
                    k += 1
                yield name, analytic, oracle

        monkeypatch.setattr(cli, "_gradcheck_cases", corrupted)
        assert main(["gradcheck", "--trials", str(trials)]) == EXIT_NUMERIC
        captured = capsys.readouterr()
        assert "gradcheck em: max rel err nan [FAIL]" in captured.out
        assert captured.out.count("FAIL") == 1
        assert "gradcheck failed for: em" in captured.err

    def test_nan_error_in_an_end_to_end_case_fails(self, monkeypatch, capsys):
        from demkit import cli

        cases = cli._end_to_end_cases

        def corrupted(rng):
            for name, analytic, oracle in cases(rng):
                yield name, oracle * np.nan if name == "mlp/dem" else analytic, oracle

        monkeypatch.setattr(cli, "_end_to_end_cases", corrupted)
        assert main(["gradcheck", "--trials", "1"]) == EXIT_NUMERIC
        assert "gradcheck mlp/dem: max rel err nan [FAIL]" in capsys.readouterr().out

    def test_stdout_is_pinned(self, capsys):
        # Recorded before the oracles moved onto the value kernels; every
        # value kernel keeps the bits of the expression it replaced.
        assert main(["gradcheck", "--trials", "40", "--seed", "3"]) == EXIT_OK
        assert capsys.readouterr().out == GRADCHECK_TRIALS_40_SEED_3

    def test_oracle_differentiates_the_public_dem_value(self, monkeypatch, capsys):
        # A change inside the dem value kernel moves dem_eval's value and
        # the oracle's function alike, so gradcheck sees it.
        from demkit import cli
        from demkit import em_losses as em

        z = np.array([0.3, -1.2, 2.0])
        cfg = em.DemConfig(0.9, 1.1)
        before = em.dem_eval(z, cfg).value
        kernel = em._dem_value
        monkeypatch.setattr(em, "_dem_value", lambda v, c: kernel(v, c) + 1e-3 * v[0])
        assert em.dem_eval(z, cfg).value == before + 1e-3 * z[0]
        assert main(["gradcheck", "--trials", "2"]) == EXIT_NUMERIC
        captured = capsys.readouterr()
        assert [line for line in captured.out.splitlines() if "FAIL" in line] == [
            line for line in captured.out.splitlines() if line.startswith("gradcheck dem:")
        ]
        assert "gradcheck failed for: dem\n" == captured.err

    def test_zero_trials_is_usage_error(self):
        assert main(["gradcheck", "--trials", "0"]) == EXIT_USAGE


class TestRunCommand:
    def test_writes_metrics_and_summary(self, tmp_path, capsys):
        cfg = small_config(tmp_path)
        assert main(["run", "--config", str(cfg)]) == EXIT_OK
        assert "run[em/single_domain]" in capsys.readouterr().out

        lines = (tmp_path / "out" / "metrics.csv").read_text().splitlines()
        assert lines[0] == METRICS_HEADER
        assert len(lines) == 3  # one shift row + overall
        assert lines[1].startswith("shift0,rotate2d,2,")
        assert lines[2].startswith("overall,-,-,")

        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["mode"] == "single_domain"
        assert summary["loss"] == "em"
        assert summary["seed"] == 0
        assert 0.0 <= summary["accuracy"] <= 1.0
        assert len(summary["per_shift_accuracy"]) == 1
        assert len(summary["per_shift_baseline"]) == 1

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = small_config(tmp_path)
        assert main(["run", "--config", str(cfg)]) == EXIT_OK
        metrics = (tmp_path / "out" / "metrics.csv").read_bytes()
        summary = (tmp_path / "out" / "summary.json").read_bytes()
        assert main(["run", "--config", str(cfg)]) == EXIT_OK
        assert (tmp_path / "out" / "metrics.csv").read_bytes() == metrics
        assert (tmp_path / "out" / "summary.json").read_bytes() == summary

    def test_continual_mode(self, tmp_path):
        cfg = small_config(
            tmp_path,
            stream={
                "mode": "continual",
                "shifts": [
                    {"kind": "rotate2d", "magnitude": 0.3},
                    {"kind": "rotate2d", "magnitude": 0.5},
                ],
                "batches_per_shift": 3,
                "batch_size": 16,
            },
            loss={"name": "adadem"},
        )
        assert main(["run", "--config", str(cfg)]) == EXIT_OK
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["mode"] == "continual"
        assert len(summary["per_shift_accuracy"]) == 2

    def test_divergence_exits_3_naming_where(self, tmp_path, capsys):
        cfg = small_config(tmp_path, optimizer={"lr": 1e308, "momentum": 0.9, "scope": "all"})
        with np.errstate(all="ignore"):
            assert main(["run", "--config", str(cfg)]) == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert "numeric failure: adaptation diverged at shift 0, batch " in err
        assert not (tmp_path / "out" / "metrics.csv").exists()

    def test_divergence_removes_previous_outputs(self, tmp_path):
        assert main(["run", "--config", str(small_config(tmp_path))]) == EXIT_OK
        out = tmp_path / "out"
        assert (out / "metrics.csv").exists() and (out / "summary.json").exists()
        cfg = small_config(tmp_path, optimizer={"lr": 1e308, "momentum": 0.9, "scope": "all"})
        assert main(["run", "--config", str(cfg)]) == EXIT_NUMERIC
        assert not (out / "metrics.csv").exists()
        assert not (out / "summary.json").exists()

    def test_divergence_raises_no_runtime_warning(self, tmp_path, capsys):
        cfg = small_config(tmp_path, optimizer={"lr": 1e308, "momentum": 0.9, "scope": "all"})
        errs = []
        for action in ("ignore", "error"):
            with warnings.catch_warnings():
                warnings.simplefilter(action, RuntimeWarning)
                assert main(["run", "--config", str(cfg)]) == EXIT_NUMERIC
            errs.append(capsys.readouterr().err)
        assert errs[1] == errs[0]
        assert errs[1].startswith("demkit: numeric failure: adaptation diverged at shift 0")

    def test_schema_violation_exit_64(self, tmp_path, capsys):
        cfg = small_config(tmp_path, typo_section={"x": 1})
        assert main(["run", "--config", str(cfg)]) == EXIT_USAGE
        assert "schema violation" in capsys.readouterr().err

    def test_invalid_dem_config_exit_2(self, tmp_path, capsys):
        cfg = small_config(tmp_path, loss={"name": "dem", "tau": 1.5, "alpha": 2.0})
        assert main(["run", "--config", str(cfg)]) == EXIT_BAD_HYPERPARAMS
        assert "invalid hyperparameters" in capsys.readouterr().err

    def test_three_dimensional_mixture_rejected(self, tmp_path, capsys):
        cfg = small_config(tmp_path, mixture={"C": 5, "d": 3, "radius": 4.0, "sigma": 1.0})
        assert main(["run", "--config", str(cfg)]) == EXIT_USAGE
        assert "schema violation at mixture/d" in capsys.readouterr().err

    def test_maximize_direction_rejected(self, tmp_path, capsys):
        cfg = small_config(tmp_path, loss={"name": "em", "direction": "maximize"})
        assert main(["run", "--config", str(cfg)]) == EXIT_USAGE
        assert "schema violation at loss/direction" in capsys.readouterr().err

    def test_label_priors_rejected(self, tmp_path, capsys):
        stream = {"mode": "single_domain", "label_priors": [0.2] * 5}
        cfg = small_config(tmp_path, stream=stream)
        assert main(["run", "--config", str(cfg)]) == EXIT_USAGE
        assert "schema violation at stream:" in capsys.readouterr().err

    def test_minimize_direction_still_runs(self, tmp_path):
        # The spelled-out direction is the only one, so it changes no byte.
        metrics = []
        for loss in ({"name": "em"}, {"name": "em", "direction": "minimize"}):
            cfg = small_config(tmp_path, loss=loss)
            assert main(["run", "--config", str(cfg)]) == EXIT_OK
            metrics.append((tmp_path / "out" / "metrics.csv").read_bytes())
        assert metrics[1] == metrics[0]


class TestGridSearchCommand:
    GRID = {
        "tau_min": 1.0, "tau_max": 2.0, "alpha_min": 0.0, "alpha_max": 2.0,
        "step": 1.0, "subset_fraction": 0.5,
    }

    def test_writes_table_and_summary(self, tmp_path):
        cfg = small_config(tmp_path, grid=self.GRID)
        assert main(["grid-search", "--config", str(cfg)]) == EXIT_OK

        lines = (tmp_path / "out" / "grid.csv").read_text().splitlines()
        assert lines[0] == "tau,alpha,valid,accuracy"
        assert len(lines) == 7  # 2 taus x 3 alphas
        invalid = [l for l in lines[1:] if l.split(",")[2] == "0"]
        assert invalid == ["2,2,0,"]  # tau=2, alpha=2 breaks tau <= 2/alpha

        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["total_points"] == 6
        assert summary["valid_points"] == 5
        assert summary["classical"]["tau"] == 1.0
        assert summary["best"]["subset_accuracy"] >= summary["classical"]["subset_accuracy"]
        for key in ("tau", "alpha", "subset_accuracy", "full_accuracy"):
            assert key in summary["best"]

    def test_classical_point_absent_gives_null(self, tmp_path):
        grid = {
            "tau_min": 1.5, "tau_max": 1.5, "alpha_min": 0.0, "alpha_max": 0.0,
            "step": 0.5, "subset_fraction": 0.5,
        }
        cfg = small_config(tmp_path, grid=grid)
        assert main(["grid-search", "--config", str(cfg)]) == EXIT_OK
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["classical"] is None

    def test_divergence_exits_3(self, tmp_path):
        good = small_config(tmp_path, grid=self.GRID)
        assert main(["grid-search", "--config", str(good)]) == EXIT_OK
        cfg = small_config(tmp_path, grid=self.GRID,
                           optimizer={"lr": 1e308, "momentum": 0.9, "scope": "all"})
        with np.errstate(all="ignore"):
            assert main(["grid-search", "--config", str(cfg)]) == EXIT_NUMERIC
        # The previous run's outputs are gone, not left looking current.
        assert not (tmp_path / "out" / "grid.csv").exists()
        assert not (tmp_path / "out" / "summary.json").exists()

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = small_config(tmp_path, grid=self.GRID)
        assert main(["grid-search", "--config", str(cfg)]) == EXIT_OK
        first = (tmp_path / "out" / "grid.csv").read_bytes()
        assert main(["grid-search", "--config", str(cfg)]) == EXIT_OK
        assert (tmp_path / "out" / "grid.csv").read_bytes() == first


class TestLrSweepCommand:
    def test_writes_sweep(self, tmp_path, capsys):
        cfg = small_config(tmp_path)
        assert main(["lr-sweep", "--config", str(cfg)]) == EXIT_OK
        assert "tolerance count" in capsys.readouterr().out

        lines = (tmp_path / "out" / "lr_sweep.csv").read_text().splitlines()
        assert lines[0] == "lr,accuracy"
        assert len(lines) == 3
        assert lines[1].startswith("0.001,")

        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["loss"] == "em"
        assert summary["lrs"] == [0.001, 0.005]
        assert 0 <= summary["tolerance_count"] <= 2
        assert len(summary["accuracies"]) == 2

    def test_diverged_rate_scores_nan_below_baseline(self, tmp_path):
        cfg = small_config(tmp_path, lrs=[1e-3, 1e308])
        with np.errstate(all="ignore"):
            assert main(["lr-sweep", "--config", str(cfg)]) == EXIT_OK
        lines = (tmp_path / "out" / "lr_sweep.csv").read_text().splitlines()
        assert lines[2] == "1e+308,nan"
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert math.isnan(summary["accuracies"][1])
        stable = 1 if summary["accuracies"][0] >= summary["baseline_accuracy"] else 0
        assert summary["tolerance_count"] == stable

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = small_config(tmp_path)
        assert main(["lr-sweep", "--config", str(cfg)]) == EXIT_OK
        first = (tmp_path / "out" / "lr_sweep.csv").read_bytes()
        assert main(["lr-sweep", "--config", str(cfg)]) == EXIT_OK
        assert (tmp_path / "out" / "lr_sweep.csv").read_bytes() == first


class TestArgumentErrors:
    def test_unknown_option_exits_64(self):
        with pytest.raises(SystemExit) as exc:
            main(["reward-curve", "--bogus"])
        assert exc.value.code == EXIT_USAGE

    def test_missing_config_flag_exits_64(self):
        with pytest.raises(SystemExit) as exc:
            main(["run"])
        assert exc.value.code == EXIT_USAGE

    def test_no_command_exits_64(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == EXIT_USAGE


class TestSubprocessEntryPoint:
    def test_module_invocation(self, tmp_path):
        out = tmp_path / "curve.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "demkit.cli", "reward-curve",
             "--m-max", "1", "--m-step", "0.5", "--out", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert out.exists()
        assert "reward-curve: wrote" in proc.stdout
