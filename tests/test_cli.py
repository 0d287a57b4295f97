"""End-to-end tests for the command-line interface.

Most cases invoke ``main(argv)`` in process (it returns the exit code);
one subprocess test covers the real interpreter entry point.
"""

import ast
import copy
import dataclasses
import inspect
import json
import math
import os
import re
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from jsonschema import Draft202012Validator

import demkit.bench
import demkit.cli
import demkit.model
import demkit.search
from demkit.cli import (
    DEFAULT_CONFIG,
    EXIT_BAD_HYPERPARAMS,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_USAGE,
    MAX_CLASSES,
    METRICS_HEADER,
    SCHEMA,
    UsageError,
    _schema_errors,
    _shown,
    experiment_plan,
    fmt9,
    jround,
    load_config,
    main,
    prepared_experiment,
    vec9,
)
from demkit.search import LrSweepResult, lr_sweep

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

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


def _refuse_constant(name):
    """A ``json.loads`` ``parse_constant`` that refuses ``NaN`` and the
    infinities, which strict JSON does not have."""
    raise ValueError(f"{name} is not JSON")


def small_config(tmp_path, **overrides):
    """A config small enough that every command finishes in well under a
    second; sections in ``overrides`` replace the corresponding block."""
    cfg = {
        "seed": 0,
        "output_dir": str(tmp_path / "out"),
        "mixture": {"C": 5, "d": 2, "radius": 4.0, "sigma": 1.0},
        "source": {
            "hidden": 8,
            "epochs": 2,
            "n": 200,
            "lr": 0.5,
            "momentum": 0.0,
            "batch_size": 32,
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
        assert list(_schema_errors(SCHEMA, DEFAULT_CONFIG)) == []

    def test_library_settings_have_no_defaults(self):
        # A config setting has one default, SCHEMA's: the library takes
        # each of these from its caller.
        from demkit import adadem, model

        for func, name in [
            (model.init_mlp, "scale"),
            (model.train_source, "batch_size"),
            (adadem.mec_init, "pi"),
            (model.AdaDemPlugin, "pi"),
        ]:
            param = inspect.signature(func).parameters[name]
            assert param.default is inspect.Parameter.empty, (func.__name__, name)
        for cls, name in [
            (adadem.MecState, "pi"),
            (demkit.bench.StreamSpec, "batch_size"),
            (demkit.bench.StreamSpec, "label_rho"),
        ]:
            (field,) = [f for f in dataclasses.fields(cls) if f.name == name]
            assert field.default is dataclasses.MISSING, (cls.__name__, name)
            assert field.default_factory is dataclasses.MISSING, (cls.__name__, name)

    def test_modes_and_levels_are_read_from_bench(self):
        # SCHEMA spells neither the stream modes nor the level range, and
        # the messages that name them keep their text.
        stream = SCHEMA["properties"]["stream"]["properties"]
        assert stream["mode"]["enum"] == list(demkit.bench.MODES)
        assert list(_schema_errors(SCHEMA, {"stream": {"mode": "episodic"}})) == [
            (("stream", "mode"), "'episodic' is not one of ['single_domain', 'continual']")
        ]
        with pytest.raises(ValueError, match=r"^level must be 1-5, got 6$"):
            demkit.bench.ShiftSpec("translate", 1.0, 6)

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

    @pytest.mark.parametrize(
        "overrides, where",
        [
            ({"optimizer": {"lr": 10**400}}, "optimizer/lr"),
            ({"mixture": {"C": 5, "d": 2, "radius": 10**400}}, "mixture/radius"),
            ({"lrs": [1e-3, -(10**400)]}, "lrs/1"),
        ],
        ids=["lr", "radius", "lrs"],
    )
    def test_integer_too_large_for_a_float_exit_64(self, tmp_path, capsys, overrides, where):
        # JSON Schema's "number" admits the literal, but every number
        # setting is used as a float: a config error, not a numeric failure.
        cfg = small_config(tmp_path, **overrides)
        assert main(["run", "--config", str(cfg)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == (
            f"demkit: config schema violation at {where}: "
            "a 401-digit integer is too large for a float\n"
        )
        assert not (tmp_path / "out").exists()

    def test_sizes_at_their_bounds_load(self, tmp_path):
        # Only read, never run: 1,000 x 1,000 rows in one shift is 10**6 rows.
        path = small_config(
            tmp_path,
            mixture={"C": 1000},
            source={"hidden": 1024, "n": 10**6},
            stream={"shifts": [{"kind": "translate"}], "batches_per_shift": 1000,
                    "batch_size": 1000},
        )
        cfg = load_config(str(path))
        assert (cfg["mixture"]["C"], cfg["source"]["hidden"], cfg["source"]["n"]) == (
            1000, 1024, 10**6
        )

    def test_integer_settings_take_large_integers(self, tmp_path):
        # A seed is used as an integer: any JSON integer of at least 0 runs.
        cfg = small_config(tmp_path, seed=10**30)
        assert main(["run", "--config", str(cfg)]) == EXIT_OK
        assert (tmp_path / "out" / "summary.json").exists()

    def test_integer_longer_than_the_digit_limit_exit_64(self, tmp_path, capsys):
        # Python reads no integer literal longer than its digit limit
        # (4,300 by default); the message says that the config holds one.
        path = tmp_path / "c.json"
        path.write_text('{"seed": 1' + "0" * 5000 + "}")
        assert main(["run", "--config", str(path)]) == EXIT_USAGE
        limit = sys.get_int_max_str_digits()
        assert capsys.readouterr().err == (
            f"demkit: config holds an integer literal longer than the {limit}-digit limit\n"
        )

    def test_config_that_is_not_utf8_exit_64(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_bytes(b'{"output_dir": "\xff"}')
        assert main(["run", "--config", str(path)]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            "demkit: config is not UTF-8: 'utf-8' codec can't decode byte 0xff "
            "in position 16: invalid start byte\n"
        )


def _schema_nodes(node=SCHEMA, path=()):
    """Every ``(path, node)`` of ``SCHEMA``, the root included."""
    yield path, node
    for name, sub in node.get("properties", {}).items():
        yield from _schema_nodes(sub, path + (name,))
    if "items" in node:
        yield from _schema_nodes(node["items"], path + ("items",))


def _sorted_errors(errors):
    return sorted(errors, key=lambda e: e[0])


def _jsonschema_errors(config):
    errors = Draft202012Validator(SCHEMA).iter_errors(config)
    return _sorted_errors((tuple(e.path), _cut(e.message, e.instance)) for e in errors)


def _cut(message, instance):
    """jsonschema's ``message`` with its leading echo of ``instance`` cut
    as ``cli._shown`` cuts it."""
    echo = repr(instance)
    return _shown(instance) + message[len(echo) :] if message.startswith(echo) else message


def _integral_float_paths(config, node=SCHEMA, path=()):
    """Paths of integral floats in integer settings, which only demkit refuses."""
    integer = node.get("type") == "integer" or type(node.get("const")) is int
    if integer and isinstance(config, float) and config.is_integer():
        yield path
    if isinstance(config, dict):
        for name, sub in node.get("properties", {}).items():
            if name in config:
                yield from _integral_float_paths(config[name], sub, path + (name,))
    if isinstance(config, list) and "items" in node:
        for i, item in enumerate(config):
            yield from _integral_float_paths(item, node["items"], path + (i,))


_SCHEMA_STRINGS = sorted(
    {v for _, node in _schema_nodes() for v in node.get("enum", ()) if isinstance(v, str)}
    | {"minimize", "maximize", ""}
)
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 12),
    st.sampled_from([0.0, -0.0, 1.0, 2.0, 5.0, 6.0, 300.0, 1e-300, 1e300]),
    st.floats(-3.0, 12.0),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(_SCHEMA_STRINGS),
    st.text(max_size=2),
)
_JSON = st.recursive(
    _SCALARS,
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.text(max_size=2), kids, max_size=3),
    max_leaves=6,
)


def _weighted(common, weight, rare):
    """``common`` ``weight`` times as often as ``rare`` (``one_of`` would merge repeats)."""
    return st.sampled_from([common] * weight + [rare]).flatmap(lambda s: s)


def _instances(node):
    """Values for a schema node: mostly shaped like it, sometimes any JSON."""
    if "properties" in node:
        known = st.fixed_dictionaries(
            {}, optional={k: _instances(sub) for k, sub in node["properties"].items()}
        )
        extra = st.dictionaries(st.sampled_from(["typo", "Z", "a b", "0"]), _SCALARS, max_size=2)
        shaped = st.builds(lambda k, e: {**e, **k}, known, _weighted(st.just({}), 2, extra))
    elif "items" in node:
        shaped = st.lists(_instances(node["items"]), max_size=3)
    else:
        # The node's own values.
        named = list(node.get("enum", [])) + ([node["const"]] if "const" in node else [])
        # jsonschema takes 1 for a constant 1.0, so the integral value of
        # each float constant is drawn as well.
        named += [int(c) for c in named if isinstance(c, float) and c.is_integer()]
        shaped = st.sampled_from(named) | _SCALARS if named else _SCALARS
    return _weighted(shaped, 7, _JSON)


class TestSchemaValidator:
    """``cli._schema_errors`` against jsonschema's ``Draft202012Validator``."""

    @settings(max_examples=400, deadline=None)
    @given(_instances(SCHEMA))
    def test_matches_jsonschema_except_integral_floats(self, config):
        floats = set(_integral_float_paths(config))
        ours = _sorted_errors(_schema_errors(SCHEMA, config))
        theirs = _jsonschema_errors(config)
        assert floats <= {path for path, _ in ours}
        # Elsewhere every (path, message) pair and their order agree, so
        # without integral floats load_config reports jsonschema's first error.
        assert [e for e in ours if e[0] not in floats] == [
            e for e in theirs if e[0] not in floats
        ]

    def test_every_schema_keyword_is_handled(self):
        # An unhandled keyword raises, whatever the instance.
        for _, node in _schema_nodes():
            for probe in (None, True, 0, 0.5, "", [], {}):
                list(_schema_errors(node, probe))

    def test_unhandled_keyword_raises(self):
        # The schema checks shape; a numeric bound belongs to a library owner.
        with pytest.raises(KeyError, match="'pattern' is not supported"):
            list(_schema_errors({"type": "string", "pattern": "x"}, "y"))
        with pytest.raises(KeyError, match="'minimum' is not supported"):
            list(_schema_errors({"type": "number", "minimum": 0}, 1))
        with pytest.raises(KeyError, match="'additionalProperties'"):
            list(_schema_errors({"additionalProperties": True}, {}))

    @pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.name)
    def test_shipped_configs_have_no_errors(self, path):
        config = json.loads(path.read_text())
        assert list(_schema_errors(SCHEMA, config)) == []

    @pytest.mark.parametrize(
        "config, path, message",
        [
            ([], (), "[] is not of type 'object'"),
            ({"b": 1, "a": 2}, (), "Additional properties are not allowed ('a', 'b' were unexpected)"),
            ({"seed": True}, ("seed",), "True is not of type 'integer'"),
            ({"output_dir": ""}, ("output_dir",), "'' should be non-empty"),
            ({"lrs": []}, ("lrs",), "[] should be non-empty"),
            ({"lrs": [0.1, "x"]}, ("lrs", 1), "'x' is not of type 'number'"),
            ({"mixture": {"d": 3}}, ("mixture", "d"), "2 was expected"),
            ({"source": {"momentum": "1"}}, ("source", "momentum"), "'1' is not of type 'number'"),
            ({"grid": {"step": None}}, ("grid", "step"), "None is not of type 'number'"),
            ({"loss": {"pi": [1.5]}}, ("loss", "pi"), "[1.5] is not of type 'number'"),
            ({"loss": {"name": "ce"}}, ("loss", "name"), "'ce' is not one of ['em', 'dem', 'adadem']"),
            ({"stream": {"shifts": [{}]}}, ("stream", "shifts", 0), "'kind' is a required property"),
        ],
    )
    def test_messages_are_jsonschemas(self, config, path, message):
        first = (path, message)
        assert _sorted_errors(_schema_errors(SCHEMA, config))[0] == first
        assert _jsonschema_errors(config)[0] == first

    def test_import_leaves_jsonschema_unloaded(self):
        code = "import sys, demkit.cli; print('jsonschema' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"


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

    @pytest.mark.parametrize("step", ["1e-320", "1e-9"])
    def test_oversized_grid_exit_64(self, tmp_path, capsys, step):
        # 1e-320 makes the point count overflow to infinity and 1e-9 asks
        # for 3e10 points; both are refused before a point is computed.
        out = tmp_path / "x.csv"
        assert main(["reward-curve", "--m-step", step, "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"demkit: grid axis [0.0, 30.0] at step {float(step)}:"
            " the grid has more than 100000 points\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("c", [MAX_CLASSES + 1, 10**15])
    def test_too_many_classes_exit_64(self, tmp_path, capsys, monkeypatch, c):
        # 10**15 classes used to end in numpy's "Unable to allocate 7.11 PiB"
        # and exit 1; the count is refused before a curve point is computed.
        def no_curve(*args):
            raise AssertionError("reward curve computed")

        monkeypatch.setattr("demkit.em_losses.reward_curve", no_curve)
        out = tmp_path / "x.csv"
        argv = ["reward-curve", "--c", str(c), "--m-max", "0", "--out", str(out)]
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"demkit: too large: --c is {c}, more than {MAX_CLASSES}\n"
        )
        assert not out.exists()

    def test_output_path_that_is_a_directory_exit_64(self, tmp_path, capsys):
        # The rename onto the directory fails; the temporary file goes too.
        out = tmp_path / "curve"
        out.mkdir()
        assert main(["reward-curve", "--m-max", "1", "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err == f"demkit: cannot write {out}: Is a directory\n"
        assert [p.name for p in tmp_path.rglob("*")] == ["curve"]

    def test_margins_near_the_top_of_the_float_range_stay_finite(self, tmp_path, capsys):
        # Rounding each margin to 12 decimals overflowed from about 1.8e296:
        # 9,999 of these 10,001 rows read inf,nan,nan beside a numpy warning.
        out = tmp_path / "x.csv"
        argv = ["reward-curve", "--c", "3", "--m-max", "1e300", "--m-step", "1e296"]
        assert main(argv + ["--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().err == ""
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert len(rows) == 10_001
        assert rows[1] == ["1e+296", "1", "0"] and rows[-1] == ["1e+300", "1", "0"]
        assert all(math.isfinite(float(x)) for row in rows for x in row)

    def test_grid_of_the_largest_point_count_is_written(self, tmp_path, monkeypatch):
        monkeypatch.setattr("demkit.search.GRID_MAX_POINTS", 5)
        out = tmp_path / "x.csv"
        base = ["reward-curve", "--m-step", "1", "--out", str(out)]
        assert main(base + ["--m-max", "4"]) == EXIT_OK
        assert len(out.read_text().splitlines()) == 1 + 5
        assert main(base + ["--m-max", "5"]) == EXIT_USAGE

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

    def test_one_oracle_kernel_call_per_model_and_loss(self, monkeypatch):
        # The parameter-space cases call finite_diff_grad's kernel over each
        # model's theta, 2 models x 4 losses; the logit-space cases call the
        # public oracle, 5 per trial, the count the benchmark's trace checks.
        from demkit import cli

        kernel, public = [], []
        real_kernel, real_public = cli._central_differences, cli.finite_diff_grad

        def counted_kernel(f, z, h):
            kernel.append(z.size)
            return real_kernel(f, z, h)

        def counted_public(*args, **kwargs):
            public.append(None)
            return real_public(*args, **kwargs)

        monkeypatch.setattr(cli, "_central_differences", counted_kernel)
        monkeypatch.setattr(cli, "finite_diff_grad", counted_public)
        assert main(["gradcheck", "--trials", "3"]) == EXIT_OK
        assert kernel == [4 * 3 + 4] * 4 + [5 * 3 + 5 + 4 * 5 + 4] * 4
        assert len(public) == 15

    def test_the_end_to_end_cases_never_write_a_model(self, monkeypatch):
        # Each value runs on a copy of the model, so each model's theta can
        # be read-only.  An oracle that perturbed the model itself could
        # put back the same bits afterwards, so the bytes alone would not
        # show it.
        from demkit import cli
        from demkit.numkit import Rng

        made = []

        def recorded(init):
            def make(*args, **kwargs):
                model = init(*args, **kwargs)
                model.theta.flags.writeable = False
                made.append((model, model.theta.tobytes()))
                return model
            return make

        for name in ("init_linear", "init_mlp"):
            monkeypatch.setattr(cli._model, name, recorded(getattr(cli._model, name)))
        names = []
        for name, _, _ in cli._end_to_end_cases(Rng(0).derive("end-to-end")):
            names.append(name)
            assert [m.theta.tobytes() for m, _ in made] == [b for _, b in made], name
        assert len(made) == 2 and len(names) == 8

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

    def test_guards_source_trainings_gradient(self, monkeypatch, capsys):
        # A kernel that forgets to subtract the targets trains every source
        # model wrong; gradcheck must fail exactly its three lines.
        from demkit import model
        from demkit.numkit import _softmax_rows

        monkeypatch.setattr(model, "_ce_rows", lambda Z, hot, G, flat: _softmax_rows(Z, G))
        assert main(["gradcheck", "--trials", "1"]) == EXIT_NUMERIC
        captured = capsys.readouterr()
        failed = [line.split()[1][:-1] for line in captured.out.splitlines() if "FAIL" in line]
        assert failed == ["cross_entropy", "linear/cross_entropy", "mlp/cross_entropy"]
        assert "gradcheck failed for: cross_entropy, linear/cross_entropy, mlp/cross_entropy" in (
            captured.err
        )

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
        assert captured.err == "demkit: numeric failure: gradcheck failed for: dem\n"

    def test_zero_trials_is_usage_error(self, capsys):
        assert main(["gradcheck", "--trials", "0"]) == EXIT_USAGE
        assert capsys.readouterr().err == "demkit: --trials must be at least 1, got 0\n"


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

    @pytest.mark.parametrize(
        "loss",
        [{"name": "em"}, {"name": "dem", "tau": 1.5, "alpha": 1.0}, {"name": "adadem"}],
        ids=["em", "dem", "adadem"],
    )
    def test_stacks_its_baseline_with_its_run(self, tmp_path, monkeypatch, loss):
        # One K = 2 run_protocols call gives the summaries of two
        # run_protocol calls: the run, then the lr = 0 baseline.
        cfg_path = small_config(tmp_path, loss=loss, optimizer={"lr": 0.05, "momentum": 0.9})
        calls, run = [], demkit.bench.run_protocols

        def recording(*args):
            calls.append(run(*args))
            return calls[-1]

        with monkeypatch.context() as patch:
            patch.setattr(demkit.bench, "run_protocols", recording)
            assert main(["run", "--config", str(cfg_path)]) == EXIT_OK
        (runs,) = calls
        assert len(runs) == 2
        cfg = load_config(str(cfg_path))
        model, plan = prepared_experiment(cfg)
        data, sgd = plan.data, plan.sgd
        for got, lr in zip(runs, (sgd.lr, 0.0)):
            want = demkit.bench.run_protocol(
                model, data, data.spec.mode, plan.factory, replace(sgd, lr=lr)
            )
            for name in ("confusion", "sums"):
                a, b = getattr(got, name), getattr(want, name)
                assert [x.tobytes() for x in a] == [y.tobytes() for y in b], (lr, name)
            assert got.total.tobytes() == want.total.tobytes()

    def test_a_stack_of_one_runs_the_baseline_alone(self, tmp_path, monkeypatch):
        # At stack_size 1, run scores its adaptation and its baseline in
        # two one-protocol calls, and writes the bytes of the stacked run.
        cfg = small_config(
            tmp_path, loss={"name": "adadem"}, optimizer={"lr": 0.05, "momentum": 0.9}
        )
        out = tmp_path / "out"
        outputs = []
        for K in (None, 1):
            with monkeypatch.context() as patch:
                sizes = TestStackedSweeps._chunks(patch, K)
                assert main(["run", "--config", str(cfg)]) == EXIT_OK
            assert sizes == ([2] if K is None else [1, 1])
            outputs.append([(out / name).read_bytes() for name in ("metrics.csv", "summary.json")])
        assert outputs[0] == outputs[1]

    def test_a_diverging_run_ends_before_its_baseline(self, tmp_path, monkeypatch, capsys):
        # At stack_size 1 a diverging run ends the command before the
        # baseline's protocol is called.
        cfg = small_config(tmp_path, optimizer={"lr": 1e308, "momentum": 0.9})
        with monkeypatch.context() as patch:
            sizes = TestStackedSweeps._chunks(patch, 1)
            assert main(["run", "--config", str(cfg)]) == EXIT_NUMERIC
        assert sizes == [1]
        assert "numeric failure: adaptation diverged at shift 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "loss",
        [{"name": "em"}, {"name": "dem", "tau": 1.5, "alpha": 1.0}, {"name": "adadem"}],
        ids=["em", "dem", "adadem"],
    )
    def test_baseline_is_lr_sweeps(self, tmp_path, loss):
        # run scores the frozen model by lr-sweep's protocol at lr = 0.
        cfg = small_config(tmp_path, loss=loss)
        baselines = []
        for command in ("run", "lr-sweep"):
            assert main([command, "--config", str(cfg)]) == EXIT_OK
            summary = json.loads((tmp_path / "out" / "summary.json").read_text())
            baselines.append(summary["baseline_accuracy"])
        assert baselines[0] == baselines[1]

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

    def test_divergence_names_the_run_or_its_baseline(self, tmp_path, capsys, monkeypatch):
        # The run diverges at lr 1e308.  The baseline at lr = 0 cannot, so
        # a patched chunk runner hands run a diverged baseline entry.
        cfg = small_config(tmp_path, optimizer={"lr": 1e308, "momentum": 0.9, "scope": "all"})
        assert main(["run", "--config", str(cfg)]) == EXIT_NUMERIC
        assert capsys.readouterr().err == (
            "demkit: numeric failure: adaptation diverged at shift 0, batch 1: "
            "non-finite logits (the run at lr=1e+308)\n"
        )
        chunked = demkit.bench.run_chunked

        def baseline_diverges(model, spec, data, factories, cfgs):
            yield next(chunked(model, spec, data, factories[:1], cfgs[:1]))
            yield demkit.model.DivergenceError("logits", 2, 0)

        monkeypatch.setattr(demkit.bench, "run_chunked", baseline_diverges)
        assert main(["run", "--config", str(small_config(tmp_path))]) == EXIT_NUMERIC
        assert capsys.readouterr().err == (
            "demkit: numeric failure: adaptation diverged at shift 0, batch 2: "
            "non-finite logits (the baseline at lr=0)\n"
        )

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

    @pytest.mark.parametrize("command", ["run", "lr-sweep"])
    def test_diverging_source_training_exits_3_naming_it(self, tmp_path, capsys, command):
        # A source learning rate of 1e6 overflows the MLP in its first
        # epoch.  The failure is reported as source training's, once, with
        # none of numpy's warnings, even when every warning is shown.
        path = tmp_path / "config.json"
        path.write_text(json.dumps(
            {"output_dir": str(tmp_path / "out"), "source": {"epochs": 3, "lr": 1e6}}
        ))
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            assert main([command, "--config", str(path)]) == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert err == "demkit: numeric failure: source training diverged in epoch 0\n"
        assert list((tmp_path / "out").iterdir()) == []

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

    @pytest.mark.parametrize(
        "overrides, where, message",
        [
            ({"seed": 1.0}, "seed", "1.0 is not of type 'integer'"),
            ({"source": {"epochs": 300.0}}, "source/epochs", "300.0 is not of type 'integer'"),
            ({"mixture": {"C": 4.0}}, "mixture/C", "4.0 is not of type 'integer'"),
            ({"mixture": {"d": 2.0}}, "mixture/d", "2 was expected"),
            (
                {"stream": {"shifts": [{"kind": "rotate2d", "level": 2.0}]}},
                "stream/shifts/0/level",
                "2.0 is not of type 'integer'",
            ),
            ({"source": {"arch": "linear"}}, "source/arch", "'mlp' was expected"),
        ],
        ids=["seed", "epochs", "C", "d", "level", "arch"],
    )
    def test_integral_float_setting_exit_64(self, tmp_path, capsys, overrides, where, message):
        # JSON Schema's "integer" admits 300.0; demkit wants a JSON integer,
        # since a float seed, count or class number crashed, and a float
        # level keyed different stream data than the integer.  Constant
        # settings take their one value: mixture.d is the integer 2, and
        # source.arch is the MLP.
        cfg = small_config(tmp_path, **overrides)
        assert main(["run", "--config", str(cfg)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == f"demkit: config schema violation at {where}: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_maximize_direction_rejected(self, tmp_path, capsys):
        cfg = small_config(tmp_path, loss={"name": "em", "direction": "maximize"})
        assert main(["run", "--config", str(cfg)]) == EXIT_USAGE
        assert "schema violation at loss/direction" in capsys.readouterr().err

    def test_label_priors_rejected(self, tmp_path, capsys):
        stream = {"mode": "single_domain", "label_priors": [0.2] * 5}
        cfg = small_config(tmp_path, stream=stream)
        assert main(["run", "--config", str(cfg)]) == EXIT_USAGE
        assert "schema violation at stream:" in capsys.readouterr().err

    def test_head_scope_rejected(self, tmp_path, capsys):
        cfg = small_config(tmp_path, optimizer={"lr": 0.001, "momentum": 0.9, "scope": "head"})
        assert main(["run", "--config", str(cfg)]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            "demkit: config schema violation at optimizer/scope: 'all' was expected\n"
        )

    def test_spelled_all_scope_still_runs(self, tmp_path):
        # Every parameter moves; the benchmark's configs spell that scope,
        # and it changes no byte.
        outputs = []
        for optimizer in ({"lr": 0.001, "momentum": 0.9},
                          {"lr": 0.001, "momentum": 0.9, "scope": "all"}):
            cfg = small_config(tmp_path, optimizer=optimizer)
            assert main(["run", "--config", str(cfg)]) == EXIT_OK
            out = tmp_path / "out"
            outputs.append([(out / f).read_bytes() for f in ("metrics.csv", "summary.json")])
        assert outputs[1] == outputs[0]

    def test_minimize_direction_still_runs(self, tmp_path):
        # The spelled-out direction is the only one, so it changes no byte.
        metrics = []
        for loss in ({"name": "em"}, {"name": "em", "direction": "minimize"}):
            cfg = small_config(tmp_path, loss=loss)
            assert main(["run", "--config", str(cfg)]) == EXIT_OK
            metrics.append((tmp_path / "out" / "metrics.csv").read_bytes())
        assert metrics[1] == metrics[0]

    @pytest.mark.parametrize(
        "key, value",
        [
            ("norm", "L2"),
            ("delta_source", "full_entropy"),
            ("variant", "norm_only"),
            ("variant", "mec_only"),
            ("mec_alpha", 0.5),
        ],
    )
    def test_other_adadem_deltas_rejected(self, tmp_path, capsys, key, value):
        # The config reaches one AdaDEM, the full variant: the L1 norm of
        # the CADF reward as delta, and the calibrator at weight 1.
        cfg = small_config(tmp_path, loss={"name": "adadem", key: value})
        assert main(["run", "--config", str(cfg)]) == EXIT_USAGE
        assert f"schema violation at loss/{key}" in capsys.readouterr().err

    def test_spelled_adadem_delta_still_runs(self, tmp_path):
        # The loss section of the lr-sweep benchmark workload spells the
        # one delta, variant, calibrator weight and direction; they change
        # no byte, and the weight may be written as the JSON integer 1.
        spelled = {
            "name": "adadem", "variant": "full", "norm": "L1", "pi": 0.1,
            "mec_alpha": 1.0, "delta_source": "cadf", "direction": "minimize",
        }
        bare = {"name": "adadem", "pi": 0.1}
        outputs = []
        for loss in (bare, spelled, {**bare, "mec_alpha": 1}):
            cfg = small_config(tmp_path, loss=loss)
            assert main(["lr-sweep", "--config", str(cfg)]) == EXIT_OK
            out = tmp_path / "out"
            outputs.append([(out / f).read_bytes() for f in ("lr_sweep.csv", "summary.json")])
        assert outputs[1] == outputs[0]
        assert outputs[2] == outputs[0]


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


class TestStackedSweeps:
    """``grid-search`` scores its points and ``lr-sweep`` its rates in
    stacked chunks; both sweeps make one loss and one SGD call per point
    and step."""

    STREAM = {
        "mode": "continual",
        "shifts": [{"kind": "rotate2d", "magnitude": 0.4}, {"kind": "translate", "magnitude": 1.0}],
        "batches_per_shift": 4,
        "batch_size": 16,
    }
    GRID = {  # 12 valid points
        "tau_min": 0.5, "tau_max": 2.0, "alpha_min": 0.5, "alpha_max": 2.0,
        "step": 0.5, "subset_fraction": 0.5,
    }

    @staticmethod
    def _chunks(monkeypatch, K=None):
        """The number of protocols of each ``run_protocols`` call, with
        ``stack_size`` fixed at ``K`` unless ``K`` is None."""
        sizes, run = [], demkit.bench.run_protocols

        def recording(model, data, mode, factories, *args, **kwargs):
            sizes.append(len(factories))
            return run(model, data, mode, factories, *args, **kwargs)

        monkeypatch.setattr(demkit.bench, "run_protocols", recording)
        if K is not None:
            monkeypatch.setattr(demkit.bench, "stack_size", lambda model, data: K)
        return sizes

    def _outputs(self, tmp_path, cfg, command="grid-search", table="grid.csv"):
        assert main([command, "--config", str(cfg)]) == EXIT_OK
        out = tmp_path / "out"
        return [(out / name).read_bytes() for name in (table, "summary.json")]

    def test_chunks_give_the_bytes_of_one_point_at_a_time(self, tmp_path, monkeypatch):
        cfg = small_config(tmp_path, stream=self.STREAM, grid=self.GRID,
                           loss={"name": "dem"}, optimizer={"lr": 0.05, "momentum": 0.9})
        with monkeypatch.context() as patch:
            sizes = self._chunks(patch, K=1)
            alone = self._outputs(tmp_path, cfg)
        assert sizes == [1] * 14  # 12 points, then the best and the classical point
        for K, chunks in ((2, [2] * 7), (5, [5, 5, 2, 2]), (None, [12, 2])):
            with monkeypatch.context() as patch:
                sizes = self._chunks(patch, K)
                assert self._outputs(tmp_path, cfg) == alone, K
            assert sizes == chunks, K

    def test_divergence_names_the_lowest_diverged_point(self, tmp_path, capsys, monkeypatch):
        # The first point of the chunk adapts; the second and fourth
        # diverge.  A stacked run names the point that runs alone names.
        grid = {**self.GRID, "tau_max": 1.0, "alpha_min": 1.0, "alpha_max": 1.5}
        cfg = small_config(tmp_path, stream=self.STREAM, grid=grid,
                           loss={"name": "dem"}, optimizer={"lr": 1e64, "momentum": 0.9})
        errors = []
        for K, chunks in ((1, [1, 1]), (4, [4])):
            with monkeypatch.context() as patch:
                sizes = self._chunks(patch, K)
                assert main(["grid-search", "--config", str(cfg)]) == EXIT_NUMERIC
            assert sizes == chunks
            errors.append(capsys.readouterr().err)
        assert errors == [
            "demkit: numeric failure: adaptation diverged at shift 1, batch 1: non-finite logits"
            " (grid point tau=0.5, alpha=1.5, on the leading subset)\n"
        ] * 2

    def test_divergence_on_the_full_stream_names_that_pass(self, tmp_path, capsys):
        # One batch per shift is the subset, on which every point adapts;
        # the best point then diverges in the full stream's fourth batch.
        grid = {**self.GRID, "tau_max": 1.0, "alpha_min": 1.0, "alpha_max": 1.5,
                "subset_fraction": 0.25}
        cfg = small_config(tmp_path, stream=self.STREAM, grid=grid,
                           loss={"name": "dem"}, optimizer={"lr": 1e64, "momentum": 0.9})
        assert main(["grid-search", "--config", str(cfg)]) == EXIT_NUMERIC
        assert capsys.readouterr().err == (
            "demkit: numeric failure: adaptation diverged at shift 0, batch 3: non-finite logits"
            " (grid point tau=1, alpha=1.5, on the full stream)\n"
        )

    def _lr_sweep_outputs(self, tmp_path, cfg, monkeypatch, K):
        """``lr-sweep``'s outputs and chunk sizes with ``stack_size`` at ``K``."""
        with monkeypatch.context() as patch, np.errstate(all="ignore"):
            sizes = self._chunks(patch, K)
            return self._outputs(tmp_path, cfg, "lr-sweep", "lr_sweep.csv"), sizes

    def test_lr_sweep_chunks_give_the_bytes_of_one_rate_at_a_time(self, tmp_path, monkeypatch):
        cfg = small_config(tmp_path, stream=self.STREAM, loss={"name": "adadem"},
                           lrs=[1e-3, 5e-3, 1e-2, 5e-2, 0.1])
        alone, sizes = self._lr_sweep_outputs(tmp_path, cfg, monkeypatch, 1)
        assert sizes == [1] * 6  # the lr = 0 baseline, then the five rates
        for K, chunks in ((2, [2, 2, 2]), (5, [5, 1]), (None, [6])):
            outputs, sizes = self._lr_sweep_outputs(tmp_path, cfg, monkeypatch, K)
            assert outputs == alone, K
            assert sizes == chunks, K

    def test_a_diverging_rate_leaves_the_rest_of_its_stack_alone(self, tmp_path, monkeypatch):
        # The second of three rates diverges mid-stack and scores NaN; the
        # baseline and the other rates keep the bytes of their lone runs.
        cfg = small_config(tmp_path, stream=self.STREAM, loss={"name": "adadem"},
                           lrs=[1e-3, 1e308, 5e-3])
        alone, _ = self._lr_sweep_outputs(tmp_path, cfg, monkeypatch, 1)
        stacked, sizes = self._lr_sweep_outputs(tmp_path, cfg, monkeypatch, None)
        assert sizes == [4] and stacked == alone
        rows = stacked[0].decode().splitlines()
        assert rows[2] == "1e+308,nan" and "nan" not in rows[1] + rows[3]
        summary = json.loads(stacked[1], parse_constant=_refuse_constant)
        assert not math.isnan(summary["baseline_accuracy"])
        assert summary["accuracies"][1] is None
        assert None not in summary["accuracies"][::2]

    def test_a_diverging_baseline_in_a_stack_exits_3(self, tmp_path, monkeypatch, capsys):
        # The lr = 0 baseline, the first protocol of the stack, diverges:
        # it scores NaN, the rates keep their accuracies, and lr-sweep
        # exits 3 as search.lr_sweep's NaN baseline rule has it.
        cfg_path = small_config(tmp_path, stream=self.STREAM, lrs=[1e-3, 5e-3])
        cfg = load_config(str(cfg_path))
        model, plan = prepared_experiment(cfg)
        data, sgd = plan.data, plan.sgd
        clean = lr_sweep(model, data, plan.factory, sgd, cfg["lrs"])
        made = []

        class NanForTheFirst:
            """EM, whose first plugin made (the baseline's) diverges."""

            def __init__(self):
                self.first = not made
                made.append(self)

            def batch_eval(self, Z, P):
                grads = demkit.model.EmPlugin().batch_eval(Z, P)
                if self.first:
                    grads[0, 0] = np.nan
                return grads

        monkeypatch.setattr(demkit.cli, "plugin_factory_from", lambda cfg: NanForTheFirst)
        sizes = self._chunks(monkeypatch)
        broken = lr_sweep(model, data, NanForTheFirst, sgd, cfg["lrs"])
        assert math.isnan(broken.baseline) and broken.rows == clean.rows
        made.clear()
        assert main(["lr-sweep", "--config", str(cfg_path)]) == EXIT_NUMERIC
        assert sizes == [3, 3]
        assert capsys.readouterr().err == (
            "demkit: numeric failure: lr-sweep: non-finite baseline\n"
        )
        assert not (tmp_path / "out" / "lr_sweep.csv").exists()

    @staticmethod
    def _counted(monkeypatch):
        """Calls of ``dem_rows``, ``adadem_rows`` and of ``sgd_step`` made
        inside ``adapt_stream``, counted through wrappers."""
        counts = dict.fromkeys(("dem_rows", "adadem_rows", "sgd_step"), 0)
        inside = []

        def counting(module, name):
            inner = getattr(module, name)

            def wrapper(*args, **kwargs):
                if name != "sgd_step" or inside:
                    counts[name] += 1
                return inner(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        adapt = demkit.bench.adapt_stream

        def adapting(*args, **kwargs):
            inside.append(True)
            try:
                return adapt(*args, **kwargs)
            finally:
                inside.pop()

        monkeypatch.setattr(demkit.bench, "adapt_stream", adapting)
        counting(demkit.em_losses, "dem_rows")
        counting(demkit.adadem, "adadem_rows")
        counting(demkit.model, "sgd_step")
        return counts

    def test_grid_search_makes_one_call_per_point_step(self, tmp_path, monkeypatch):
        cfg = small_config(tmp_path, stream=self.STREAM, grid=self.GRID,
                           loss={"name": "dem"}, optimizer={"lr": 0.05, "momentum": 0.9})
        counts = self._counted(monkeypatch)
        assert main(["grid-search", "--config", str(cfg)]) == EXIT_OK
        # 12 points on 2 of each shift's 4 batches, then the best and the
        # classical point on all 8.
        steps = 12 * 2 * 2 + 2 * 2 * 4
        assert counts == {"dem_rows": steps, "adadem_rows": 0, "sgd_step": steps}

    def test_lr_sweep_makes_one_call_per_point_step(self, tmp_path, monkeypatch):
        cfg = small_config(tmp_path, stream=self.STREAM, loss={"name": "adadem"},
                           lrs=[1e-3, 5e-3])
        counts = self._counted(monkeypatch)
        assert main(["lr-sweep", "--config", str(cfg)]) == EXIT_OK
        steps = 3 * 2 * 4  # the two rates and the lr = 0 baseline, 8 steps each
        assert counts == {"dem_rows": 0, "adadem_rows": steps, "sgd_step": steps}


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
        # strict JSON: the diverged rate's NaN is written as null
        text = (tmp_path / "out" / "summary.json").read_text()
        summary = json.loads(text, parse_constant=_refuse_constant)
        assert summary["accuracies"][1] is None
        stable = 1 if summary["accuracies"][0] >= summary["baseline_accuracy"] else 0
        assert summary["tolerance_count"] == stable

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = small_config(tmp_path)
        assert main(["lr-sweep", "--config", str(cfg)]) == EXIT_OK
        first = (tmp_path / "out" / "lr_sweep.csv").read_bytes()
        assert main(["lr-sweep", "--config", str(cfg)]) == EXIT_OK
        assert (tmp_path / "out" / "lr_sweep.csv").read_bytes() == first


@pytest.mark.parametrize("command", ["run", "grid-search", "lr-sweep"])
def test_overflowing_shift_exit_64_before_source_training(tmp_path, capsys, monkeypatch, command):
    # The ShiftSpec check runs inside prepared_experiment, so only the
    # training it would start next is patched to fail.
    def fail(*args):
        raise AssertionError("source training started")

    monkeypatch.setattr("demkit.cli.build_source_model", fail)
    cfg = small_config(tmp_path, stream={
        "mode": "single_domain",
        "shifts": [{"kind": "rotate2d", "magnitude": 1e308, "level": 5}],
        "batches_per_shift": 3,
        "batch_size": 16,
    })
    assert main([command, "--config", str(cfg)]) == EXIT_USAGE
    assert capsys.readouterr().err == (
        "demkit: stream/shifts/0: rotate2d at magnitude 1e+308, level 5: "
        "the effective magnitude is not finite\n"
    )


def _one_shift(shift: dict) -> dict:
    """``small_config``'s stream section with ``shift`` as its one shift."""
    return {"mode": "single_domain", "shifts": [shift], "batches_per_shift": 3, "batch_size": 16}


@pytest.mark.parametrize("command", ["run", "grid-search", "lr-sweep"])
@pytest.mark.parametrize(
    "overrides, message",
    [
        (
            {"stream": _one_shift({"kind": "feature_scale", "magnitude": 1e308, "level": 2})},
            "feature_scale at magnitude 1e+308, level 2: the inputs can overflow",
        ),
        (
            {"stream": _one_shift({"kind": "feature_scale", "magnitude": -1e308, "level": 2})},
            "feature_scale at magnitude -1e+308, level 2: the inputs can overflow",
        ),
        (
            {"stream": _one_shift({"kind": "feature_noise", "magnitude": 1e308, "level": 2})},
            "feature_noise at magnitude 1e+308, level 2: the inputs can overflow",
        ),
        (
            {"mixture": {"C": 5, "radius": 4.0, "sigma": 1e308}},
            "mixture at radius 4, sigma 1e+308: the inputs can overflow",
        ),
    ],
    ids=["scale", "negative-scale", "noise", "sigma"],
)
def test_inputs_that_can_overflow_exit_64_before_source_training(
    tmp_path, capsys, monkeypatch, command, overrides, message
):
    # A source coordinate is at most radius + NORMAL_BOUND * sigma, and
    # each shift's bound follows from it; none of these is finite.
    def fail(*args):
        raise AssertionError("source training started")

    monkeypatch.setattr("demkit.cli.build_source_model", fail)
    cfg = small_config(tmp_path, **overrides)
    assert main([command, "--config", str(cfg)]) == EXIT_USAGE
    assert capsys.readouterr().err == f"demkit: stream: {message}\n"


def test_inputs_with_a_finite_bound_are_drawn_finite(tmp_path, monkeypatch):
    # Huge settings whose bound is finite pass the check, and their
    # inputs are finite.
    for overrides in (
        {"stream": _one_shift({"kind": "feature_scale", "magnitude": 1e306, "level": 5})},
        {"stream": _one_shift({"kind": "feature_noise", "magnitude": 1e306, "level": 5})},
        {"mixture": {"C": 5, "radius": 4.0, "sigma": 1e307}},
    ):
        plan = experiment_plan(load_config(str(small_config(tmp_path, **overrides))))
        assert all(np.isfinite(X).all() for X, _ in plan.data)


class TestSettingsFailFast:
    """A bad loss, grid or size is refused before source training: with
    ``build_source_model`` failing, the command still exits 2 or 64."""

    @pytest.fixture(autouse=True)
    def no_training(self, monkeypatch):
        def fail(*args):
            raise AssertionError("source training started")

        monkeypatch.setattr("demkit.cli.build_source_model", fail)

    @pytest.mark.parametrize("command", ["run", "lr-sweep"])
    def test_invalid_dem_config_exit_2(self, tmp_path, capsys, command):
        cfg = small_config(tmp_path, loss={"name": "dem", "tau": 2.0, "alpha": 2.0})
        assert main([command, "--config", str(cfg)]) == EXIT_BAD_HYPERPARAMS
        assert "invalid hyperparameters" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "grid-search", "lr-sweep"])
    @pytest.mark.parametrize(
        "overrides, message",
        [
            (
                {"loss": {"name": name, "tau": 2.0, "alpha": 2.0}},
                "loss: invalid hyperparameters tau=2.0, alpha=2.0: "
                "requires tau > 0 and, for alpha > 0, tau <= 2/alpha = 1",
            )
            for name in ("em", "adadem")
        ] + [
            (
                {"grid": {"tau_min": 3.0, "tau_max": 4.0, "alpha_min": 2.0, "alpha_max": 2.0}},
                "grid: the grid contains no valid (tau, alpha) points",
            ),
        ],
        ids=["em-pair", "adadem-pair", "grid-without-a-valid-point"],
    )
    def test_validity_does_not_depend_on_the_command(
        self, tmp_path, capsys, command, overrides, message
    ):
        # By decision: em and adadem read no (tau, alpha), and run and
        # lr-sweep read no grid, but a config refused on one command is
        # refused on all three.
        cfg = small_config(tmp_path, **overrides)
        assert main([command, "--config", str(cfg)]) == EXIT_BAD_HYPERPARAMS
        assert capsys.readouterr().err == f"demkit: {message}\n"

    @pytest.mark.parametrize(
        "grid, code, message",
        [
            (
                {"tau_min": 2.0, "tau_max": 1.0},
                EXIT_USAGE,
                "grid axis [2.0, 1.0] at step 0.1: grid bounds are inverted",
            ),
            (
                {"step": 5e-324},
                EXIT_USAGE,
                "grid axis [0.0, 2.0] at step 5e-324: the grid has more than 100000 points",
            ),
            ({"step": 1e-4}, EXIT_USAGE, "the grid has more than 100000 points"),
            (
                {"tau_min": 3.0, "tau_max": 4.0, "alpha_min": 2.0, "alpha_max": 2.0},
                EXIT_BAD_HYPERPARAMS,
                "the grid contains no valid (tau, alpha) points",
            ),
        ],
        ids=["inverted", "step-5e-324", "step-1e-4", "no-valid-point"],
    )
    def test_bad_grid(self, tmp_path, capsys, grid, code, message):
        cfg = small_config(tmp_path, grid=grid)
        assert main(["grid-search", "--config", str(cfg)]) == code
        assert capsys.readouterr().err == f"demkit: grid: {message}\n"

    @pytest.mark.parametrize("command", ["run", "grid-search", "lr-sweep"])
    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"mixture": {"C": 1001}}, "mixture/C is 1001, more than 1000"),
            ({"source": {"hidden": 1025}}, "source/hidden is 1025, more than 1024"),
            ({"source": {"n": 10**6 + 1}}, "source/n is 1000001, more than 1000000"),
            (
                {"stream": {"shifts": [{"kind": "translate"}] * 2, "batches_per_shift": 1,
                            "batch_size": 500_001}},
                "stream rows (shifts x batches_per_shift x batch_size) is 1000002,"
                " more than 1000000",
            ),
        ],
        ids=["classes", "hidden", "source-rows", "stream-rows"],
    )
    def test_oversized_config_exit_64(self, tmp_path, capsys, command, overrides, message):
        cfg = small_config(tmp_path, **overrides)
        assert main([command, "--config", str(cfg)]) == EXIT_USAGE
        assert capsys.readouterr().err == f"demkit: config too large: {message}\n"

    @pytest.mark.parametrize(
        "command, table", [("run", "metrics.csv"), ("grid-search", "grid.csv"),
                           ("lr-sweep", "lr_sweep.csv")]
    )
    def test_output_dir_under_a_file_exit_64(self, tmp_path, capsys, command, table):
        # Removing the previous outputs finds a file where a directory
        # should be; nothing is written, and no temporary file is left.
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"output_dir": str(blocker / "out")}))
        assert main([command, "--config", str(path)]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"demkit: cannot remove {blocker / 'out' / table}: Not a directory\n"
        )
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["blocker", "config.json"]

    @pytest.mark.parametrize("command", ["run", "grid-search", "lr-sweep"])
    def test_output_dir_that_cannot_be_created_exit_64(self, tmp_path, capsys, command):
        # A dangling symlink has no previous outputs to remove, and no
        # directory can be made in its place: refused before any work.
        out = tmp_path / "out"
        out.symlink_to(tmp_path / "missing")
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"output_dir": str(out)}))
        assert main([command, "--config", str(path)]) == EXIT_USAGE
        assert capsys.readouterr().err == f"demkit: cannot create {out}: File exists\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "out"]

    @pytest.mark.parametrize("command", ["run", "grid-search", "lr-sweep"])
    @pytest.mark.parametrize(
        "text",
        ['{"seed": ' + "[" * 5000 + "]" * 5000 + "}", "[" * 5000 + "]" * 5000],
        ids=["nested-seed", "nested-root"],
    )
    def test_deeply_nested_config_exit_64(self, tmp_path, capsys, command, text):
        # The JSON decoder raises RecursionError here; it is a usage error, not a traceback.
        path = tmp_path / "config.json"
        path.write_text(text)
        assert main([command, "--config", str(path)]) == EXIT_USAGE
        assert capsys.readouterr().err == "demkit: config is nested too deeply to read\n"

    def test_huge_offending_value_gives_a_short_message(self, tmp_path, capsys):
        # A 3 MB seed array used to come back whole, on one 3,000,067-byte line.
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"seed": [0] * 10**6}))
        assert main(["run", "--config", str(path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == (
            "demkit: config schema violation at seed: "
            + "[" + "0, " * 25 + "0..." + " is not of type 'integer'\n"
        )
        assert not (tmp_path / "out").exists()
        long_name = {"k" * 10**5: 1}
        assert list(_schema_errors(SCHEMA, long_name)) == [
            ((), "Additional properties are not allowed ('" + "k" * 76 + "... was unexpected)")
        ]

    def test_cut_messages_are_jsonschemas_cut(self):
        # The oracle's cut, on values long enough to be cut.
        for config in ({"seed": [0] * 10**4}, {"lrs": "x" * 300}, {"loss": {"name": "y" * 100}}):
            ours = _sorted_errors(_schema_errors(SCHEMA, config))
            assert ours == _jsonschema_errors(config)
            assert all(len(m) < 160 for _, m in ours)

    def test_shipped_config_with_a_huge_stream_exit_64(self, tmp_path, capsys):
        # This config used to end in numpy's "Unable to allocate 931. TiB"
        # and exit 1.
        cfg = json.loads((CONFIGS / "single_domain_em.json").read_text())
        cfg.update(output_dir=str(tmp_path / "out"), source={"epochs": 0})
        cfg["stream"]["batches_per_shift"] = 10**12
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(path)]) == EXIT_USAGE
        assert "config too large: stream rows" in capsys.readouterr().err

    # One case per numeric bound the schema used to carry: (config
    # overrides, exit code, stderr message).  Each value is refused by its
    # library owner, with its config section first, on every command.
    OUT_OF_RANGE = {
        "seed": ({"seed": -1}, EXIT_USAGE, "seed: seed must be at least 0, got -1"),
        "mixture-C": ({"mixture": {"C": 1}}, EXIT_USAGE, "mixture: C must be at least 2, got 1"),
        "mixture-radius": (
            {"mixture": {"radius": 0}}, EXIT_USAGE,
            "mixture: radius must be positive and finite, got 0",
        ),
        "mixture-sigma": (
            {"mixture": {"sigma": -1.0}}, EXIT_USAGE,
            "mixture: sigma must be positive and finite, got -1.0",
        ),
        "source-hidden": (
            {"source": {"hidden": 0}}, EXIT_USAGE, "source: hidden must be at least 1, got 0"
        ),
        "source-epochs": (
            {"source": {"epochs": -1}}, EXIT_USAGE, "source: epochs must be at least 0, got -1"
        ),
        "source-n": ({"source": {"n": 0}}, EXIT_USAGE, "source: n must be at least 1, got 0"),
        "source-lr": (
            {"source": {"lr": -0.5}}, EXIT_USAGE,
            "source: learning rate must be finite and non-negative, got -0.5",
        ),
        "source-momentum-below": (
            {"source": {"momentum": -0.1}}, EXIT_USAGE,
            "source: momentum must lie in [0, 1), got -0.1",
        ),
        "source-momentum-above": (
            {"source": {"momentum": 1}}, EXIT_USAGE, "source: momentum must lie in [0, 1), got 1"
        ),
        "source-batch_size": (
            {"source": {"batch_size": 0}}, EXIT_USAGE,
            "source: batch_size must be at least 1, got 0",
        ),
        "source-init_scale": (
            {"source": {"init_scale": -1}}, EXIT_USAGE,
            "source: init_scale must be finite and non-negative, got -1",
        ),
        "stream-level-below": (
            {"stream": {"shifts": [{"kind": "translate", "level": 0}]}}, EXIT_USAGE,
            "stream/shifts/0: level must be 1-5, got 0",
        ),
        "stream-level-above": (
            {"stream": {"shifts": [{"kind": "translate"}, {"kind": "translate", "level": 6}]}},
            EXIT_USAGE, "stream/shifts/1: level must be 1-5, got 6",
        ),
        "stream-batches_per_shift": (
            {"stream": {"batches_per_shift": 0}}, EXIT_USAGE,
            "stream: batches_per_shift must be at least 1, got 0",
        ),
        "stream-batch_size": (
            {"stream": {"batch_size": 0}}, EXIT_USAGE,
            "stream: batch_size must be at least 1, got 0",
        ),
        "stream-label_rho": (
            {"stream": {"label_rho": 0.5}}, EXIT_USAGE,
            "stream: label_rho must be finite and >= 1, got 0.5",
        ),
        "optimizer-lr": (
            {"optimizer": {"lr": -1}}, EXIT_USAGE,
            "optimizer: learning rate must be finite and non-negative, got -1",
        ),
        "optimizer-momentum-below": (
            {"optimizer": {"momentum": -1}}, EXIT_USAGE,
            "optimizer: momentum must lie in [0, 1), got -1",
        ),
        "optimizer-momentum-above": (
            {"optimizer": {"momentum": 1.0}}, EXIT_USAGE,
            "optimizer: momentum must lie in [0, 1), got 1.0",
        ),
        "loss-alpha": (
            {"loss": {"name": "em", "alpha": -1}}, EXIT_BAD_HYPERPARAMS,
            "loss: invalid hyperparameters tau=1.0, alpha=-1: requires alpha >= 0",
        ),
        "loss-pi-zero": (
            {"loss": {"name": "em", "pi": 0}}, EXIT_USAGE,
            "loss: momentum pi must lie in (0, 1], got 0",
        ),
        "loss-pi-above": (
            {"loss": {"name": "adadem", "pi": 1.5}}, EXIT_USAGE,
            "loss: momentum pi must lie in (0, 1], got 1.5",
        ),
        "grid-tau_min": (
            {"grid": {"tau_min": -1}}, EXIT_USAGE,
            "grid: tau_min must be finite and non-negative, got -1",
        ),
        "grid-tau_max": (
            {"grid": {"tau_max": -1}}, EXIT_USAGE,
            "grid: grid axis [0.0, -1] at step 0.1: grid bounds are inverted",
        ),
        "grid-alpha_min": (
            {"grid": {"alpha_min": -0.5}}, EXIT_USAGE,
            "grid: alpha_min must be finite and non-negative, got -0.5",
        ),
        "grid-alpha_max": (
            {"grid": {"alpha_max": -1.0}}, EXIT_USAGE,
            "grid: grid axis [0.0, -1.0] at step 0.1: grid bounds are inverted",
        ),
        "grid-step": (
            {"grid": {"step": 0}}, EXIT_USAGE,
            "grid: grid axis [0.0, 2.0] at step 0: step must be positive and finite, got 0",
        ),
        "grid-subset_fraction-zero": (
            {"grid": {"subset_fraction": 0}}, EXIT_USAGE,
            "grid: subset_fraction must lie in (0, 1], got 0",
        ),
        "grid-subset_fraction-above": (
            {"grid": {"subset_fraction": 1.5}}, EXIT_USAGE,
            "grid: subset_fraction must lie in (0, 1], got 1.5",
        ),
        "lrs": (
            {"lrs": [1e-3, -1]}, EXIT_USAGE,
            "lrs/1: learning rate must be finite and non-negative, got -1",
        ),
    }

    @pytest.mark.parametrize("command", ["run", "grid-search", "lr-sweep"])
    @pytest.mark.parametrize("case", OUT_OF_RANGE)
    def test_out_of_range_setting_is_refused_by_its_owner(self, tmp_path, capsys, command, case):
        overrides, code, message = self.OUT_OF_RANGE[case]
        cfg = small_config(tmp_path, **overrides)
        assert main([command, "--config", str(cfg)]) == code
        assert capsys.readouterr().err == f"demkit: {message}\n"


# The sections a refusal of ``experiment_plan`` names first.
_SECTION = re.compile(r"(seed|mixture|stream/shifts/\d+|stream|source|optimizer|lrs/\d+|loss|grid): ")
# Values of the right types for each setting: its enum or constant, or extremes.
_INTEGERS = [0, -1, 10**30]
_NUMBERS = [0, -1, 1e308, -1e308, 10**30]


def _extreme_settings(node=SCHEMA, path=(), value=DEFAULT_CONFIG):
    """Every ``(path, value)`` that sets one setting of the default config,
    an entry of a default list included, to a value of its type."""
    if "properties" in node:
        for key, sub in node["properties"].items():
            yield from _extreme_settings(sub, path + (key,), value.get(key, {}) if value else {})
    elif "items" in node:
        for i, item in enumerate(value):
            yield from _extreme_settings(node["items"], path + (i,), item)
    elif "enum" in node or "const" in node:
        yield from ((path, v) for v in node.get("enum", [node.get("const")]))
    else:
        extremes = {"integer": _INTEGERS, "number": _NUMBERS, "string": []}[node["type"]]
        yield from ((path, v) for v in extremes)


# One to three settings at a time, the rest at their defaults, so that a
# refusal in an early section seldom hides a later one.
_EXTREME_CONFIGS = st.lists(st.sampled_from(list(_extreme_settings())), min_size=1, max_size=3)


@settings(max_examples=300, deadline=None)
@given(_EXTREME_CONFIGS)
def test_every_config_is_planned_or_refused_naming_its_section(settings_):
    # Not through load_config: its size bounds refuse only sizes too large
    # to allocate, and the schema passes every value drawn here.
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    for path, value in settings_:
        node = cfg
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    assert list(_schema_errors(SCHEMA, cfg)) == []
    trained = []
    with mock.patch("demkit.cli.build_source_model", lambda cfg, plan: trained.append(plan)):
        try:
            _, plan = prepared_experiment(cfg)
        except ValueError as exc:
            assert _SECTION.match(str(exc)), str(exc)
            assert trained == []
            event(f"refused at {_SECTION.match(str(exc))[1]}")
        else:
            assert trained == [plan]
            event("planned")


@pytest.mark.parametrize(
    "umask, mode", [(0o022, 0o644), (0o027, 0o640), (0o077, 0o600)], ids=["022", "027", "077"]
)
def test_outputs_take_their_mode_from_the_umask(tmp_path, umask, mode):
    # As a plain open() would create them; the atomic rename leaves no
    # temporary file behind.
    cfg = small_config(tmp_path, grid=TestGridSearchCommand.GRID)
    out = tmp_path / "out"
    old = os.umask(umask)
    try:
        for command in ("run", "grid-search", "lr-sweep"):
            assert main([command, "--config", str(cfg)]) == EXIT_OK
        assert main(["reward-curve", "--m-max", "1", "--out", str(out / "curve.csv")]) == EXIT_OK
    finally:
        os.umask(old)
    names = ["curve.csv", "grid.csv", "lr_sweep.csv", "metrics.csv", "summary.json"]
    assert sorted(p.name for p in out.iterdir()) == names
    assert {oct(p.stat().st_mode & 0o777) for p in out.iterdir()} == {oct(mode)}


def _failing_gradcheck(monkeypatch):
    cases = demkit.cli._gradcheck_cases

    def corrupted(rng, trials):
        for name, analytic, oracle in cases(rng, trials):
            yield name, analytic + 1e-3 if name == "em" else analytic, oracle

    monkeypatch.setattr(demkit.cli, "_gradcheck_cases", corrupted)


def _non_finite_baseline(monkeypatch):
    result = LrSweepResult([(1e-3, 0.5)], math.nan, 0)
    monkeypatch.setattr(demkit.search, "lr_sweep", lambda *args: result)


class TestOneWayOut:
    """A command returns normally or raises; ``main`` alone reports each
    failure, as one ``demkit: `` line on standard error, and picks its
    exit code."""

    # (argv, config overrides or None for a command without one, patch, code)
    FAILURES = {
        "m-step-0": (["reward-curve", "--m-step", "0"], None, None, EXIT_USAGE),
        "m-max-below-m-min": (
            ["reward-curve", "--m-min", "2", "--m-max", "1"], None, None, EXIT_USAGE
        ),
        "one-class": (["reward-curve", "--c", "1"], None, None, EXIT_USAGE),
        "too-many-classes": (
            ["reward-curve", "--c", str(MAX_CLASSES + 1)], None, None, EXIT_USAGE
        ),
        "too-many-points": (["reward-curve", "--m-step", "1e-9"], None, None, EXIT_USAGE),
        "invalid-hyperparameters": (
            ["reward-curve", "--tau", "1.5", "--alpha", "2"], None, None, EXIT_BAD_HYPERPARAMS
        ),
        "zero-trials": (["gradcheck", "--trials", "0"], None, None, EXIT_USAGE),
        "gradcheck-fail": (["gradcheck", "--trials", "1"], None, _failing_gradcheck, EXIT_NUMERIC),
        "non-finite-baseline": (["lr-sweep"], {}, _non_finite_baseline, EXIT_NUMERIC),
        "run-divergence": (
            ["run"], {"optimizer": {"lr": 1e308, "momentum": 0.9}}, None, EXIT_NUMERIC
        ),
        "schema-error": (["run"], {"typo_section": {"x": 1}}, None, EXIT_USAGE),
    }

    @pytest.mark.parametrize("case", list(FAILURES))
    def test_a_failure_is_one_line_from_main(self, tmp_path, monkeypatch, capsys, case):
        argv, overrides, patch, code = self.FAILURES[case]
        monkeypatch.chdir(tmp_path)  # where reward-curve would write its default file
        if overrides is not None:
            argv = argv + ["--config", str(small_config(tmp_path, **overrides))]
        if patch is not None:
            patch(monkeypatch)
        assert main(argv) == code
        err = capsys.readouterr().err
        prefix = "demkit: numeric failure: " if code == EXIT_NUMERIC else "demkit: "
        assert err.startswith(prefix) and err.count("\n") == 1 and err.endswith("\n"), err

    def test_only_main_and_the_parser_write_to_stderr(self):
        tree = ast.parse(Path(demkit.cli.__file__).read_text())
        writers, returning = set(), []
        for name, fn in _definitions(tree):
            if any(
                isinstance(n, ast.Attribute) and n.attr == "stderr"
                and isinstance(n.value, ast.Name) and n.value.id == "sys"
                for n in ast.walk(fn)
            ):
                writers.add(name)
            if name.startswith("cmd_") and any(r.value is not None for r in _own_returns(fn)):
                returning.append(name)
        assert writers == {"main", "_Parser.error"}
        assert returning == []


def _definitions(tree):
    """``(name, def)`` for each top-level function and each method of a
    top-level class, named ``Class.method``."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item


def _own_returns(fn):
    """The ``return`` statements of ``fn``, not of functions nested in it."""
    stack = list(fn.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Return):
            yield node
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


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
