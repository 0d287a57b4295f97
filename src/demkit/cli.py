"""Command-line interface.

Subcommands:

* ``reward-curve``  - write the (m, p_max, reward) profile of a config,
* ``gradcheck``     - run the analytic-vs-finite-difference oracle suite,
* ``run``           - one adaptation experiment from a JSON config,
* ``grid-search``   - exhaustive (tau, alpha) search from a JSON config,
* ``lr-sweep``      - learning-rate sensitivity sweep from a JSON config.

The CLI keeps configs and files: it loads and validates a config, builds
its library objects (``prepared_experiment``, ``plugin_factory_from``,
``sgd_config``, ``search.GridSpec``), and writes tables, summaries and
standard output.  The experiments are the library's: ``run`` stacks its
adaptation and its lr = 0 baseline through ``bench.run_chunked``, and
``grid-search`` and ``lr-sweep`` call ``search.grid_search`` and
``search.lr_sweep``, which run their protocols and rank them.

Exit codes: 0 success, 2 invalid hyperparameters (the (tau, alpha)
validity region), 3 numeric or assertion failure, 64 usage or schema
error.  A command returns nothing or raises, and ``main`` alone reports a
failure: one line on standard error, ``demkit: <message>``, or
``demkit: numeric failure: <message>`` for exit 3.  All floats are printed
with 9 significant digits and files are written atomically, so re-running
a command with the same config yields byte-identical outputs.  ``run``,
``grid-search`` and ``lr-sweep`` remove their own previous outputs and
create ``output_dir`` before computing, so a failed command leaves none
behind that could pass for current, and an ``output_dir`` that cannot be
created exits 64 before any work.

Configs are JSON objects validated against a strict schema (unknown keys
and non-finite numbers are rejected); every key is optional and falls
back to the default that ``SCHEMA`` carries for it as a ``"default"``
annotation (``DEFAULT_CONFIG`` is read from those annotations).  Config
sections go to the library types as they are: ``bench.MixtureSpec``
takes ``mixture``'s ``C``, ``radius`` and ``sigma``, ``bench.StreamSpec``
takes ``stream``'s settings and ``label_rho``, and ``bench.ShiftSpec``'s
own defaults fill a shift's omitted magnitude and level.  The loss, the
optimizer, the grid and the ``bench.Stream`` (which refuses inputs that
can overflow) are built before source training, so a bad one fails at
once.  The ``loss`` section admits the unsupervised family only (em, dem,
adadem) - the adaptation loop never sees labels, which flow exclusively
to metrics and, for grid search scoring, to the held subset.

``SCHEMA`` is JSON Schema (draft 2020-12), so any JSON Schema tool can
check a config.  The CLI checks it with ``_schema_errors``, a walker over
the keywords ``SCHEMA`` uses that reports jsonschema's message texts, so
numpy is the only runtime dependency.  One rule is stricter than the
draft: an integer setting takes a JSON integer only, and ``300.0`` is a
schema violation (exit 64).  A number setting refuses an integer literal
too large for a float, such as ``1`` followed by 400 zeros (exit 64);
integer settings such as ``seed`` take any JSON integer up to Python's
limit on integer literals (4,300 digits by default; a longer one exits 64).
"""

from __future__ import annotations

import argparse
import copy
import itertools
import json
import math
import os
import sys
from dataclasses import replace

import numpy as np

from . import adadem as _ad
from . import bench as _bench
from . import em_losses as _em
from . import model as _model
from . import search as _search
from .numkit import (
    Rng, _central_differences, _count, _softmax, _softmax_rows, finite_diff_grad, rel_err, softmax
)

EXIT_OK = 0
EXIT_BAD_HYPERPARAMS = 2
EXIT_NUMERIC = 3
EXIT_USAGE = 64

GRADCHECK_TOLERANCE = 1e-5

# The largest sizes a config (or ``reward-curve --c``) may ask for; a larger
# one exits 64 before anything is allocated.  The shipped configs use 10
# classes, 32 hidden units, 5,000 source rows and 11,520 stream rows
# (3 shifts x 60 batches x 64 rows); each bound leaves 30x-200x of headroom.
MAX_CLASSES = 1_000
MAX_HIDDEN = 1_024
MAX_SOURCE_ROWS = 1_000_000
MAX_STREAM_ROWS = 1_000_000


def fmt9(x: float) -> str:
    """Canonical float rendering: 9 significant digits, no negative zero."""
    x = float(x)
    if x == 0.0:
        x = 0.0
    return f"{x:.9g}"


def jround(x: float) -> float:
    """Round-trip a float through the canonical rendering for JSON."""
    return float(fmt9(x))


def write_text_atomic(path: str, text: str) -> None:
    """Write via a temp file and rename, so rerun outputs swap atomically;
    the file gets mode 0o666 less the umask, as a plain ``open`` gives.
    An unwritable path is a ``UsageError`` and leaves no temp file."""
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    try:
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror or exc}") from exc
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def write_csv(path: str, header: str, rows) -> None:
    lines = [header]
    for row in rows:
        lines.append(",".join(row))
    write_text_atomic(path, "\n".join(lines) + "\n")


def write_json(path: str, obj) -> None:
    """Write ``obj`` as strict JSON: a NaN or infinity raises ``ValueError``."""
    write_text_atomic(path, json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n")


def remove_outputs(directory: str, table: str) -> None:
    """Delete a command's previous ``table`` and ``summary.json``, if any,
    then create ``directory``; a path that cannot be removed or created is
    a ``UsageError``, raised before the command does any work."""
    for name in (table, "summary.json"):
        path = os.path.join(directory, name)
        try:
            os.remove(path)
        except FileNotFoundError:
            pass
        except OSError as exc:
            raise UsageError(f"cannot remove {path}: {exc.strerror or exc}") from exc
    try:
        os.makedirs(directory, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot create {directory}: {exc.strerror or exc}") from exc


def vec9(v) -> str:
    """Semicolon-joined vector cell for CSV rows."""
    return ";".join(fmt9(x) for x in v)


# --------------------------------------------------------------------------
# Config schema and defaults
# --------------------------------------------------------------------------

# Each setting that has a default carries it as a ``"default"`` annotation,
# which the validator ignores and ``_defaults`` reads into ``DEFAULT_CONFIG``.
SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "seed": {"type": "integer", "minimum": 0, "default": 0},
        "output_dir": {"type": "string", "minLength": 1, "default": "demkit-out"},
        "mixture": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "C": {"type": "integer", "minimum": 2, "default": 10},
                "d": {"const": 2, "default": 2},
                "radius": {"type": "number", "exclusiveMinimum": 0, "default": 4.0},
                "sigma": {"type": "number", "exclusiveMinimum": 0, "default": 1.0},
            },
        },
        "source": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "arch": {"const": "mlp"},
                "hidden": {"type": "integer", "minimum": 1, "default": 32},
                "epochs": {"type": "integer", "minimum": 0, "default": 300},
                "n": {"type": "integer", "minimum": 1, "default": 5000},
                "lr": {"type": "number", "minimum": 0, "default": 0.05},
                "momentum": {
                    "type": "number", "minimum": 0, "exclusiveMaximum": 1, "default": 0.9
                },
                "batch_size": {"type": "integer", "minimum": 1, "default": 64},
                "init_scale": {"type": "number", "minimum": 0, "default": 0.5},
            },
        },
        "stream": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "mode": {"enum": list(_bench.MODES), "default": "single_domain"},
                "shifts": {
                    "type": "array",
                    "minItems": 1,
                    "items": {
                        "type": "object",
                        "additionalProperties": False,
                        "required": ["kind"],
                        "properties": {
                            "kind": {"enum": list(_bench.SHIFT_KINDS)},
                            "magnitude": {"type": "number"},
                            "level": {
                                "type": "integer",
                                "minimum": min(_bench.LEVEL_MULTIPLIERS),
                                "maximum": max(_bench.LEVEL_MULTIPLIERS),
                            },
                        },
                    },
                    # Three separate dicts: ``[d] * 3`` would alias one.
                    "default": [
                        {"kind": "rotate2d", "magnitude": 0.5, "level": 2},
                        {"kind": "rotate2d", "magnitude": 0.5, "level": 2},
                        {"kind": "rotate2d", "magnitude": 0.5, "level": 2},
                    ],
                },
                "batches_per_shift": {"type": "integer", "minimum": 1, "default": 60},
                "batch_size": {"type": "integer", "minimum": 1, "default": 64},
                "label_rho": {"type": "number", "minimum": 1, "default": 1.0},
            },
        },
        "optimizer": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "lr": {"type": "number", "minimum": 0, "default": 0.001},
                "momentum": {
                    "type": "number", "minimum": 0, "exclusiveMaximum": 1, "default": 0.9
                },
                "scope": {"const": "all"},
            },
        },
        "loss": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "name": {"enum": ["em", "dem", "adadem"], "default": "em"},
                "tau": {"type": "number", "default": 1.0},
                "alpha": {"type": "number", "minimum": 0, "default": 1.0},
                "variant": {"const": "full"},
                "norm": {"const": "L1"},
                "pi": {"type": "number", "exclusiveMinimum": 0, "maximum": 1, "default": 0.1},
                "mec_alpha": {"const": 1.0},
                "delta_source": {"const": "cadf"},
                "direction": {"const": "minimize"},
            },
        },
        "grid": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "tau_min": {"type": "number", "minimum": 0, "default": 0.0},
                "tau_max": {"type": "number", "minimum": 0, "default": 2.0},
                "alpha_min": {"type": "number", "minimum": 0, "default": 0.0},
                "alpha_max": {"type": "number", "minimum": 0, "default": 2.0},
                "step": {"type": "number", "exclusiveMinimum": 0, "default": 0.1},
                "subset_fraction": {
                    "type": "number",
                    "exclusiveMinimum": 0,
                    "maximum": 1,
                    "default": 0.2,
                },
            },
        },
        "lrs": {
            "type": "array",
            "minItems": 1,
            "items": {"type": "number", "minimum": 0},
            "default": [1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 1e-1],
        },
    },
}


# The JSON types ``SCHEMA`` names.  An ``"integer"`` is a Python ``int``,
# so an integral float such as ``300.0`` is refused (draft 2020-12 admits it).
_JSON_TYPES = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    "number": lambda x: isinstance(x, (int, float)) and not isinstance(x, bool),
    "integer": lambda x: isinstance(x, int) and not isinstance(x, bool),
}


def _same(x, constant) -> bool:
    """JSON equality with a scalar of ``SCHEMA``: ``2.0`` and ``True`` are not
    ``2``, but ``1`` is ``1.0``, as jsonschema has it."""
    if isinstance(constant, float) and isinstance(x, int) and not isinstance(x, bool):
        return x == constant
    return type(x) is type(constant) and x == constant


def _overflows_float(x: int) -> bool:
    try:
        float(x)
    except OverflowError:
        return True
    return False


def _shown(x) -> str:
    """``repr(x)`` cut to at most 80 characters, ending in ``...`` when cut,
    so that a message echoing a huge value stays one short line."""
    text = repr(x)
    return text if len(text) <= 80 else text[:77] + "..."


def _schema_errors(node: dict, x, path: tuple = ()):
    """Yield a ``(path, message)`` pair for each way ``x`` violates ``node``.

    Covers the keywords ``SCHEMA`` uses, visited in the node's order with
    jsonschema 4.26's message texts, and refuses any other keyword.  A
    message echoes the offending value, or an unexpected property name,
    as :func:`_shown` cuts it.  A ``"number"`` that is an integer too
    large for a float is an error jsonschema does not report: every
    number setting is used as a float.
    """
    number = _JSON_TYPES["number"](x)
    for key, want in node.items():
        match key:
            case "$schema" | "default":
                pass
            case "type":
                if not _JSON_TYPES[want](x):
                    yield path, f"{_shown(x)} is not of type {want!r}"
                elif want == "number" and isinstance(x, int) and _overflows_float(x):
                    yield path, f"a {len(str(abs(x)))}-digit integer is too large for a float"
            case "enum":
                if not any(_same(x, v) for v in want):
                    yield path, f"{_shown(x)} is not one of {want!r}"
            case "const":
                if not _same(x, want):
                    yield path, f"{want!r} was expected"
            case "minimum":
                if number and x < want:
                    yield path, f"{_shown(x)} is less than the minimum of {want!r}"
            case "maximum":
                if number and x > want:
                    yield path, f"{_shown(x)} is greater than the maximum of {want!r}"
            case "exclusiveMinimum":
                if number and x <= want:
                    yield path, f"{_shown(x)} is less than or equal to the minimum of {want!r}"
            case "exclusiveMaximum":
                if number and x >= want:
                    yield path, f"{_shown(x)} is greater than or equal to the maximum of {want!r}"
            case "minLength" | "minItems":
                if isinstance(x, str if key == "minLength" else list) and len(x) < want:
                    yield path, f"{_shown(x)} {'should be non-empty' if want == 1 else 'is too short'}"
            case "items":
                if isinstance(x, list):
                    for i, item in enumerate(x):
                        yield from _schema_errors(want, item, path + (i,))
            case "required":
                if isinstance(x, dict):
                    for name in want:
                        if name not in x:
                            yield path, f"{name!r} is a required property"
            case "properties":
                if isinstance(x, dict):
                    for name, sub in want.items():
                        if name in x:
                            yield from _schema_errors(sub, x[name], path + (name,))
            case "additionalProperties" if want is False:
                extras = isinstance(x, dict) and sorted(set(x) - set(node["properties"]))
                if extras:
                    listed = ", ".join(_shown(k) for k in extras)
                    verb = "was" if len(extras) == 1 else "were"
                    yield path, (
                        f"Additional properties are not allowed ({listed} {verb} unexpected)"
                    )
            case _:
                raise KeyError(f"schema keyword {key!r} is not supported")


def _defaults(node: dict):
    """The value of a schema node's ``"default"`` annotations, as a config."""
    if "default" in node:
        return copy.deepcopy(node["default"])
    return {
        key: _defaults(sub)
        for key, sub in node["properties"].items()
        if "default" in sub or "properties" in sub
    }


DEFAULT_CONFIG = _defaults(SCHEMA)


class UsageError(Exception):
    """Config problems that are the caller's fault: exit 64."""


def _finite_number(text: str) -> float:
    """A JSON float literal, refusing ``NaN``, ``Infinity`` and overflow."""
    x = float(text)
    if not math.isfinite(x):
        raise UsageError(f"config number {text} is not finite")
    return x


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            user = json.load(fh, parse_float=_finite_number, parse_constant=_finite_number)
        errors = sorted(_schema_errors(SCHEMA, user), key=lambda e: e[0])
    except OSError as exc:
        raise UsageError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"config is not valid JSON: {exc}") from exc
    except ValueError as exc:  # int() refuses a literal longer than Python's limit
        limit = sys.get_int_max_str_digits()
        raise UsageError(
            f"config holds an integer literal longer than the {limit}-digit limit"
        ) from exc
    except RecursionError as exc:
        raise UsageError("config is nested too deeply to read") from exc
    if errors:
        path, message = errors[0]
        where = "/".join(str(p) for p in path) or "<root>"
        raise UsageError(f"config schema violation at {where}: {message}")
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    for key, value in user.items():
        if isinstance(value, dict):
            cfg[key].update(value)
        else:
            cfg[key] = value
    _check_sizes(cfg)
    return cfg


def _check_sizes(cfg: dict) -> None:
    s = cfg["stream"]
    sizes = (
        ("mixture/C", cfg["mixture"]["C"], MAX_CLASSES),
        ("source/hidden", cfg["source"]["hidden"], MAX_HIDDEN),
        ("source/n", cfg["source"]["n"], MAX_SOURCE_ROWS),
        (
            "stream rows (shifts x batches_per_shift x batch_size)",
            len(s["shifts"]) * s["batches_per_shift"] * s["batch_size"],
            MAX_STREAM_ROWS,
        ),
    )
    for name, size, bound in sizes:
        if size > bound:
            raise UsageError(f"config too large: {name} is {size}, more than {bound}")


# --------------------------------------------------------------------------
# Experiment assembly
# --------------------------------------------------------------------------


def build_source_model(cfg: dict, mix: _bench.MixtureSpec, rng: Rng):
    s = cfg["source"]
    uniform = np.full(mix.C, 1.0 / mix.C)
    X, y = _bench.sample_batch(mix, uniform, s["n"], rng.derive("source-data"))
    model = _model.init_mlp(mix.C, mix.d, s["hidden"], rng.derive("source-init"), s["init_scale"])
    train_cfg = _model.SgdConfig(lr=s["lr"], momentum=s["momentum"])
    _model.train_source(
        model, X, y, s["epochs"], train_cfg, rng.derive("source-train"), s["batch_size"]
    )
    return model


def plugin_factory_from(cfg: dict):
    """A zero-argument factory building a fresh loss plugin per call."""
    loss = cfg["loss"]
    name = loss["name"]
    if name == "em":
        return _model.EmPlugin
    if name == "dem":
        dem_cfg = _em.DemConfig(loss["tau"], loss["alpha"])
        return lambda: _model.DemPlugin(dem_cfg)
    return lambda: _model.AdaDemPlugin(pi=loss["pi"])


def sgd_config(cfg: dict) -> _model.SgdConfig:
    """The adaptation optimizer of a config."""
    return _model.SgdConfig(cfg["optimizer"]["lr"], cfg["optimizer"]["momentum"])


def prepared_experiment(cfg: dict):
    """Source model and stream for a config, deterministically.

    The ``bench.Stream`` is built first, so inputs that can overflow raise
    ``ValueError`` before any training; it draws no data here, and each
    pass a protocol makes over it draws each shift when it reaches it."""
    rng = Rng(cfg["seed"])
    m, s = cfg["mixture"], cfg["stream"]
    mix = _bench.MixtureSpec(m["C"], m["radius"], m["sigma"])
    shifts = tuple(_bench.ShiftSpec(**sh) for sh in s["shifts"])
    sspec = _bench.StreamSpec(
        s["mode"], shifts, s["batches_per_shift"], s["batch_size"], s["label_rho"]
    )
    data = _bench.Stream(mix, sspec, rng.derive("stream"))
    return build_source_model(cfg, mix, rng), data


# --------------------------------------------------------------------------
# Commands
# --------------------------------------------------------------------------


# The header rows of the CSV tables the commands write.
REWARD_CURVE_HEADER = "m,p_max,reward"
METRICS_HEADER = (
    "shift,kind,level,accuracy,macro_f1,marginal_entropy,kl_output_vs_label,"
    "avg_max_prob,baseline_accuracy,per_class_f1,sorted_class_proportions"
)


def cmd_reward_curve(args) -> None:
    cfg = _em.DemConfig(args.tau, args.alpha)
    if args.c > MAX_CLASSES:
        raise UsageError(f"too large: --c is {args.c}, more than {MAX_CLASSES}")
    rows = _em.reward_curve(args.c, cfg, _search.grid_axis(args.m_min, args.m_max, args.m_step))
    write_csv(args.out, REWARD_CURVE_HEADER, ([fmt9(m), fmt9(p), fmt9(r)] for m, p, r in rows))
    print(f"reward-curve: wrote {len(rows)} points to {args.out}")


def _gradcheck_cases(rng: Rng, trials: int):
    """Yield (loss name, analytic grad, oracle grad) triples.

    Each oracle differentiates the loss's value kernel, the function whose
    result the public ``*_eval(...).value`` returns; ``finite_diff_grad``
    has validated ``z`` once, so the kernels check nothing per evaluation.
    """
    for _ in range(trials):
        C = int(rng.integers(1, 2, 9)[0])
        z = (rng.uniforms(C) - 0.5) * 16.0

        em_grad = _em.em_eval(z).grad
        yield "em", em_grad, finite_diff_grad(_em._entropy, z)
        yield "detached_em", _em.detached_em_eval(z).grad, em_grad

        tau = 0.3 + 2.2 * rng.uniforms(1)[0]
        yield (
            "cadf_tempered",
            _em.cadf_tempered_eval(z, tau).grad,
            finite_diff_grad(lambda v: _em._cadf_tempered_value(v, tau), z),
        )

        alpha = 2.0 * rng.uniforms(1)[0]
        tau_hi = min(2.0 / alpha, 2.5) if alpha > 0 else 2.5
        dtau = 0.2 + (tau_hi - 0.2) * rng.uniforms(1)[0]
        dem_cfg = _em.DemConfig(dtau, alpha)
        yield (
            "dem",
            _em.dem_eval(z, dem_cfg).grad,
            finite_diff_grad(lambda v: _em._dem_value(v, dem_cfg), z),
        )

        target = int(rng.integers(1, 0, C)[0])
        yield (
            "cross_entropy",
            _ce_grads(z[None, :], [target])[0],
            finite_diff_grad(lambda v: _model._cross_entropy_value(v, target), z),
        )

        state = _ad.mec_init(C, DEFAULT_CONFIG["loss"]["pi"])
        batch = (rng.uniforms(3 * C).reshape(3, C) - 0.5) * 10.0
        _ad.adadem_rows(batch, _softmax_rows(batch), state)
        frozen = state.copy()
        analytic = _ad.adadem_rows(z[None, :], _softmax_rows(z[None, :]), state)[0]
        p = softmax(z)
        k = int(np.argmax(p))
        _ad.mec_update(frozen, p[None, :], [k])
        c_row = frozen.table[k].copy()
        d_val = max(_ad.delta(z), _ad.DELTA_FLOOR)

        def frozen_value(v, c_row=c_row, d_val=d_val):
            return float(-np.dot(_softmax(v) - c_row, v) / d_val)

        yield "adadem", analytic, finite_diff_grad(frozen_value, z)


def _ce_grads(Z: np.ndarray, targets) -> np.ndarray:
    """Source training's cross-entropy logit gradients of ``Z``'s rows."""
    G = np.empty(Z.shape)
    hot = np.arange(Z.shape[0]) * Z.shape[1] + targets
    return _model._ce_rows(Z, hot, G, G.reshape(-1))


def _end_to_end_cases(rng: Rng):
    """Parameter-space gradient checks, one per model and loss: a loss maps a
    batch's logits and probabilities to its logit gradients and the per-row
    values they differentiate, checked by ``finite_diff_grad``'s kernel over
    ``theta``, each value computed on a copy of the model."""
    C, d, h, n = 4, 3, 5, 6
    X = (rng.uniforms(n * d).reshape(n, d) - 0.5) * 4.0
    targets = rng.integers(n, 0, C)
    models = {
        "linear": _model.init_linear(C, d, rng, scale=0.7),
        "mlp": _model.init_mlp(C, d, h, rng, scale=0.7),
    }
    dem_cfg = _em.DemConfig(1.3, 0.4)
    em, dem = _model.EmPlugin(), _model.DemPlugin(dem_cfg)

    def adadem(Z, P):
        # The step runs on a copy of a warmed-up calibrator; replaying its
        # update freezes the rows and deltas, constants under differentiation.
        state = _ad.mec_init(C, DEFAULT_CONFIG["loss"]["pi"])
        warm = (rng.uniforms(4 * C).reshape(4, C) - 0.5) * 6.0
        _ad.adadem_rows(warm, _softmax_rows(warm), state)
        grads = _ad.adadem_rows(Z, P, state.copy())
        labels = np.argmax(P, axis=1)
        _ad.mec_update(state, P, labels)
        c_rows = state.table[labels]
        d_vals = np.maximum(np.asarray([_ad.delta(z) for z in Z]), _ad.DELTA_FLOOR)[:, None]
        return grads, lambda V: (
            -np.sum((_softmax_rows(V) - c_rows) * V, axis=1, keepdims=True) / d_vals
        )

    losses = {
        "em": lambda Z, P: (em.batch_eval(Z, P), _em.em_row_values),
        "dem": lambda Z, P: (dem.batch_eval(Z, P), lambda V: _em.dem_row_values(V, dem_cfg)),
        "cross_entropy": lambda Z, P: (
            _ce_grads(Z, targets), lambda V: _model._ce_row_values(V, targets)
        ),
        "adadem": adadem,
    }
    for mname, model in models.items():
        for lname, loss in losses.items():
            Z = _model.forward(model, X)
            grads, values = loss(Z, _softmax_rows(Z))
            probe = model.copy()

            def objective(theta):
                probe.theta[:] = theta
                return float(np.mean(values(_model.forward(probe, X))))

            oracle = _central_differences(objective, model.theta, 1e-5)
            yield f"{mname}/{lname}", _model.backward(model, X, grads), oracle


def cmd_gradcheck(args) -> None:
    _count(args.trials, "--trials", 1)
    rng = Rng(args.seed)
    # np.maximum keeps a NaN error, which fails the check below; the
    # builtin max(0.0, nan) would drop it.
    worst: dict[str, float] = {}
    for name, analytic, oracle in itertools.chain(
        _gradcheck_cases(rng, args.trials), _end_to_end_cases(rng.derive("end-to-end"))
    ):
        worst[name] = float(np.maximum(worst.get(name, 0.0), rel_err(analytic, oracle)))

    failed = []
    for name in sorted(worst):
        status = "ok" if worst[name] < GRADCHECK_TOLERANCE else "FAIL"
        print(f"gradcheck {name}: max rel err {fmt9(worst[name])} [{status}]")
        if status == "FAIL":
            failed.append(name)
    if failed:
        raise ArithmeticError(f"gradcheck failed for: {', '.join(failed)}")


def _metrics_row(label: str, shift, report, baseline: float) -> list[str]:
    kind = shift.kind if shift is not None else "-"
    level = str(shift.level) if shift is not None else "-"
    return [
        label,
        kind,
        level,
        fmt9(report.accuracy),
        fmt9(report.macro_f1),
        fmt9(report.marginal_entropy),
        fmt9(report.kl_output_vs_label),
        fmt9(report.avg_max_prob),
        fmt9(baseline),
        vec9(report.per_class_f1),
        vec9(report.sorted_class_proportions),
    ]


def cmd_run(args) -> None:
    cfg = load_config(args.config)
    out = cfg["output_dir"]
    remove_outputs(out, "metrics.csv")
    factory, sgd = plugin_factory_from(cfg), sgd_config(cfg)
    model, data = prepared_experiment(cfg)
    # the baseline is lr-sweep's: the same protocol at lr = 0, stacked with the run
    runs = _bench.run_chunked(model, data.spec, data, [factory] * 2, [sgd, replace(sgd, lr=0.0)])
    names = (f"the run at lr={sgd.lr:.9g}", "the baseline at lr=0")
    result, base = _bench.named_results(runs, names)

    rows = [
        _metrics_row(f"shift{i}", data.spec.shifts[i], rep, base.per_shift[i].accuracy)
        for i, rep in enumerate(result.per_shift)
    ]
    rows.append(_metrics_row("overall", None, result.overall, base.accuracy))
    write_csv(os.path.join(out, "metrics.csv"), METRICS_HEADER, rows)
    summary = {
        "mode": data.spec.mode,
        "loss": cfg["loss"]["name"],
        "seed": cfg["seed"],
        "accuracy": jround(result.overall.accuracy),
        "baseline_accuracy": jround(base.accuracy),
        "marginal_entropy": jround(result.overall.marginal_entropy),
        "kl_output_vs_label": jround(result.overall.kl_output_vs_label),
        "per_shift_accuracy": [jround(r.accuracy) for r in result.per_shift],
        "per_shift_baseline": [jround(b.accuracy) for b in base.per_shift],
    }
    write_json(os.path.join(out, "summary.json"), summary)
    print(
        f"run[{cfg['loss']['name']}/{data.spec.mode}]: accuracy {fmt9(result.overall.accuracy)} "
        f"vs baseline {fmt9(base.accuracy)}"
    )


def cmd_grid_search(args) -> None:
    cfg = load_config(args.config)
    out = cfg["output_dir"]
    remove_outputs(out, "grid.csv")
    # built before source training, so that a bad grid fails at once
    grid, sgd = _search.GridSpec(**cfg["grid"]), sgd_config(cfg)
    model, data = prepared_experiment(cfg)
    best, table, best_full, classical_subset, classical_full = _search.grid_search(
        model, data, grid, sgd
    )

    write_csv(
        os.path.join(out, "grid.csv"),
        "tau,alpha,valid,accuracy",
        (
            [
                fmt9(r.tau),
                fmt9(r.alpha),
                "1" if r.valid else "0",
                fmt9(r.accuracy) if r.accuracy is not None else "",
            ]
            for r in table
        ),
    )
    summary = {
        "best": {
            "tau": jround(best.tau),
            "alpha": jround(best.alpha),
            "subset_accuracy": jround(best.accuracy),
            "full_accuracy": jround(best_full),
        },
        "classical": (
            {
                "tau": 1.0,
                "alpha": 1.0,
                "subset_accuracy": jround(classical_subset),
                "full_accuracy": jround(classical_full),
            }
            if classical_subset is not None
            else None
        ),
        "valid_points": sum(1 for r in table if r.valid),
        "total_points": len(table),
        "seed": cfg["seed"],
    }
    write_json(os.path.join(out, "summary.json"), summary)
    classical_note = (
        f" (classical full {fmt9(classical_full)})" if classical_full is not None else ""
    )
    print(
        f"grid-search: best (tau={fmt9(best.tau)}, alpha={fmt9(best.alpha)}) "
        f"subset {fmt9(best.accuracy)} full {fmt9(best_full)}{classical_note}"
    )


def cmd_lr_sweep(args) -> None:
    cfg = load_config(args.config)
    out = cfg["output_dir"]
    remove_outputs(out, "lr_sweep.csv")
    # built before source training, so that a bad loss fails at once
    factory, sgd = plugin_factory_from(cfg), sgd_config(cfg)
    model, data = prepared_experiment(cfg)
    result = _search.lr_sweep(model, data, factory, sgd, cfg["lrs"])
    if not math.isfinite(result.baseline):
        raise FloatingPointError("lr-sweep: non-finite baseline")

    write_csv(
        os.path.join(out, "lr_sweep.csv"),
        "lr,accuracy",
        ([fmt9(lr), fmt9(acc)] for lr, acc in result.rows),
    )
    summary = {
        "loss": cfg["loss"]["name"],
        "baseline_accuracy": jround(result.baseline),
        "tolerance_count": result.tolerance_count,
        "lrs": [jround(lr) for lr, _ in result.rows],
        # a diverged rate's NaN is not JSON: it is written as null
        "accuracies": [None if math.isnan(acc) else jround(acc) for _, acc in result.rows],
        "seed": cfg["seed"],
    }
    write_json(os.path.join(out, "summary.json"), summary)
    print(
        f"lr-sweep[{cfg['loss']['name']}]: tolerance count {result.tolerance_count}"
        f"/{len(result.rows)} (baseline {fmt9(result.baseline)})"
    )


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------


def _finite_float(text: str) -> float:
    """Argument type: a float, refusing ``inf`` and ``nan``."""
    x = float(text)
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return x


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="demkit",
        description="Decoupled entropy-minimization losses and experiments.",
        epilog="exit codes: 0 ok, 2 invalid hyperparameters, 3 numeric failure, 64 usage",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    rc = sub.add_parser("reward-curve", help="write a (m, p_max, reward) CSV")
    rc.add_argument("--c", type=int, default=10, help="number of classes")
    rc.add_argument("--tau", type=_finite_float, default=1.0)
    rc.add_argument("--alpha", type=_finite_float, default=1.0)
    rc.add_argument("--m-min", type=_finite_float, default=0.0)
    rc.add_argument("--m-max", type=_finite_float, default=30.0)
    rc.add_argument("--m-step", type=_finite_float, default=0.05)
    rc.add_argument("--out", default="reward_curve.csv")
    rc.set_defaults(func=cmd_reward_curve)

    gc = sub.add_parser("gradcheck", help="analytic vs finite-difference gradients")
    gc.add_argument("--seed", type=int, default=0)
    gc.add_argument("--trials", type=int, default=100)
    gc.set_defaults(func=cmd_gradcheck)

    for name, func in (
        ("run", cmd_run),
        ("grid-search", cmd_grid_search),
        ("lr-sweep", cmd_lr_sweep),
    ):
        cp = sub.add_parser(name, help=f"{name} from a JSON config")
        cp.add_argument("--config", required=True)
        cp.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    """Run one command and return its exit code.  A command returns
    normally or raises; ``main`` alone turns what it raises into one
    ``demkit: ...`` line on standard error and the code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except UsageError as exc:
        print(f"demkit: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _em.ConfigError as exc:
        print(f"demkit: {exc}", file=sys.stderr)
        return EXIT_BAD_HYPERPARAMS
    except ArithmeticError as exc:  # FloatingPointError and DivergenceError too
        print(f"demkit: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"demkit: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
