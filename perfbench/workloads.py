"""Benchmark workloads: a name and a seed give one demkit CLI command.

The program sees only what is generated here: a JSON config (for the
config-driven commands) or command-line flags (for ``gradcheck``).  The
seed changes the data every command draws, never the amount of work, so
runs with different seeds measure the same work.

Each workload also carries the exact call counts its config implies.  The
traced run compares the tracer's counts against them, which checks the
tracer as much as the program.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

# Mirrors the source-model defaults of ``demkit.cli.DEFAULT_CONFIG``; the
# configs spell them out so the expected counts derive from the config.
SOURCE = {
    "arch": "mlp",
    "hidden": 32,
    "epochs": 300,
    "n": 5000,
    "lr": 0.05,
    "momentum": 0.9,
    "batch_size": 64,
    "init_scale": 0.5,
}

GRID = {
    "tau_min": 0.0,
    "tau_max": 2.0,
    "alpha_min": 0.0,
    "alpha_max": 2.0,
    "step": 0.1,
    "subset_fraction": 0.2,
}

LRS = [1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 1e-1]

GRADCHECK_TRIALS = 500

# ``demkit.em_losses.validate_config`` admits alpha > 0 up to tau = 2/alpha
# with this slack.
VALIDITY_SLACK = 1e-12


@dataclass(frozen=True)
class Workload:
    """One generated CLI command.

    ``config`` is the JSON config without ``output_dir`` (the runner adds a
    fresh directory per command); it is ``None`` for commands driven by
    flags alone, whose extra arguments are in ``args``.  ``expected`` maps
    traced-metric names to the exact values the config implies.

    ``command_s`` is a fixed, rough figure for one command's seconds on a
    shared 2-core Xeon at 2.1 GHz, set so that a run of a given length
    takes about as long on each workload.  It only sets how many commands
    a run makes, so that number never depends on how fast the measured
    code is.
    """

    name: str
    command: str
    seed: int
    command_s: float
    config: dict | None = None
    args: tuple = ()
    expected: dict = field(default_factory=dict)


def _rotations(magnitudes, batches_per_shift: int, **extra) -> dict:
    return {
        "mode": "continual",
        "shifts": [{"kind": "rotate2d", "magnitude": m, "level": 2} for m in magnitudes],
        "batches_per_shift": batches_per_shift,
        "batch_size": 64,
        **extra,
    }


def source_steps(cfg: dict) -> int:
    """SGD steps of source training: batches per epoch times epochs."""
    src = cfg["source"]
    return math.ceil(src["n"] / src["batch_size"]) * src["epochs"]


def _axis(lo: float, hi: float, step: float) -> list[float]:
    n = int(round((hi - lo) / step))
    return [round(lo + step * i, 12) for i in range(n + 1)]


def valid_grid_points(grid: dict) -> int:
    """Grid points that the (tau, alpha) validity region admits."""
    count = 0
    for tau in _axis(grid["tau_min"], grid["tau_max"], grid["step"]):
        if tau <= 0.0:
            continue
        for alpha in _axis(grid["alpha_min"], grid["alpha_max"], grid["step"]):
            if alpha == 0.0 or tau <= 2.0 / alpha + VALIDITY_SLACK:
                count += 1
    return count


def stream_steps(stream: dict, fraction: float = 1.0) -> int:
    """Adaptation steps of one protocol over the (leading part of the) stream."""
    per_shift = max(1, round(stream["batches_per_shift"] * fraction))
    return len(stream["shifts"]) * per_shift


def grid_continual_dem(seed: int) -> Workload:
    """``grid-search`` on the continual rotation ladder.

    Every valid point runs a protocol on the scoring subset; the best point
    and the classical point (1, 1) then run on the full stream.
    """
    cfg = {
        "seed": seed,
        "source": dict(SOURCE),
        "stream": _rotations((0.45, 0.50, 0.55), 60),
        "optimizer": {"lr": 0.025, "momentum": 0.9, "scope": "all"},
        "loss": {"name": "dem", "tau": 1.0, "alpha": 1.0, "direction": "minimize"},
        "grid": dict(GRID),
    }
    points = valid_grid_points(cfg["grid"])
    steps = points * stream_steps(cfg["stream"], GRID["subset_fraction"]) + 2 * stream_steps(
        cfg["stream"]
    )
    return Workload(
        name="grid-continual-dem",
        command="grid-search",
        seed=seed,
        command_s=7.0,
        config=cfg,
        expected={
            "model.source_steps": source_steps(cfg),
            "em_losses.dem_rows.calls": steps,
            "model.adapt_steps": steps,
        },
    )


def lrsweep_adadem_long(seed: int) -> Workload:
    """``lr-sweep`` with full AdaDEM on a long, label-imbalanced continual stream.

    One protocol per rate plus the lr = 0 baseline, each over the whole
    stream.
    """
    cfg = {
        "seed": seed,
        "source": dict(SOURCE),
        "stream": _rotations((0.40, 0.45, 0.50, 0.55, 0.60), 120, label_rho=10.0),
        "optimizer": {"lr": 0.025, "momentum": 0.9, "scope": "all"},
        "loss": {
            "name": "adadem",
            "variant": "full",
            "norm": "L1",
            "pi": 0.1,
            "mec_alpha": 1.0,
            "delta_source": "cadf",
            "direction": "minimize",
        },
        "lrs": list(LRS),
    }
    steps = (len(cfg["lrs"]) + 1) * stream_steps(cfg["stream"])
    return Workload(
        name="lrsweep-adadem-long",
        command="lr-sweep",
        seed=seed,
        command_s=6.0,
        config=cfg,
        expected={
            "model.source_steps": source_steps(cfg),
            "adadem.adadem_rows.calls": steps,
            "model.adapt_steps": steps,
        },
    )


def gradcheck_scalar(seed: int) -> Workload:
    """``gradcheck``: the scalar loss API against finite differences.

    Each trial calls the finite-difference oracle once per checked loss:
    em, cadf_tempered, dem, cross_entropy and adadem.
    """
    return Workload(
        name="gradcheck-scalar",
        command="gradcheck",
        seed=seed,
        command_s=1.5,
        args=("--seed", str(seed), "--trials", str(GRADCHECK_TRIALS)),
        expected={"numkit.finite_diff_grad.calls": 5 * GRADCHECK_TRIALS},
    )


WORKLOADS = {
    "grid-continual-dem": grid_continual_dem,
    "lrsweep-adadem-long": lrsweep_adadem_long,
    "gradcheck-scalar": gradcheck_scalar,
}


def make(name: str, seed: int) -> Workload:
    """The workload ``name`` generated from ``seed`` (a non-negative integer)."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return WORKLOADS[name](seed)
