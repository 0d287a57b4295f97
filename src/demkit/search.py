"""Hyperparameter search: the (tau, alpha) grid and the lr sensitivity sweep.

``grid_search`` exhaustively scores every valid point of a rectangular
(tau, alpha) grid.  Validity gating is exactly ``validate_config``: the
tau = 0 row is excluded, alpha = 0 is admitted with any positive tau, and
alpha > 0 requires tau <= 2/alpha.  The default grid spans 0.0-2.0 at
step 0.1 on both axes and always contains the classical point
(1.0, 1.0), so the best found score can never fall below classical EM's
on the scoring data.

``lr_sweep`` reads one protocol's result per learning rate and reports
the tolerance count: how many rates end at or above the no-adapt
baseline.  It owns the divergence rule: a protocol that ended in a
``DivergenceError`` scores NaN, which counts below the baseline and is
never the sweep's ``best``.  Both helpers rank values their caller has
already computed (the CLI runs the protocols stacked, through
``bench.run_protocols``) and call nothing back; their tables follow grid
order, so output is deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .em_losses import ConfigError, validate_config
from .model import DivergenceError

__all__ = [
    "GridSpec",
    "TrialResult",
    "LrSweepResult",
    "DEFAULT_LR_GRID",
    "GRID_MAX_POINTS",
    "axis_steps",
    "grid_axis",
    "grid_points",
    "grid_search",
    "lr_sweep",
]

DEFAULT_LR_GRID = (1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 1e-1)
GRID_MAX_POINTS = 100_000  # the largest (tau, alpha) grid; the default has 441


@dataclass(frozen=True)
class GridSpec:
    """Rectangular search grid and the labeled-subset fraction for scoring:
    at most ``GRID_MAX_POINTS`` points, at least one of them valid."""

    tau_min: float = 0.0
    tau_max: float = 2.0
    alpha_min: float = 0.0
    alpha_max: float = 2.0
    step: float = 0.1
    subset_fraction: float = 0.2

    def __post_init__(self):
        if not self.step > 0:
            raise ValueError(f"step must be positive, got {self.step}")
        if not 0.0 < self.subset_fraction <= 1.0:
            raise ValueError(
                f"subset_fraction must lie in (0, 1], got {self.subset_fraction}"
            )
        if self.tau_max < self.tau_min or self.alpha_max < self.alpha_min:
            raise ValueError("grid bounds are inverted")
        n_tau = axis_steps(self.tau_min, self.tau_max, self.step)
        n_alpha = axis_steps(self.alpha_min, self.alpha_max, self.step)
        # An overflowed (inf) or undefined (NaN) count fails the comparison.
        if not (n_tau + 1) * (n_alpha + 1) <= GRID_MAX_POINTS:
            raise ValueError(f"the grid has more than {GRID_MAX_POINTS} points")
        if not any(ok for _, _, ok in grid_points(self)):
            raise ConfigError("the grid contains no valid (tau, alpha) points")


@dataclass
class TrialResult:
    """One grid point; invalid points carry no accuracy."""

    tau: float
    alpha: float
    valid: bool
    accuracy: float | None


@dataclass
class LrSweepResult:
    """Sweep table plus the no-adapt baseline and the tolerance count."""

    rows: list
    baseline: float
    tolerance_count: int

    @property
    def best(self) -> tuple[float, float]:
        """The first row of highest finite accuracy; ``(nan, nan)`` if none."""
        finite = [row for row in self.rows if not math.isnan(row[1])]
        return max(finite, key=lambda row: row[1], default=(math.nan, math.nan))


def axis_steps(lo: float, hi: float, step: float) -> float:
    """The whole steps that fit in ``[lo, hi]``, ``inf`` or NaN if it has no
    count.  The 1e-9 slack keeps a step that divides the range from losing
    its last point, as ``(0.3 - 0.0) / 0.1`` is 2.9999999999999996."""
    return float(np.floor((hi - lo) / step + 1e-9))


def grid_axis(lo: float, hi: float, step: float) -> np.ndarray:
    """``lo`` and the :func:`axis_steps` whole steps above it, rounded to
    12 decimals so that a step such as 0.1 lands on round values."""
    return np.round(lo + step * np.arange(int(axis_steps(lo, hi, step)) + 1), 12)


def grid_points(grid: GridSpec) -> list:
    """All (tau, alpha, valid) triples of the grid, in row-major order.

    tau = 0 rows are dropped outright (no temperature to evaluate);
    remaining validity is decided by ``validate_config`` alone.
    """
    taus = [float(tau) for tau in grid_axis(grid.tau_min, grid.tau_max, grid.step) if tau > 0.0]
    alphas = list(map(float, grid_axis(grid.alpha_min, grid.alpha_max, grid.step)))
    return [(tau, alpha, validate_config(tau, alpha)) for tau in taus for alpha in alphas]


def grid_search(scores: dict, grid: GridSpec = GridSpec()):
    """Rank the valid points of ``grid`` by ``scores``, a dict from each
    valid ``(tau, alpha)`` to its accuracy.

    Returns ``(best, table)`` where the table lists every point
    (including invalid ones, unscored) in grid order.  Ties on accuracy
    prefer the point closest to classical EM: smallest ``|tau - 1|``,
    then smallest ``|alpha - 1|``, then grid order.  A valid point
    missing from ``scores`` raises ``ValueError`` naming it.
    """
    points = grid_points(grid)
    for t, a, ok in points:
        if ok and (t, a) not in scores:
            raise ValueError(f"no score for the valid point (tau={t}, alpha={a})")
    table = [TrialResult(t, a, ok, float(scores[(t, a)]) if ok else None) for t, a, ok in points]
    best = max(
        (r for r in table if r.valid),
        key=lambda r: (r.accuracy, -abs(r.tau - 1.0), -abs(r.alpha - 1.0)),
    )
    return best, table


def lr_sweep(runs: dict, lrs=DEFAULT_LR_GRID) -> LrSweepResult:
    """Count the rates of ``lrs`` whose run ends at or above the baseline.

    ``runs`` maps lr = 0 and each rate to what ``bench.run_protocols``
    gave for it: a result, whose ``accuracy`` is read, or the
    ``DivergenceError`` that ended it.  The baseline is the run at
    lr = 0 (no parameter movement), so the count answers: at how many of
    these rates does adapting not hurt?  A run that diverges at an
    aggressive rate is a legitimate sweep outcome: a ``DivergenceError``,
    at a rate or at the baseline, scores NaN.
    """
    lrs = list(lrs)
    if not lrs:
        raise ValueError("need at least one learning rate")
    if any(lr < 0 for lr in lrs):
        raise ValueError("learning rates must be non-negative")

    def score(lr: float) -> float:
        run = runs[lr]
        return math.nan if isinstance(run, DivergenceError) else float(run.accuracy)

    baseline = score(0.0)
    accs = [score(lr) for lr in lrs]
    rows = list(zip(lrs, accs))
    count = sum(1 for _, acc in rows if acc >= baseline)
    return LrSweepResult(rows=rows, baseline=baseline, tolerance_count=count)
