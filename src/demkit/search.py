"""Hyperparameter search: the (tau, alpha) grid and the lr sensitivity sweep.

Each sweep runs its protocols and ranks them.  ``grid_search`` scores
DEM at every valid point of a rectangular (tau, alpha) grid on a labeled
subset of the stream, then its winner and the classical point (1.0, 1.0)
on the full stream.  Validity gating is exactly ``validate_config``: the
tau = 0 row is excluded, alpha = 0 is admitted with any positive tau, and
alpha > 0 requires tau <= 2/alpha.  The default grid (``cli.SCHEMA``'s
``grid`` defaults) spans 0.0-2.0 at step 0.1 on both axes and always
contains the classical point, so the best found score can never fall
below classical EM's on the scoring data.

``lr_sweep`` runs one protocol per learning rate and the no-adapt
baseline at lr = 0, and reports the tolerance count: how many rates end
at or above the baseline.  It owns the divergence rule: a protocol that
ended in a ``DivergenceError`` scores NaN, which counts below the
baseline and is never the sweep's ``best``.  Both sweeps stack their
protocols in grid or rate order through ``bench.run_chunked``, and their
tables follow the same order, so output is deterministic.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .bench import named_results, run_chunked
from .em_losses import ConfigError, DemConfig, validate_config
from .model import DemPlugin, DivergenceError, SgdConfig
from .numkit import _positive

__all__ = [
    "GridSpec",
    "TrialResult",
    "GridResult",
    "LrSweepResult",
    "GRID_MAX_POINTS",
    "grid_axis",
    "grid_points",
    "grid_search",
    "lr_sweep",
]

GRID_MAX_POINTS = 100_000  # the largest grid or axis; the default (tau, alpha) grid has 441


@dataclass(frozen=True)
class GridSpec:
    """Rectangular grid of two :func:`grid_axis` axes and the labeled-subset fraction
    for scoring: at most ``GRID_MAX_POINTS`` points, at least one of them valid."""

    tau_min: float
    tau_max: float
    alpha_min: float
    alpha_max: float
    step: float
    subset_fraction: float

    def __post_init__(self):
        if not 0.0 < self.subset_fraction <= 1.0:
            raise ValueError(
                f"subset_fraction must lie in (0, 1], got {self.subset_fraction}"
            )
        n_tau = len(grid_axis(self.tau_min, self.tau_max, self.step))
        if n_tau * len(grid_axis(self.alpha_min, self.alpha_max, self.step)) > GRID_MAX_POINTS:
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


class GridResult(NamedTuple):
    """DEM* by grid search: the subset-scored table and the full-stream scores."""

    best: TrialResult
    table: list
    best_full: float
    classical_subset: float | None  # both None when (1, 1) is not a valid point
    classical_full: float | None


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


def grid_axis(lo: float, hi: float, step: float) -> np.ndarray:
    """``lo`` and the whole steps above it that fit in ``[lo, hi]``, all
    finite, or ``ValueError`` naming the axis, before anything is allocated,
    for a step that is not positive and finite, ``hi < lo``, or more than
    ``GRID_MAX_POINTS`` points, as a NaN or infinite count is.  The 1e-9
    slack keeps a step that divides the range from losing its last point,
    as ``(0.3 - 0.0) / 0.1`` is 2.9999999999999996.

    A point below ``2**52`` in size is rounded to 12 decimals, so that a
    step such as 0.1 lands on round values.  A larger point is a whole
    number already, which that rounding cannot move but whose ``x * 1e12``
    overflows above about 1.8e296; it is kept as it is, except that it
    never passes ``hi``, as ``lo + step * i`` can round past it at the
    top of the float range.
    """
    axis = f"grid axis [{lo}, {hi}] at step {step}"
    _positive(step, f"{axis}: step")
    if hi < lo:
        raise ValueError(f"{axis}: grid bounds are inverted")
    with np.errstate(over="ignore"):  # numpy-scalar bounds can overflow to an inf count
        steps = (hi - lo) / step + 1e-9
        if not steps < GRID_MAX_POINTS:  # NaN fails the comparison too
            raise ValueError(f"{axis}: the grid has more than {GRID_MAX_POINTS} points")
        points = lo + step * np.arange(int(steps) + 1)
    small = np.abs(points) < 2.0 ** 52
    points[small] = np.round(points[small], 12)
    np.minimum(points, hi, out=points, where=~small)
    return points


def grid_points(grid: GridSpec) -> list:
    """All (tau, alpha, valid) triples of the grid, in row-major order.

    tau = 0 rows are dropped outright (no temperature to evaluate);
    remaining validity is decided by ``validate_config`` alone.
    """
    taus = [float(tau) for tau in grid_axis(grid.tau_min, grid.tau_max, grid.step) if tau > 0.0]
    alphas = list(map(float, grid_axis(grid.alpha_min, grid.alpha_max, grid.step)))
    return [(tau, alpha, validate_config(tau, alpha)) for tau in taus for alpha in alphas]


def grid_search(model, data, grid: GridSpec, sgd: SgdConfig) -> GridResult:
    """Grid-search DEM's (tau, alpha) for ``model`` on the labeled subset
    of ``data``, a ``bench.Stream``.

    Every valid point of ``grid`` adapts in the stream's mode with the
    optimizer ``sgd``.  The subset is the leading ``grid.subset_fraction``
    of each shift's batches (at least one), drawn once and held for every
    chunk of points.  The table lists every point (invalid ones unscored)
    in grid order.  The best point has the highest subset accuracy; ties
    prefer the point closest to classical EM: smallest ``|tau - 1|``,
    then smallest ``|alpha - 1|``, then grid order.  The winner and the
    classical point tau = alpha = 1, when it is valid, are then scored in
    one pass over the full stream, which holds one shift at a time.  The
    points run stacked in grid order by ``bench.run_chunked``; a diverging
    point raises its ``DivergenceError``, naming the point and the pass,
    before any later chunk runs.
    """
    k = max(1, round(data.spec.batches_per_shift * grid.subset_fraction))
    subset = list(data.leading(k))

    def accuracies(shifts, points, where) -> list:
        factories = [functools.partial(DemPlugin, DemConfig(tau, alpha)) for tau, alpha in points]
        runs = run_chunked(model, data.spec, shifts, factories, [sgd] * len(points))
        names = (f"grid point tau={t:.9g}, alpha={a:.9g}, on the {where}" for t, a in points)
        return [run.accuracy for run in named_results(runs, names)]

    points = grid_points(grid)
    scores = iter(accuracies(subset, [(t, a) for t, a, ok in points if ok], "leading subset"))
    table = [TrialResult(t, a, ok, next(scores) if ok else None) for t, a, ok in points]
    best = max(
        (r for r in table if r.valid),
        key=lambda r: (r.accuracy, -abs(r.tau - 1.0), -abs(r.alpha - 1.0)),
    )
    classical = next((r for r in table if r.valid and (r.tau, r.alpha) == (1.0, 1.0)), None)
    if classical is None:
        (best_full,) = accuracies(data, [(best.tau, best.alpha)], "full stream")
        return GridResult(best, table, best_full, None, None)
    best_full, classical_full = accuracies(
        data, [(best.tau, best.alpha), (1.0, 1.0)], "full stream"
    )
    return GridResult(best, table, best_full, classical.accuracy, classical_full)


def lr_sweep(model, data, factory, sgd: SgdConfig, lrs) -> LrSweepResult:
    """Sweep ``lrs`` for ``model`` over ``data``, a ``bench.Stream``, in
    its mode, with the loss plugins of ``factory`` and the optimizer
    ``sgd`` at each rate, and count the rates whose run ends at or above
    the baseline.

    The baseline is the run at lr = 0 (no parameter movement), so the
    count answers: at how many of these rates does adapting not hurt?
    The baseline and each distinct rate run once, stacked by
    ``bench.run_chunked``, one pass over the stream per chunk (one pass
    on every shipped config).  A run that diverges at an aggressive rate
    is a legitimate sweep outcome: its ``DivergenceError``, at a rate or
    at the baseline, scores NaN.
    """
    lrs = list(lrs)
    if not lrs:
        raise ValueError("need at least one learning rate")
    rates = list(dict.fromkeys([0.0, *lrs]))
    sgds = [replace(sgd, lr=lr) for lr in rates]
    runs = run_chunked(model, data.spec, data, [factory] * len(rates), sgds)
    scores = {
        lr: math.nan if isinstance(run, DivergenceError) else float(run.accuracy)
        for lr, run in zip(rates, runs)
    }
    baseline = scores[0.0]
    rows = [(lr, scores[lr]) for lr in lrs]
    count = sum(1 for _, acc in rows if acc >= baseline)
    return LrSweepResult(rows=rows, baseline=baseline, tolerance_count=count)
