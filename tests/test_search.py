"""Tests for the (tau, alpha) grid search and the lr sensitivity sweep."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from demkit.em_losses import ConfigError, validate_config
from demkit.model import DivergenceError
from demkit.search import (
    DEFAULT_LR_GRID,
    GridSpec,
    LrSweepResult,
    TrialResult,
    grid_axis,
    grid_points,
    grid_search,
    lr_sweep,
)


class TestGridSpec:
    def test_axis_hits_round_values(self):
        axis = grid_axis(0.0, 2.0, GridSpec().step)
        assert axis.shape == (21,)
        assert axis[0] == 0.0 and axis[-1] == 2.0
        assert 1.0 in axis  # the classical point is on the default grid
        np.testing.assert_allclose(np.diff(axis), 0.1, atol=1e-12)

    @pytest.mark.parametrize(
        "lo, hi, step, expected",
        [
            (0.0, 2.0, 0.5, [0.0, 0.5, 1.0, 1.5, 2.0]),
            (0.0, 0.3, 0.1, [0.0, 0.1, 0.2, 0.3]),  # 0.3 / 0.1 is 2.9999999999999996
            (0.2, 1.4, 0.3, [0.2, 0.5, 0.8, 1.1, 1.4]),
            (0.0, 1.0, 0.6, [0.0, 0.6]),  # rounding the step count gave 1.2
            (0.5, 2.0, 0.4, [0.5, 0.9, 1.3, 1.7]),
            (0.0, 0.29, 0.1, [0.0, 0.1, 0.2]),
            (1.0, 1.0, 0.3, [1.0]),
        ],
        ids=["divides", "divides-0.3", "divides-offset", "step-0.6", "step-0.4",
             "just-short", "one-point"],
    )
    def test_axis_never_passes_its_upper_bound(self, lo, hi, step, expected):
        assert grid_axis(lo, hi, step).tolist() == expected

    def test_point_count_bound_counts_the_listed_points(self, monkeypatch):
        # step 0.6 on [0, 1] lists 2 x 2 points; a rounded count said 3 x 3.
        monkeypatch.setattr("demkit.search.GRID_MAX_POINTS", 4)
        GridSpec(tau_max=1.0, alpha_max=1.0, step=0.6)
        monkeypatch.setattr("demkit.search.GRID_MAX_POINTS", 3)
        with pytest.raises(ValueError, match="more than 3 points"):
            GridSpec(tau_max=1.0, alpha_max=1.0, step=0.6)

    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(step=0.0)
        with pytest.raises(ValueError, match="step must be positive"):
            GridSpec(step=math.nan)
        with pytest.raises(ValueError):
            GridSpec(subset_fraction=0.0)
        with pytest.raises(ValueError):
            GridSpec(subset_fraction=1.1)
        with pytest.raises(ValueError):
            GridSpec(tau_min=2.0, tau_max=1.0)
        GridSpec(subset_fraction=1.0)  # full-data scoring is legal

    @pytest.mark.parametrize("step", [5e-324, 1e-300, 1e-4])
    def test_oversized_grid_is_refused(self, step):
        # 5e-324 makes the point count infinite; 1e-4 asks for 20,001 ** 2.
        with pytest.raises(ValueError, match="more than 100000 points"):
            GridSpec(step=step)

    def test_grid_of_the_largest_point_count_is_legal(self, monkeypatch):
        monkeypatch.setattr("demkit.search.GRID_MAX_POINTS", 21 * 21)
        assert len(grid_points(GridSpec())) == 20 * 21  # 441 points; tau = 0 dropped
        with pytest.raises(ValueError, match="more than 441 points"):
            GridSpec(tau_max=2.1)


class TestGridPoints:
    def test_default_grid_counts(self):
        points = grid_points(GridSpec())
        assert len(points) == 420  # 20 tau rows (tau = 0 dropped) x 21 alphas
        assert sum(1 for _, _, ok in points if ok) == 350

    def test_points_past_the_bounds_are_not_listed(self):
        points = grid_points(GridSpec(tau_max=1.0, alpha_max=1.0, step=0.6))
        assert points == [(0.6, 0.0, True), (0.6, 0.6, True)]

    @pytest.mark.parametrize("step", [0.1, 0.25, 0.6])
    def test_points_are_python_floats_and_bools(self, step):
        for point in grid_points(GridSpec(step=step)):
            assert [type(x) for x in point] == [float, float, bool]

    def test_tau_zero_row_is_dropped(self):
        assert all(t > 0 for t, _, _ in grid_points(GridSpec()))

    def test_validity_matches_validate_config(self):
        for t, a, ok in grid_points(GridSpec(step=0.25)):
            assert ok == validate_config(t, a)

    def test_classical_point_present_and_valid(self):
        assert (1.0, 1.0, True) in grid_points(GridSpec())


def _scores(score, grid=GridSpec()):
    """``{(tau, alpha): score(tau, alpha)}`` over the valid points of ``grid``."""
    return {(t, a): score(t, a) for t, a, ok in grid_points(grid) if ok}


def _runs(score, lrs=DEFAULT_LR_GRID):
    """``{lr: run}`` for lr = 0 and each of ``lrs``, as ``bench.run_protocols``
    gives them: a result of accuracy ``score(lr)``, or the
    ``DivergenceError`` that ``score(lr)`` returns."""
    outcomes = {lr: score(lr) for lr in (0.0, *lrs)}
    return {
        lr: out if isinstance(out, DivergenceError) else SimpleNamespace(accuracy=out)
        for lr, out in outcomes.items()
    }


class TestGridSearch:
    def test_finds_quadratic_peak(self):
        # Score peaks at (0.7, 1.3); the search must return exactly that
        # grid point.
        def protocol(tau, alpha):
            return 1.0 - (tau - 0.7) ** 2 - (alpha - 1.3) ** 2

        best, table = grid_search(_scores(protocol))
        assert (best.tau, best.alpha) == (0.7, 1.3)
        assert best.valid
        assert best.accuracy == pytest.approx(1.0)
        assert len(table) == 420

    def test_constant_scores_tie_break_to_classical(self):
        best, _ = grid_search(_scores(lambda tau, alpha: 0.5))
        assert (best.tau, best.alpha) == (1.0, 1.0)

    def test_invalid_points_are_never_scored(self):
        # Scores for every point, invalid ones at 1.0: only the valid
        # points' scores are read.
        calls = []

        class Recording(dict):
            def __getitem__(self, point):
                calls.append(point)
                return super().__getitem__(point)

        grid = GridSpec(step=0.5)
        scores = Recording({(t, a): 0.0 if ok else 1.0 for t, a, ok in grid_points(grid)})
        _, table = grid_search(scores, grid)
        assert calls and all(validate_config(t, a) for t, a in calls)
        for row in table:
            if not row.valid:
                assert row.accuracy is None
            else:
                assert row.accuracy == 0.0

    def test_a_valid_point_without_a_score_raises(self):
        grid = GridSpec(step=0.5)
        scores = _scores(lambda tau, alpha: 0.5, grid)
        del scores[(1.5, 0.5)]
        with pytest.raises(ValueError, match=r"valid point \(tau=1.5, alpha=0.5\)"):
            grid_search(scores, grid)

    def test_all_invalid_grid_raises(self):
        # tau in [3, 4] with alpha = 2 violates tau <= 2/alpha everywhere,
        # so the grid is refused before any point could be scored.
        with pytest.raises(ConfigError, match="no valid"):
            GridSpec(tau_min=3.0, tau_max=4.0, alpha_min=2.0, alpha_max=2.0, step=0.5)

    def test_table_rows_are_trial_results_in_grid_order(self):
        grid = GridSpec(step=1.0)
        _, table = grid_search(_scores(lambda t, a: t + a, grid), grid)
        assert all(isinstance(r, TrialResult) for r in table)
        taus = [r.tau for r in table]
        assert taus == sorted(taus)


class TestLrSweep:
    def test_counts_rates_at_or_above_baseline(self):
        # protocol(0) = 0.5; scores rise with lr until they crash.
        def protocol(lr):
            if lr == 0.0:
                return 0.5
            return 0.8 if lr <= 1e-2 else 0.2

        res = lr_sweep(_runs(protocol))
        assert isinstance(res, LrSweepResult)
        assert res.baseline == 0.5
        assert res.tolerance_count == 7  # rates up to 1e-2 inclusive
        assert len(res.rows) == len(DEFAULT_LR_GRID)
        assert [lr for lr, _ in res.rows] == list(DEFAULT_LR_GRID)

    def test_nan_scores_count_below_baseline(self):
        def protocol(lr):
            if lr == 0.0:
                return 0.5
            return float("nan") if lr > 1e-2 else 0.6

        res = lr_sweep(_runs(protocol))
        assert res.tolerance_count == 7
        assert any(math.isnan(acc) for _, acc in res.rows)

    def test_divergence_scores_nan_at_a_rate_and_at_the_baseline(self):
        def protocol(lr):
            if lr > 1e-2:
                return DivergenceError("logits", 1, 0)
            return 0.6

        res = lr_sweep(_runs(protocol))
        diverged = [math.isnan(acc) for _, acc in res.rows]
        assert diverged == [lr > 1e-2 for lr in DEFAULT_LR_GRID]
        assert res.tolerance_count == 7

        def diverges_at_baseline(lr):
            if lr == 0.0:
                return DivergenceError("loss gradients", 0)
            return 0.6

        res = lr_sweep(_runs(diverges_at_baseline, [1e-3]), lrs=[1e-3])
        assert math.isnan(res.baseline)
        assert res.rows == [(1e-3, 0.6)] and res.tolerance_count == 0

    def test_best_is_the_first_highest_finite_row(self):
        scores = {0.0: 0.5, 1e-3: 0.6, 1e-2: 0.7, 1e-1: 0.7}

        def protocol(lr):
            if lr == 2.5e-2:
                return DivergenceError("logits", 1, 0)
            return scores[lr]

        lrs = [1e-3, 1e-2, 2.5e-2, 1e-1]
        res = lr_sweep(_runs(protocol, lrs), lrs=lrs)
        assert math.isnan(res.rows[2][1])
        assert res.best == (1e-2, 0.7)

    def test_best_is_nan_when_every_rate_diverges(self):
        def protocol(lr):
            if lr > 0.0:
                return DivergenceError("logits", 0, 0)
            return 0.5

        lr, acc = lr_sweep(_runs(protocol, [1e-3, 1e-2]), lrs=[1e-3, 1e-2]).best
        assert math.isnan(lr) and math.isnan(acc)

    def test_equal_to_baseline_is_tolerated(self):
        res = lr_sweep(_runs(lambda lr: 0.5, [1e-3, 1e-2]), lrs=[1e-3, 1e-2])
        assert res.tolerance_count == 2

    def test_validation(self):
        runs = _runs(lambda lr: 0.5, [1e-3])
        with pytest.raises(ValueError):
            lr_sweep(runs, lrs=[])
        with pytest.raises(ValueError):
            lr_sweep(runs, lrs=[1e-3, -1e-3])

    def test_default_grid_is_pinned(self):
        assert DEFAULT_LR_GRID == (
            1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 1e-1
        )
