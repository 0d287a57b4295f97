"""Tests for the (tau, alpha) grid search and the lr sensitivity sweep."""

import math
import re
from types import SimpleNamespace

import numpy as np
import pytest

from demkit.bench import MixtureSpec, ShiftSpec, Stream, StreamSpec, run_protocol
from demkit.cli import DEFAULT_CONFIG
from demkit.em_losses import ConfigError, validate_config
from demkit.model import DivergenceError, EmPlugin, SgdConfig, init_mlp
from demkit.numkit import Rng
from demkit.search import (
    GridResult,
    GridSpec,
    LrSweepResult,
    TrialResult,
    grid_axis,
    grid_points,
    grid_search,
    lr_sweep,
)

LRS = DEFAULT_CONFIG["lrs"]


def _grid(**overrides) -> GridSpec:
    """The config's default grid, ``cli.SCHEMA``'s, with ``overrides``."""
    return GridSpec(**{**DEFAULT_CONFIG["grid"], **overrides})


class TestGridSpec:
    def test_axis_hits_round_values(self):
        axis = grid_axis(0.0, 2.0, _grid().step)
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

    @pytest.mark.parametrize(
        "lo, hi, step",
        [
            (0.0, 1e300, 1e296),  # np.round(x, 12) overflowed from about 1.8e296
            (0.0, 1.7976931348623157e308, 5.992310449541053e307),
            (-8.988465674311579e307, 8.988465674311579e307, 5.992310449541053e307),
            (-1e300, -1e299, 1e298),
            (1e20, 1e21, 1e19),
        ],
        ids=["1e300", "to-the-largest-double", "across-zero", "negative", "1e20"],
    )
    def test_every_point_of_a_finite_axis_is_finite(self, lo, hi, step):
        axis = grid_axis(lo, hi, step)
        assert np.isfinite(axis).all()
        assert axis[0] == lo and axis[-1] <= hi
        assert (np.diff(axis) > 0).all()

    def test_axes_below_2_to_the_52_keep_their_bits(self):
        # The rounding of the points below 2**52 is the one grid_axis
        # always made: np.round(lo + step * i, 12).
        rng = np.random.default_rng(9)
        for _ in range(3000):
            scale = 10.0 ** rng.integers(-6, 15)
            lo = float(rng.uniform(-1.0, 1.0) * scale)
            step = float(rng.uniform(0.01, 1.0) * scale)
            hi = lo + step * float(rng.integers(0, 60)) + float(rng.uniform(0.0, step))
            points = lo + step * np.arange(int(np.floor((hi - lo) / step + 1e-9)) + 1)
            if np.abs(points).max() < 2.0**52:
                assert grid_axis(lo, hi, step).tobytes() == np.round(points, 12).tobytes()

    @pytest.mark.parametrize(
        "lo, hi",
        [(0.0, math.nan), (math.nan, 1.0), (0.0, math.inf), (-math.inf, 0.0),
         (math.inf, math.inf), (-1.7976931348623157e308, 1.7976931348623157e308),
         (np.float64(-1e308), np.float64(1e308))],
        ids=["nan-max", "nan-min", "inf-max", "inf-min", "inf-both", "overflowing-range",
             "numpy-overflowing-range"],
    )
    def test_axis_without_a_finite_count_is_refused(self, lo, hi):
        # grid_axis(0.0, nan, 0.1) used to raise "cannot convert float NaN
        # to integer", and an infinite count an OverflowError.
        with pytest.raises(ValueError, match=re.escape(f"grid axis [{lo}, {hi}] at step 0.1:")):
            grid_axis(lo, hi, 0.1)

    @pytest.mark.parametrize(
        "lo, hi, step, expected",
        [(0, 2, 10**30, [0.0]), (10**30, 10**30, 1, [1e30]), (0, 2, 1, [0.0, 1.0, 2.0])],
        ids=["step", "bounds", "small"],
    )
    def test_integer_settings_give_float_points(self, lo, hi, step, expected):
        # A JSON integer setting past int64 scaled an int64 range and
        # raised numpy's OverflowError.
        axis = grid_axis(lo, hi, step)
        assert axis.dtype == np.float64 and axis.tolist() == expected

    def test_point_count_bound_counts_the_listed_points(self, monkeypatch):
        # step 0.6 on [0, 1] lists 2 x 2 points; a rounded count said 3 x 3.
        monkeypatch.setattr("demkit.search.GRID_MAX_POINTS", 4)
        _grid(tau_max=1.0, alpha_max=1.0, step=0.6)
        monkeypatch.setattr("demkit.search.GRID_MAX_POINTS", 3)
        with pytest.raises(ValueError, match="more than 3 points"):
            _grid(tau_max=1.0, alpha_max=1.0, step=0.6)

    def test_validation(self):
        with pytest.raises(ValueError):
            _grid(step=0.0)
        with pytest.raises(ValueError, match="step must be positive and finite"):
            _grid(step=math.nan)
        with pytest.raises(ValueError):
            _grid(subset_fraction=0.0)
        with pytest.raises(ValueError):
            _grid(subset_fraction=1.1)
        with pytest.raises(ValueError):
            _grid(tau_min=2.0, tau_max=1.0)
        for bound in ("tau_min", "alpha_min"):
            with pytest.raises(ValueError, match=f"{bound} must be finite and non-negative"):
                _grid(**{bound: -0.5})
        _grid(subset_fraction=1.0)  # full-data scoring is legal

    @pytest.mark.parametrize("step", [5e-324, 1e-300, 1e-4])
    def test_oversized_grid_is_refused(self, step):
        # 5e-324 makes the point count infinite; 1e-4 asks for 20,001 ** 2.
        with pytest.raises(ValueError, match="more than 100000 points"):
            _grid(step=step)

    def test_grid_of_the_largest_point_count_is_legal(self, monkeypatch):
        monkeypatch.setattr("demkit.search.GRID_MAX_POINTS", 21 * 21)
        assert len(grid_points(_grid())) == 20 * 21  # 441 points; tau = 0 dropped
        with pytest.raises(ValueError, match="more than 441 points"):
            _grid(tau_max=2.1)


class TestGridPoints:
    def test_default_grid_counts(self):
        points = grid_points(_grid())
        assert len(points) == 420  # 20 tau rows (tau = 0 dropped) x 21 alphas
        assert sum(1 for _, _, ok in points if ok) == 350

    def test_points_past_the_bounds_are_not_listed(self):
        points = grid_points(_grid(tau_max=1.0, alpha_max=1.0, step=0.6))
        assert points == [(0.6, 0.0, True), (0.6, 0.6, True)]

    @pytest.mark.parametrize("step", [0.1, 0.25, 0.6])
    def test_points_are_python_floats_and_bools(self, step):
        for point in grid_points(_grid(step=step)):
            assert [type(x) for x in point] == [float, float, bool]

    def test_tau_zero_row_is_dropped(self):
        assert all(t > 0 for t, _, _ in grid_points(_grid()))

    def test_validity_matches_validate_config(self):
        for t, a, ok in grid_points(_grid(step=0.25)):
            assert ok == validate_config(t, a)

    def test_classical_point_present_and_valid(self):
        assert (1.0, 1.0, True) in grid_points(_grid())


# A three-class stream of two shifts of four 8-row batches: the grid
# tests' subset is its leading batch of each shift.
MIX = MixtureSpec(C=3, radius=4.0, sigma=1.0)
SPEC = StreamSpec(
    "continual", (ShiftSpec("rotate2d", 0.4), ShiftSpec("translate", 1.0)), 4, 8,
    DEFAULT_CONFIG["stream"]["label_rho"],
)


def _data():
    return Stream(MIX, SPEC, Rng(0).derive("stream"))


def _fake_runner(monkeypatch, outcome):
    """Patch the chunked runner that the sweeps call so that each protocol
    it is handed yields ``outcome(plugin, cfg)``, read from a plugin its
    factory makes and its ``SgdConfig``: an accuracy, or the
    ``DivergenceError`` it returns.  Returns the list of ``(shift_data,
    plugins, cfgs)`` of each call."""
    calls = []

    def run_chunked(model, spec, shift_data, factories, cfgs):
        plugins = [f() for f in factories]
        calls.append((shift_data, plugins, cfgs))
        for plugin, cfg in zip(plugins, cfgs):
            out = outcome(plugin, cfg)
            yield out if isinstance(out, DivergenceError) else SimpleNamespace(accuracy=out)

    monkeypatch.setattr("demkit.search.run_chunked", run_chunked)
    return calls


def _grid_search(monkeypatch, score, grid=None) -> GridResult:
    """``grid_search`` with each point's protocol scoring ``score(tau, alpha)``."""
    _fake_runner(monkeypatch, lambda plugin, cfg: score(plugin.cfg.tau, plugin.cfg.alpha))
    return grid_search(None, _data(), grid or _grid(), SgdConfig(0.01))


def _lr_sweep(monkeypatch, score, lrs=LRS) -> LrSweepResult:
    """``lr_sweep`` with each rate's protocol giving ``score(lr)``."""
    _fake_runner(monkeypatch, lambda plugin, cfg: score(cfg.lr))
    return lr_sweep(None, _data(), EmPlugin, SgdConfig(0.01, 0.9), lrs)


class TestGridSearch:
    def test_finds_quadratic_peak(self, monkeypatch):
        # Score peaks at (0.7, 1.3); the search must return exactly that
        # grid point.
        def protocol(tau, alpha):
            return 1.0 - (tau - 0.7) ** 2 - (alpha - 1.3) ** 2

        best, table, *_ = _grid_search(monkeypatch, protocol)
        assert (best.tau, best.alpha) == (0.7, 1.3)
        assert best.valid
        assert best.accuracy == pytest.approx(1.0)
        assert len(table) == 420

    def test_constant_scores_tie_break_to_classical(self, monkeypatch):
        best, *_ = _grid_search(monkeypatch, lambda tau, alpha: 0.5)
        assert (best.tau, best.alpha) == (1.0, 1.0)

    def test_invalid_points_are_never_scored(self, monkeypatch):
        # Invalid points would score 1.0: only valid points are run.
        calls = _fake_runner(
            monkeypatch,
            lambda plugin, cfg: 0.0 if validate_config(plugin.cfg.tau, plugin.cfg.alpha) else 1.0,
        )
        _, table, *_ = grid_search(None, _data(), _grid(step=0.5), SgdConfig(0.01))
        run = [(p.cfg.tau, p.cfg.alpha) for _, plugins, _ in calls for p in plugins]
        assert run and all(validate_config(t, a) for t, a in run)
        for row in table:
            if not row.valid:
                assert row.accuracy is None
            else:
                assert row.accuracy == 0.0

    def test_points_run_on_the_subset_and_finalists_on_the_stream(self, monkeypatch):
        # The valid points, in grid order, on each shift's leading batch;
        # then the winner and the classical point on the full stream.
        grid = _grid(step=0.5, subset_fraction=0.25)
        calls = _fake_runner(monkeypatch, lambda plugin, cfg: plugin.cfg.tau - plugin.cfg.alpha)
        res = grid_search(None, _data(), grid, SgdConfig(0.01))
        (subset, points, cfgs), (full, finalists, _) = calls
        assert [(p.cfg.tau, p.cfg.alpha) for p in points] == [
            (t, a) for t, a, ok in grid_points(grid) if ok
        ]
        assert {cfg.lr for cfg in cfgs} == {0.01}
        assert [X.shape[0] for X, _ in subset] == [1, 1]
        assert full.spec == SPEC
        assert [(p.cfg.tau, p.cfg.alpha) for p in finalists] == [(2.0, 0.0), (1.0, 1.0)]
        assert (res.best_full, res.classical_subset, res.classical_full) == (2.0, 0.0, 0.0)

    def test_all_invalid_grid_raises(self):
        # tau in [3, 4] with alpha = 2 violates tau <= 2/alpha everywhere,
        # so the grid is refused before any point could be scored.
        with pytest.raises(ConfigError, match="no valid"):
            _grid(tau_min=3.0, tau_max=4.0, alpha_min=2.0, alpha_max=2.0, step=0.5)

    def test_the_validity_check_lists_no_grid(self, monkeypatch):
        # The check stops at the first valid point: the default grid's
        # first point, (0.1, 0.0), is valid, so one validate_config call
        # decides it, and grid_points, which lists every point, is never
        # called.
        import demkit.search as search

        def refused(grid):
            raise AssertionError("the validity check listed the grid")

        calls = []

        def counted(tau, alpha):
            calls.append((tau, alpha))
            return validate_config(tau, alpha)

        monkeypatch.setattr(search, "grid_points", refused)
        monkeypatch.setattr(search, "validate_config", counted)
        _grid()
        assert calls == [(0.1, 0.0)]
        with pytest.raises(ConfigError, match="no valid"):
            _grid(tau_min=3.0, tau_max=4.0, alpha_min=2.0, alpha_max=2.0, step=0.5)
        assert len(calls) == 1 + 3

    def test_table_rows_are_trial_results_in_grid_order(self, monkeypatch):
        _, table, *_ = _grid_search(monkeypatch, lambda t, a: t + a, _grid(step=1.0))
        assert all(isinstance(r, TrialResult) for r in table)
        taus = [r.tau for r in table]
        assert taus == sorted(taus)

    def test_a_frozen_model_ties_every_point_at_the_classical_one(self):
        # At lr = 0 no point moves the model, so each scores the frozen
        # model's accuracy and the tie-break picks (1.0, 1.0).
        model = init_mlp(MIX.C, MIX.d, 4, Rng(1), 0.5)
        data = _data()
        grid = _grid(step=0.5, subset_fraction=0.5)
        best, table, best_full, classical_subset, classical_full = grid_search(
            model, data, grid, SgdConfig(0.0)
        )
        frozen = run_protocol(model, data.leading(2), SPEC.mode, EmPlugin, SgdConfig(0.0))
        assert {r.accuracy for r in table if r.valid} == {frozen.accuracy}
        assert (best.tau, best.alpha) == (1.0, 1.0)
        assert classical_subset == frozen.accuracy
        full = run_protocol(model, data, SPEC.mode, EmPlugin, SgdConfig(0.0)).accuracy
        assert best_full == classical_full == full


class TestLrSweep:
    def test_counts_rates_at_or_above_baseline(self, monkeypatch):
        # protocol(0) = 0.5; scores rise with lr until they crash.
        def protocol(lr):
            if lr == 0.0:
                return 0.5
            return 0.8 if lr <= 1e-2 else 0.2

        res = _lr_sweep(monkeypatch, protocol)
        assert isinstance(res, LrSweepResult)
        assert res.baseline == 0.5
        assert res.tolerance_count == 7  # rates up to 1e-2 inclusive
        assert len(res.rows) == len(LRS)
        assert [lr for lr, _ in res.rows] == list(LRS)

    def test_the_baseline_and_each_rate_run_once_in_order(self, monkeypatch):
        calls = _fake_runner(monkeypatch, lambda plugin, cfg: 0.5)
        data = _data()
        lr_sweep(None, data, EmPlugin, SgdConfig(0.01, 0.9), [1e-3, 0.0, 1e-2, 1e-3])
        ((shift_data, plugins, cfgs),) = calls
        assert shift_data is data
        assert all(isinstance(p, EmPlugin) for p in plugins)
        assert cfgs == [SgdConfig(lr, 0.9) for lr in (0.0, 1e-3, 1e-2)]

    def test_nan_scores_count_below_baseline(self, monkeypatch):
        def protocol(lr):
            if lr == 0.0:
                return 0.5
            return float("nan") if lr > 1e-2 else 0.6

        res = _lr_sweep(monkeypatch, protocol)
        assert res.tolerance_count == 7
        assert any(math.isnan(acc) for _, acc in res.rows)

    def test_divergence_scores_nan_at_a_rate_and_at_the_baseline(self, monkeypatch):
        def protocol(lr):
            if lr > 1e-2:
                return DivergenceError("logits", 1, 0)
            return 0.6

        res = _lr_sweep(monkeypatch, protocol)
        diverged = [math.isnan(acc) for _, acc in res.rows]
        assert diverged == [lr > 1e-2 for lr in LRS]
        assert res.tolerance_count == 7

        def diverges_at_baseline(lr):
            if lr == 0.0:
                return DivergenceError("loss gradients", 0)
            return 0.6

        res = _lr_sweep(monkeypatch, diverges_at_baseline, [1e-3])
        assert math.isnan(res.baseline)
        assert res.rows == [(1e-3, 0.6)] and res.tolerance_count == 0

    def test_best_is_the_first_highest_finite_row(self, monkeypatch):
        scores = {0.0: 0.5, 1e-3: 0.6, 1e-2: 0.7, 1e-1: 0.7}

        def protocol(lr):
            if lr == 2.5e-2:
                return DivergenceError("logits", 1, 0)
            return scores[lr]

        res = _lr_sweep(monkeypatch, protocol, [1e-3, 1e-2, 2.5e-2, 1e-1])
        assert math.isnan(res.rows[2][1])
        assert res.best == (1e-2, 0.7)

    def test_best_is_nan_when_every_rate_diverges(self, monkeypatch):
        def protocol(lr):
            if lr > 0.0:
                return DivergenceError("logits", 0, 0)
            return 0.5

        lr, acc = _lr_sweep(monkeypatch, protocol, [1e-3, 1e-2]).best
        assert math.isnan(lr) and math.isnan(acc)

    def test_equal_to_baseline_is_tolerated(self, monkeypatch):
        res = _lr_sweep(monkeypatch, lambda lr: 0.5, [1e-3, 1e-2])
        assert res.tolerance_count == 2

    def test_validation(self, monkeypatch):
        calls = _fake_runner(monkeypatch, lambda plugin, cfg: 0.5)
        with pytest.raises(ValueError):
            lr_sweep(None, _data(), EmPlugin, SgdConfig(0.01), [])
        with pytest.raises(ValueError):
            lr_sweep(None, _data(), EmPlugin, SgdConfig(0.01), [1e-3, -1e-3])
        assert calls == []

    def test_default_grid_is_pinned(self):
        assert DEFAULT_CONFIG["lrs"] == [
            1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 1e-1
        ]
