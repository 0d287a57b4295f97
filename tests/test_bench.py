"""Tests for the synthetic shift benchmark, metrics, and protocols."""

import dataclasses
import functools
import math
import tracemalloc

import numpy as np
import pytest

import demkit.bench
import demkit.model
from demkit.bench import (
    LEVEL_MULTIPLIERS,
    SHIFT_KINDS,
    MixtureSpec,
    ShiftSpec,
    StreamSpec,
    apply_shift,
    circle_means,
    default_continual,
    default_mixture,
    default_single_domain,
    kl_divergence,
    long_tail_priors,
    make_stream,
    metrics,
    run_protocol,
    sample_batch,
)
from demkit.em_losses import DemConfig
from demkit.model import (
    AdaDemPlugin,
    DemPlugin,
    DivergenceError,
    EmPlugin,
    SgdConfig,
    adapt_stream,
    forward,
    init_linear,
    train_source,
)
from demkit.numkit import Rng


class TestGeometry:
    def test_circle_means_square(self):
        m = circle_means(4, 2.0)
        np.testing.assert_allclose(
            m, [[2, 0], [0, 2], [-2, 0], [0, -2]], atol=1e-14
        )

    def test_circle_means_radius(self):
        m = circle_means(10, 4.0)
        np.testing.assert_allclose(np.linalg.norm(m, axis=1), 4.0, atol=1e-12)

    def test_default_mixture(self):
        mix = default_mixture()
        assert (mix.C, mix.d, mix.radius, mix.sigma) == (10, 2, 4.0, 1.0)
        np.testing.assert_allclose(np.linalg.norm(mix.means, axis=1), 4.0, atol=1e-12)

    @pytest.mark.parametrize("C, radius", [(2, 1.0), (3, 2.5), (10, 4.0), (37, 0.3)])
    def test_mixture_means_are_circle_means(self, C, radius):
        mix = MixtureSpec(C, radius, 1.0)
        assert mix.means.tobytes() == circle_means(C, radius).tobytes()
        assert mix.means.shape == (C, mix.d) and mix.d == 2
        assert mix.means is mix.means  # derived once per mixture

    def test_mixture_validation(self):
        MixtureSpec(C=2, radius=1e-300, sigma=1e-300)  # the smallest legal mixture
        for C, radius, sigma in [
            (1, 1.0, 1.0), (0, 1.0, 1.0),
            (3, 0.0, 1.0), (3, -1.0, 1.0), (3, math.nan, 1.0),
            (3, 1.0, 0.0), (3, 1.0, -1.0), (3, 1.0, math.nan),
        ]:
            with pytest.raises(ValueError):
                MixtureSpec(C=C, radius=radius, sigma=sigma)


class TestLongTailPriors:
    def test_rho_one_is_uniform(self):
        np.testing.assert_array_equal(long_tail_priors(10, 1.0), np.full(10, 0.1))

    def test_two_class_reference(self):
        np.testing.assert_allclose(
            long_tail_priors(2, 100.0), [100 / 101, 1 / 101], atol=1e-15
        )

    def test_head_tail_ratio_is_rho(self):
        p = long_tail_priors(10, 37.0)
        assert abs(p[0] / p[-1] - 37.0) < 1e-9
        assert abs(p.sum() - 1.0) < 1e-12

    def test_consecutive_ratio_is_constant(self):
        p = long_tail_priors(10, 100.0)
        r = 100.0 ** (1.0 / 9.0)
        np.testing.assert_allclose(p[:-1] / p[1:], r, atol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            long_tail_priors(10, 0.5)
        with pytest.raises(ValueError):
            long_tail_priors(1, 2.0)


class TestSampleBatch:
    def test_deterministic(self):
        mix = default_mixture()
        Xa, ya = sample_batch(mix, np.full(10, 0.1), 32, Rng(5))
        Xb, yb = sample_batch(mix, np.full(10, 0.1), 32, Rng(5))
        np.testing.assert_array_equal(Xa, Xb)
        np.testing.assert_array_equal(ya, yb)

    def test_one_hot_prior_fixes_labels(self):
        mix = default_mixture()
        prior = np.zeros(10)
        prior[7] = 1.0
        _, y = sample_batch(mix, prior, 50, Rng(1))
        assert np.all(y == 7)

    def test_tiny_sigma_recovers_means(self):
        mix = MixtureSpec(C=3, radius=2.0, sigma=1e-9)
        X, y = sample_batch(mix, np.full(3, 1 / 3), 100, Rng(2))
        np.testing.assert_allclose(X, circle_means(3, 2.0)[y], atol=1e-7)

    def test_label_frequencies_follow_priors(self):
        mix = default_mixture()
        priors = long_tail_priors(10, 10.0)
        _, y = sample_batch(mix, priors, 100_000, Rng(3))
        freq = np.bincount(y, minlength=10) / y.shape[0]
        np.testing.assert_allclose(freq, priors, atol=0.01)

    def test_rejects_empty(self):
        mix = default_mixture()
        with pytest.raises(ValueError):
            sample_batch(mix, np.full(10, 0.1), 0, Rng(0))


class TestShifts:
    def test_kinds_and_levels(self):
        assert SHIFT_KINDS == ("translate", "rotate2d", "feature_noise", "feature_scale")
        assert LEVEL_MULTIPLIERS == {1: 0.5, 2: 1.0, 3: 1.5, 4: 2.0, 5: 2.5}

    def test_effective_magnitude(self):
        assert ShiftSpec("translate", 2.0, 5).effective_magnitude == 5.0
        assert ShiftSpec("translate", 2.0, 1).effective_magnitude == 1.0
        assert ShiftSpec("translate", 2.0).level == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            ShiftSpec("shear")
        with pytest.raises(ValueError):
            ShiftSpec("translate", 1.0, 6)

    def test_keys_distinguish_content_and_occurrence(self):
        a = ShiftSpec("rotate2d", 0.5, 2)
        assert a.key(0) != a.key(1)
        assert a.key(0) != ShiftSpec("rotate2d", 0.25, 2).key(0)
        assert a.key(0) != ShiftSpec("rotate2d", 0.5, 3).key(0)

    def test_translate_adds_along_diagonal(self):
        X = np.array([[1.0, 2.0]])
        out = apply_shift(X, ShiftSpec("translate", 3.0, 2), Rng(0))
        np.testing.assert_array_equal(out, X + 3.0 / math.sqrt(2.0))

    def test_rotation_quarter_turn(self):
        X = np.array([[1.0, 0.0]])
        out = apply_shift(X, ShiftSpec("rotate2d", math.pi / 2, 2), Rng(0))
        np.testing.assert_allclose(out, [[0.0, 1.0]], atol=1e-15)

    def test_rotation_full_turn_is_identity(self):
        rng = Rng(4)
        X = rng.normals(20).reshape(10, 2)
        out = apply_shift(X, ShiftSpec("rotate2d", 2.0 * math.pi, 2), Rng(0))
        np.testing.assert_allclose(out, X, atol=1e-12)

    def test_rotation_needs_two_dimensions(self):
        with pytest.raises(ValueError):
            apply_shift(np.ones((2, 3)), ShiftSpec("rotate2d", 0.5), Rng(0))

    def test_feature_scale(self):
        X = np.array([[1.0, -2.0]])
        out = apply_shift(X, ShiftSpec("feature_scale", 0.5, 2), Rng(0))
        np.testing.assert_array_equal(out, 1.5 * X)

    def test_feature_noise_deterministic_and_zero_magnitude(self):
        X = np.ones((4, 2))
        spec = ShiftSpec("feature_noise", 1.0, 3)
        np.testing.assert_array_equal(
            apply_shift(X, spec, Rng(7)), apply_shift(X, spec, Rng(7))
        )
        silent = apply_shift(X, ShiftSpec("feature_noise", 0.0, 3), Rng(7))
        np.testing.assert_array_equal(silent, X)


class TestStreamSpec:
    def test_validation(self):
        shift = ShiftSpec("translate", 1.0)
        with pytest.raises(ValueError):
            StreamSpec("episodic", (shift,), 5)
        with pytest.raises(ValueError):
            StreamSpec("single_domain", (), 5)
        with pytest.raises(ValueError):
            StreamSpec("continual", (shift,), 5)  # needs two or more
        with pytest.raises(ValueError):
            StreamSpec("single_domain", (shift,), 0)
        with pytest.raises(ValueError):
            StreamSpec("single_domain", (shift,), 5, batch_size=0)
        for rho in (0.5, 1.0 - 1e-12, -1.0, math.nan):
            with pytest.raises(ValueError):
                StreamSpec("single_domain", (shift,), 5, label_rho=rho)
        assert StreamSpec("single_domain", (shift,), 5).label_rho == 1.0

    def test_default_tasks(self):
        single = default_single_domain()
        assert single.mode == "single_domain"
        assert len(single.shifts) == 3
        assert all(s.kind == "rotate2d" and s.magnitude == 0.5 for s in single.shifts)
        assert (single.batches_per_shift, single.batch_size) == (60, 64)

        cont = default_continual()
        assert cont.mode == "continual"
        assert [s.magnitude for s in cont.shifts] == [0.45, 0.50, 0.55]
        assert all(s.kind == "rotate2d" for s in cont.shifts)
        assert (cont.batches_per_shift, cont.batch_size) == (60, 64)


class TestMakeStream:
    MIX = default_mixture()

    def test_shapes(self):
        spec = StreamSpec("single_domain", (ShiftSpec("translate", 1.0),), 4, 16)
        data = make_stream(self.MIX, spec, Rng(0))
        assert len(data) == 1
        X, y = data[0]
        assert X.shape == (4, 16, 2) and X.dtype == np.float64
        assert y.shape == (4, 16) and y.dtype == np.int64

    def test_arrays_hold_the_bits_of_per_batch_draws(self):
        # Batch i of a shift is the i-th sample_batch draw, then its
        # apply_shift, on the shift's own generator, written unchanged.
        # Feature noise draws from that generator after sample_batch.
        noise, rotation = ShiftSpec("feature_noise", 1.0, 3), ShiftSpec("rotate2d", 0.5)
        priors = long_tail_priors(10, 10.0)
        spec = StreamSpec("continual", (noise, rotation, noise), 5, 24, label_rho=10.0)
        data = make_stream(self.MIX, spec, Rng(7))
        for (X, y), shift, occurrence in zip(data, spec.shifts, (0, 0, 1)):
            srng = Rng(7).derive(shift.key(occurrence))
            for i in range(5):
                Xb, yb = sample_batch(self.MIX, priors, 24, srng)
                assert X[i].tobytes() == apply_shift(Xb, shift, srng).tobytes()
                assert y[i].tobytes() == yb.tobytes()

    def test_repeated_shift_gets_fresh_data(self):
        shift = ShiftSpec("rotate2d", 0.5)
        spec = StreamSpec("single_domain", (shift, shift), 2, 16)
        data = make_stream(self.MIX, spec, Rng(0))
        assert not np.array_equal(data[0][0], data[1][0])

    def test_reordering_shifts_permutes_data(self):
        a, b = ShiftSpec("translate", 1.0), ShiftSpec("rotate2d", 0.5)
        d_ab = make_stream(self.MIX, StreamSpec("single_domain", (a, b), 3, 16), Rng(0))
        d_ba = make_stream(self.MIX, StreamSpec("single_domain", (b, a), 3, 16), Rng(0))
        for i in range(2):
            np.testing.assert_array_equal(d_ab[0][i], d_ba[1][i])
            np.testing.assert_array_equal(d_ab[1][i], d_ba[0][i])

    @pytest.mark.parametrize("C", [2, 5, 10, 37])
    @pytest.mark.parametrize("rho", [1.0, 10.0])
    def test_label_rho_draws_at_long_tail_priors(self, C, rho):
        # rho = 1 draws at the uniform np.full(C, 1 / C), byte for byte;
        # rho > 1 at long_tail_priors(C, rho).
        mix = MixtureSpec(C, 4.0, 1.0)
        priors = np.full(C, 1.0 / C) if rho == 1.0 else long_tail_priors(C, rho)
        shift = ShiftSpec("feature_noise", 1.0, 3)
        X, y = make_stream(mix, StreamSpec("single_domain", (shift,), 4, 16, rho), Rng(3))[0]
        srng = Rng(3).derive(shift.key(0))
        for i in range(4):
            Xb, yb = sample_batch(mix, priors, 16, srng)
            assert X[i].tobytes() == apply_shift(Xb, shift, srng).tobytes()
            assert y[i].tobytes() == yb.tobytes()

    def test_label_priors_thread_through(self):
        # At label_rho = 1e300 every class after the first has a prior
        # below 1e-33, so every label is class 0.
        spec = StreamSpec("single_domain", (ShiftSpec("translate", 1.0),), 2, 32,
                          label_rho=1e300)
        data = make_stream(self.MIX, spec, Rng(0))
        assert np.all(data[0][1] == 0)


class TestKlDivergence:
    def test_hand_value(self):
        got = kl_divergence([0.5, 0.5], [0.25, 0.75])
        want = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
        assert abs(got - want) < 1e-9

    def test_identity_is_zero(self):
        assert kl_divergence([0.3, 0.7], [0.3, 0.7]) == 0.0

    def test_nonnegative_and_smooths_zeros(self):
        v = kl_divergence([1.0, 0.0], [0.5, 0.5])
        assert np.isfinite(v) and v > 0.0


class TestMetrics:
    def test_uniform_predictions(self):
        P = np.full((20, 10), 0.1)
        y = np.repeat(np.arange(10), 2)
        rep = metrics(P, y)
        assert abs(rep.marginal_entropy - math.log(10)) < 1e-12
        assert rep.kl_output_vs_label == 0.0  # both marginals exactly 0.1
        assert rep.avg_max_prob == pytest.approx(0.1, abs=1e-15)
        assert rep.accuracy == 0.1  # argmax ties resolve to class 0

    def test_collapsed_predictions(self):
        P = np.zeros((30, 10))
        P[:, 0] = 1.0
        y = np.repeat(np.arange(10), 3)
        rep = metrics(P, y)
        np.testing.assert_array_equal(rep.sorted_class_proportions,
                                      [1.0] + [0.0] * 9)
        assert abs(rep.kl_output_vs_label - math.log(10)) < 1e-3
        assert rep.marginal_entropy < 1e-9
        assert rep.accuracy == 0.1

    def test_two_class_f1_hand_case(self):
        P = np.array([[0.9, 0.1], [0.8, 0.2], [0.3, 0.7], [0.4, 0.6]])
        y = np.array([0, 1, 1, 0])
        rep = metrics(P, y)
        # preds = [0, 0, 1, 1]: each class has tp=1, fp=1, fn=1.
        np.testing.assert_array_equal(rep.per_class_f1, [0.5, 0.5])
        assert rep.macro_f1 == 0.5
        assert rep.accuracy == 0.5

    def test_absent_class_scores_zero_f1(self):
        P = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        rep = metrics(P, [0, 0])
        assert rep.per_class_f1[1] == 0.0 and rep.per_class_f1[2] == 0.0

    def test_per_class_f1_matches_reference_loop(self):
        rng = Rng(41)
        for n, C in ((1, 2), (7, 3), (200, 10)):
            P = rng.uniforms(n * C).reshape(n, C)
            y = rng.integers(n, 0, C)
            preds = np.argmax(P, axis=1)
            expected = np.zeros(C)
            for c in range(C):
                tp = float(np.sum((preds == c) & (y == c)))
                fp = float(np.sum((preds == c) & (y != c)))
                fn = float(np.sum((preds != c) & (y == c)))
                denom = 2.0 * tp + fp + fn
                expected[c] = 2.0 * tp / denom if denom > 0 else 0.0
            rep = metrics(P, y)
            assert np.array_equal(rep.per_class_f1, expected)
            assert rep.macro_f1 == float(np.mean(expected))

    def test_fields_keep_the_bits_of_the_matrix_formulas(self):
        # metrics reads P through per-row summaries and column sums; each
        # field still has the bits of its formula over the whole matrix.
        rng = np.random.default_rng(8)
        for n, C in ((1, 2), (77, 3), (3000, 10)):
            P = rng.dirichlet(np.full(C, 0.4), size=n)
            y = rng.integers(0, C, n)
            rep = metrics(P, y)
            marginal = P.mean(axis=0)
            entropy = -np.sum(np.where(marginal > 0, marginal * np.log(marginal), 0.0))
            assert rep.accuracy == float(np.mean(np.argmax(P, axis=1) == y))
            assert rep.avg_max_prob == float(np.mean(np.max(P, axis=1)))
            assert rep.marginal_entropy == float(entropy)
            assert rep.kl_output_vs_label == kl_divergence(marginal, np.bincount(y, minlength=C) / n)

    def test_validation(self):
        with pytest.raises(ValueError):
            metrics(np.ones((2, 3)) / 3, [0])
        with pytest.raises(ValueError):
            metrics(np.zeros((0, 3)), [])

    @pytest.mark.parametrize(
        "labels",
        [[0.5, 1, 2], [0, 1, 3], [0, -1, 2], [[0, 1, 2]]],
        ids=["float", "past-C", "negative", "2-d"],
    )
    def test_rejects_labels_that_are_not_classes(self, labels):
        # A label must name a class; none is truncated or left to numpy to reject.
        with pytest.raises(ValueError, match="labels must"):
            metrics(np.full((3, 3), 1 / 3), labels)


def _shift_probs(model, X, plugin, cfg):
    """One shift's pre-update probabilities: ``adapt_stream`` over its
    inputs ``X`` into a fresh matrix of the shift's rows."""
    probs = np.empty((X.shape[0] * X.shape[1], model.C))
    adapt_stream(model, X, plugin, cfg, probs)
    return probs


def _quick_source(seed=0):
    """A small linear source model for protocol-level tests."""
    mix = default_mixture()
    rng = Rng(seed)
    X, y = sample_batch(mix, np.full(10, 0.1), 2000, rng.derive("data"))
    model = init_linear(10, 2)
    train_source(model, X, y, 3, SgdConfig(lr=0.5), rng.derive("train"))
    return mix, model


class TestSeverityScaling:
    def test_feature_noise_levels_degrade_monotonically(self):
        mix, model = _quick_source()
        accs = []
        for level in range(1, 6):
            spec = StreamSpec(
                "single_domain", (ShiftSpec("feature_noise", 1.0, level),), 20, 64
            )
            data = make_stream(mix, spec, Rng(11))
            accs.append(run_protocol(model, data, spec.mode, EmPlugin, SgdConfig(lr=0.0)).accuracy)
        for lo, hi in zip(accs[1:], accs[:-1]):
            assert lo <= hi + 0.01  # nonincreasing up to sampling noise
        assert accs[0] - accs[4] >= 0.10


class TestRunProtocol:
    def _setup(self):
        mix, model = _quick_source()
        a, b = ShiftSpec("rotate2d", 0.5), ShiftSpec("translate", 2.0)
        data = make_stream(mix, StreamSpec("single_domain", (a, b), 10, 32), Rng(21))
        return model, data

    def test_zero_lr_matches_baseline(self):
        # `run` scores its baseline with the config's own mode and plugin at
        # lr = 0; every such pair gives the same scores to the bit.
        model, data = self._setup()
        cfg = SgdConfig(lr=0.0, momentum=0.9)
        ref = run_protocol(model, data, "single_domain", EmPlugin, cfg)
        for mode in ("single_domain", "continual"):
            for factory in (EmPlugin, AdaDemPlugin):
                res = run_protocol(model, data, mode, factory, cfg)
                assert [r.accuracy for r in res.per_shift] == [r.accuracy for r in ref.per_shift]
                assert res.accuracy == ref.accuracy

    def test_baselines_match_the_frozen_model(self):
        # The no-adapt baseline is the protocol at lr = 0: it scores the
        # frozen model's own predictions, shift by shift and overall, and
        # leaves the model untouched.
        model, data = self._setup()
        before = model.copy()
        res = run_protocol(model, data, "single_domain", EmPlugin, SgdConfig(lr=0.0))
        hits = [[int(np.sum(np.argmax(forward(model, Xb), axis=1) == yb)) for Xb, yb in zip(X, y)]
                for X, y in data]
        sizes = [y.size for _, y in data]
        assert [r.accuracy for r in res.per_shift] == [sum(h) / n for h, n in zip(hits, sizes)]
        assert res.accuracy == res.overall.accuracy == sum(map(sum, hits)) / sum(sizes)
        assert np.array_equal(model.theta, before.theta)

    def test_deterministic(self):
        model, data = self._setup()
        cfg = SgdConfig(lr=0.01, momentum=0.9)
        r1 = run_protocol(model, data, "single_domain", EmPlugin, cfg)
        r2 = run_protocol(model, data, "single_domain", EmPlugin, cfg)
        assert r1.overall.accuracy == r2.overall.accuracy
        assert r1.overall.marginal_entropy == r2.overall.marginal_entropy

    def test_source_model_is_never_mutated(self):
        model, data = self._setup()
        before = model.copy()
        run_protocol(model, data, "continual", EmPlugin, SgdConfig(lr=0.05))
        assert np.array_equal(model.theta, before.theta)

    def test_single_domain_is_order_independent(self):
        mix, model = _quick_source()
        a, b = ShiftSpec("rotate2d", 0.5), ShiftSpec("translate", 2.0)
        cfg = SgdConfig(lr=0.01, momentum=0.9)
        d_ab = make_stream(mix, StreamSpec("single_domain", (a, b), 10, 32), Rng(21))
        d_ba = make_stream(mix, StreamSpec("single_domain", (b, a), 10, 32), Rng(21))
        r_ab = run_protocol(model, d_ab, "single_domain", EmPlugin, cfg)
        r_ba = run_protocol(model, d_ba, "single_domain", EmPlugin, cfg)
        assert r_ab.per_shift[0].accuracy == r_ba.per_shift[1].accuracy
        assert r_ab.per_shift[1].accuracy == r_ba.per_shift[0].accuracy

    def test_continual_is_order_dependent(self):
        mix, model = _quick_source()
        a, b = ShiftSpec("rotate2d", 0.5), ShiftSpec("translate", 2.0)
        cfg = SgdConfig(lr=0.05, momentum=0.9)
        d_ab = make_stream(mix, StreamSpec("continual", (a, b), 10, 32), Rng(21))
        d_ba = make_stream(mix, StreamSpec("continual", (b, a), 10, 32), Rng(21))
        r_ab = run_protocol(model, d_ab, "continual", EmPlugin, cfg)
        r_ba = run_protocol(model, d_ba, "continual", EmPlugin, cfg)
        acc_ab = [rep.accuracy for rep in r_ab.per_shift]
        acc_ba = [rep.accuracy for rep in reversed(r_ba.per_shift)]
        assert acc_ab != acc_ba

    def test_plugin_factory_call_counts(self):
        model, data = self._setup()
        calls = []

        def factory():
            calls.append(1)
            return EmPlugin()

        run_protocol(model, data, "single_domain", factory, SgdConfig(lr=0.01))
        assert len(calls) == len(data)
        calls.clear()
        run_protocol(model, data, "continual", factory, SgdConfig(lr=0.01))
        assert len(calls) == 1

    def test_makes_no_public_forward_pass(self, monkeypatch):
        # A protocol runs no forward pass besides adapt_stream's fused
        # one, and it hands adapt_stream each shift's own input array.
        model, data = self._setup()
        cfg = SgdConfig(lr=0.01)
        expected = run_protocol(model, data, "continual", EmPlugin, cfg)

        def no_forward(*args, **kwargs):
            raise AssertionError("a forward pass called by run_protocol")

        seen = []

        def inputs_only(model, X, plugin, cfg, probs):
            seen.append(X)
            return adapt_stream(model, X, plugin, cfg, probs)

        monkeypatch.setattr(demkit.model, "forward", no_forward)
        monkeypatch.setattr(demkit.bench, "adapt_stream", inputs_only)
        res = run_protocol(model, data, "continual", EmPlugin, cfg)
        assert len(seen) == len(data) and all(a is X for a, (X, _) in zip(seen, data))
        assert [r.accuracy for r in res.per_shift] == [r.accuracy for r in expected.per_shift]
        assert res.overall.marginal_entropy == expected.overall.marginal_entropy

    def test_scores_once_on_first_access(self, monkeypatch):
        # run_protocol scores nothing; reading overall builds one report
        # and per_shift one per shift, each kept after the first read.
        model, data = self._setup()
        calls = []

        def counting(confusion, row_max, col_sum):
            calls.append(len(row_max))
            return report(confusion, row_max, col_sum)

        report = demkit.bench._report
        monkeypatch.setattr(demkit.bench, "_report", counting)
        res = run_protocol(model, data, "continual", EmPlugin, SgdConfig(lr=0.01))
        assert calls == []
        res.overall.accuracy
        res.overall.macro_f1
        assert len(calls) == 1
        res.per_shift
        res.per_shift
        assert len(calls) == 1 + len(data)

    @pytest.mark.parametrize("mode", ["single_domain", "continual"])
    def test_accuracy_builds_no_report(self, monkeypatch, mode):
        # Sweeps read .accuracy alone: no report, the bits of
        # overall.accuracy, computed once.
        model, data = self._setup()
        calls = []

        def counting(confusion, row_max, col_sum):
            calls.append(len(row_max))
            return report(confusion, row_max, col_sum)

        report = demkit.bench._report
        monkeypatch.setattr(demkit.bench, "_report", counting)
        res = run_protocol(model, data, mode, AdaDemPlugin, SgdConfig(lr=0.05, momentum=0.9))
        acc = res.accuracy
        assert calls == [] and type(acc) is float
        assert res.accuracy is acc
        assert acc == res.overall.accuracy and len(calls) == 1

    @pytest.mark.parametrize("mode", ["single_domain", "continual"])
    def test_lazy_reports_equal_eager_metrics(self, mode):
        # Every field of every report built from the kept summaries has
        # the bits metrics() gives on the probability matrices themselves,
        # for each loss, on uniform and long-tail (label_rho) streams.
        mix, model = _quick_source()
        shifts = (
            ShiftSpec("rotate2d", 0.5), ShiftSpec("translate", 2.0), ShiftSpec("rotate2d", 0.3)
        )
        cfg = SgdConfig(lr=0.05, momentum=0.9)
        factories = (AdaDemPlugin, EmPlugin, functools.partial(DemPlugin, DemConfig(0.8, 1.2)))
        for label_rho in (1.0, 10.0):
            spec = StreamSpec("single_domain", shifts, 10, 32, label_rho=label_rho)
            data = make_stream(mix, spec, Rng(21))
            for factory in factories:
                res = run_protocol(model, data, mode, factory, cfg)

                probs, labels = [], []
                adapted = plugin = None
                for X, y in data:
                    if adapted is None or mode == "single_domain":
                        adapted, plugin = model.copy(), factory()
                    probs.append(_shift_probs(adapted, X, plugin, cfg))
                    labels.append(y.reshape(-1))
                eager_per_shift = [metrics(P, y) for P, y in zip(probs, labels)]
                eager_overall = metrics(np.concatenate(probs), np.concatenate(labels))

                reports = zip(res.per_shift + [res.overall], eager_per_shift + [eager_overall])
                for got, want in reports:
                    for field in dataclasses.fields(want):
                        a, b = getattr(got, field.name), getattr(want, field.name)
                        assert np.array_equal(a, b), (label_rho, factory, field.name)
                assert len(res.per_shift) == len(data)
                assert res.accuracy == eager_overall.accuracy

    @pytest.mark.parametrize("mode", ["single_domain", "continual"])
    def test_keeps_no_probability_matrix(self, mode):
        # A finished result holds one float per row, its largest
        # probability, and no per-row prediction or label: per shift a
        # C x C confusion count and C sums, overall C sums.
        model, data = self._setup()
        res = run_protocol(model, data, mode, AdaDemPlugin, SgdConfig(lr=0.05, momentum=0.9))
        res.per_shift, res.overall, res.accuracy
        rows = [y.size for _, y in data]
        C = model.C
        arrays = []
        for value in vars(res).values():
            for item in value if isinstance(value, list) else [value]:
                if isinstance(item, np.ndarray):
                    arrays.append(item)
        assert sorted(A.shape for A in arrays if A.size > C) == sorted(
            [(n,) for n in rows] + [(C, C)] * len(data)
        )
        assert [len(m) for m in res.row_max] == rows
        assert [c.shape for c in res.confusion] == [(C, C)] * len(data)
        assert [int(c.sum()) for c in res.confusion] == rows
        assert [s.shape for s in res.col_sums] == [(C,)] * len(data)
        assert res.total.shape == (C,)

    def test_continual_resets_momentum_at_every_shift(self):
        # The model and the plugin (here AdaDEM's calibrator) carry over
        # between shifts; the optimizer's velocity does not.
        mix, model = _quick_source()
        a, b = ShiftSpec("rotate2d", 0.5), ShiftSpec("translate", 2.0)
        data = make_stream(mix, StreamSpec("continual", (a, b), 10, 32), Rng(21))
        cfg = SgdConfig(lr=0.05, momentum=0.9)
        res = run_protocol(model, data, "continual", AdaDemPlugin, cfg)

        def accuracy(probs, y):
            return metrics(probs, y.reshape(-1)).accuracy

        adapted, plugin = model.copy(), AdaDemPlugin()
        per_call = []
        for X, y in data:
            probs = _shift_probs(adapted, X, plugin, cfg)
            per_call.append(accuracy(probs, y))
        assert [rep.accuracy for rep in res.per_shift] == per_call

        both = np.concatenate([data[0][0], data[1][0]])
        probs = _shift_probs(model.copy(), both, AdaDemPlugin(), cfg)
        one_call = [accuracy(probs[:320], data[0][1]), accuracy(probs[320:], data[1][1])]
        assert one_call[0] == per_call[0]
        assert one_call[1] != per_call[1]

    def test_divergence_names_the_shift(self):
        model, data = self._setup()

        class NanOnSecondShift:
            def __init__(self, shift):
                self.shift = shift

            def batch_eval(self, Z, P):
                grads = EmPlugin().batch_eval(Z, P)
                if self.shift == 1:
                    grads[:] = np.inf
                return grads

        shifts = iter(range(len(data)))
        with pytest.raises(DivergenceError) as info:
            run_protocol(model, data, "single_domain",
                         lambda: NanOnSecondShift(next(shifts)), SgdConfig(lr=0.01))
        assert (info.value.shift, info.value.batch) == (1, 0)
        assert "shift 1, batch 0" in str(info.value)

    @pytest.mark.parametrize(
        "bad",
        [lambda y: y + 0.5, lambda y: np.where(y == 0, 10, y), lambda y: y[:, :-1]],
        ids=["float", "past-C", "one-short-per-batch"],
    )
    def test_rejects_labels_that_are_not_classes(self, bad):
        # The second shift's labels are checked before its bincount.
        model, data = self._setup()
        data[1] = (data[1][0], bad(data[1][1]))
        with pytest.raises(ValueError, match="labels must"):
            run_protocol(model, data, "continual", EmPlugin, SgdConfig(lr=0.01))

    @pytest.mark.parametrize(
        "empty",
        [(np.zeros((0, 32, 2)), np.zeros((0, 32), dtype=np.int64)),
         (np.zeros((10, 0, 2)), np.zeros((10, 0), dtype=np.int64))],
        ids=["no-batches", "no-rows"],
    )
    def test_a_shift_with_no_rows_is_named(self, empty):
        model, data = self._setup()
        data[1] = empty
        with pytest.raises(ValueError, match="shift 1 has no rows"):
            run_protocol(model, data, "single_domain", EmPlugin, SgdConfig(lr=0.01))

    def test_a_stream_with_no_shifts_is_a_value_error(self):
        model, _ = self._setup()
        with pytest.raises(ValueError, match="no shifts"):
            run_protocol(model, [], "continual", EmPlugin, SgdConfig(lr=0.01))

    def test_holds_one_probability_matrix(self):
        # A shift of R rows and C classes costs one (R + 1) x C matrix,
        # plus a few per-row integers and floats while it is summarised;
        # holding the probabilities twice, as a per-batch list and its
        # concatenation, exceeds the bound.
        mix, model = _quick_source()
        spec = StreamSpec("single_domain", (ShiftSpec("rotate2d", 0.5),), 200, 64)
        data = make_stream(mix, spec, Rng(21))
        R, C = 200 * 64, model.C
        cfg = SgdConfig(lr=0.01, momentum=0.9)
        run_protocol(model, data, "single_domain", AdaDemPlugin, cfg)  # warm numpy's caches
        tracemalloc.start()
        try:
            run_protocol(model, data, "single_domain", AdaDemPlugin, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * R * C * 8 + 64 * 1024, peak

    def test_rejects_unknown_mode(self):
        model, data = self._setup()
        with pytest.raises(ValueError):
            run_protocol(model, data, "episodic", EmPlugin, SgdConfig(lr=0.0))
