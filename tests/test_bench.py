"""Tests for the synthetic shift benchmark, metrics, and protocols."""

import dataclasses
import functools
import importlib.util
import itertools
import math
import re
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import demkit.bench
import demkit.model
from demkit.bench import (
    LEVEL_MULTIPLIERS,
    STACK_BYTES,
    SHIFT_KINDS,
    MixtureSpec,
    ShiftSpec,
    Stream,
    StreamSpec,
    apply_shift,
    circle_means,
    kl_divergence,
    long_tail_priors,
    run_protocol,
    run_protocols,
    sample_batch,
    stack_size,
    _confusion,
    _report,
)
from demkit.cli import DEFAULT_CONFIG, load_config
from demkit.em_losses import DemConfig
from demkit.model import (
    AdaDemPlugin,
    DemPlugin,
    DivergenceError,
    EmPlugin,
    Mlp,
    SgdConfig,
    adapt_stream,
    forward,
    init_linear,
    init_mlp,
    train_source,
)
from demkit.numkit import Rng, as_matrix, softmax_rows, validated_labels

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _stream_spec(section: dict) -> StreamSpec:
    """The ``StreamSpec`` of a config's ``stream`` section."""
    shifts = tuple(ShiftSpec(**sh) for sh in section["shifts"])
    return StreamSpec(
        section["mode"], shifts, section["batches_per_shift"], section["batch_size"],
        section["label_rho"],
    )


# The default config's 10-class task: unit-sigma clusters on a radius-4 circle.
MIX = MixtureSpec(*(DEFAULT_CONFIG["mixture"][k] for k in ("C", "radius", "sigma")))
# The default config's settings, for the calls that take them.
INIT_SCALE = DEFAULT_CONFIG["source"]["init_scale"]
SOURCE_BATCH = DEFAULT_CONFIG["source"]["batch_size"]
STREAM_BATCH = DEFAULT_CONFIG["stream"]["batch_size"]
LABEL_RHO = DEFAULT_CONFIG["stream"]["label_rho"]
PI = DEFAULT_CONFIG["loss"]["pi"]
ADADEM = functools.partial(AdaDemPlugin, PI)


class TestGeometry:
    def test_circle_means_square(self):
        m = circle_means(4, 2.0)
        np.testing.assert_allclose(
            m, [[2, 0], [0, 2], [-2, 0], [0, -2]], atol=1e-14
        )

    @pytest.mark.parametrize("C", [2.5, 4.0, False, 1, 0])
    def test_circle_means_takes_an_integer_class_count_of_at_least_two(self, C):
        # circle_means(2.5, 1.0) used to return 3 means, not evenly spaced.
        with pytest.raises(ValueError, match="C must be an integer|C must be at least 2"):
            circle_means(C, 1.0)
        assert circle_means(np.int64(5), 1.0).tobytes() == circle_means(5, 1.0).tobytes()

    @pytest.mark.parametrize("radius", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_circle_means_refuses_the_radii_the_mixture_refuses(self, radius):
        # circle_means(3, nan) used to return NaN means.
        message = re.escape(f"radius must be positive and finite, got {radius}")
        with pytest.raises(ValueError, match=message):
            circle_means(3, radius)
        with pytest.raises(ValueError, match=message):
            MixtureSpec(3, radius, 1.0)

    def test_circle_means_radius(self):
        m = circle_means(10, 4.0)
        np.testing.assert_allclose(np.linalg.norm(m, axis=1), 4.0, atol=1e-12)

    def test_default_mixture(self):
        assert (MIX.C, MIX.d, MIX.radius, MIX.sigma) == (10, 2, 4.0, 1.0)
        np.testing.assert_allclose(np.linalg.norm(MIX.means, axis=1), 4.0, atol=1e-12)

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
            (3, math.inf, 1.0), (3, 1.0, math.inf),
            (3.0, 1.0, 1.0), (True, 1.0, 1.0), (np.float64(3.0), 1.0, 1.0),
        ]:
            with pytest.raises(ValueError):
                MixtureSpec(C=C, radius=radius, sigma=sigma)
        with pytest.raises(ValueError, match="C must be an integer, got 3.0"):
            MixtureSpec(C=3.0, radius=1.0, sigma=1.0)
        assert MixtureSpec(C=np.int64(3), radius=1.0, sigma=1.0) == MixtureSpec(3, 1.0, 1.0)


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

    @pytest.mark.parametrize("C", [3.5, 3.0, True, np.float64(3.0)])
    def test_class_count_must_be_an_integer(self, C):
        # long_tail_priors(3.5, 2.0) used to return 4 priors.
        with pytest.raises(ValueError, match=re.escape(f"C must be an integer, got {C!r}")):
            long_tail_priors(C, 2.0)
        assert long_tail_priors(np.int64(3), 2.0).tobytes() == long_tail_priors(3, 2.0).tobytes()


class TestSampleBatch:
    def test_deterministic(self):
        Xa, ya = sample_batch(MIX, np.full(10, 0.1), 32, Rng(5))
        Xb, yb = sample_batch(MIX, np.full(10, 0.1), 32, Rng(5))
        np.testing.assert_array_equal(Xa, Xb)
        np.testing.assert_array_equal(ya, yb)

    def test_one_hot_prior_fixes_labels(self):
        prior = np.zeros(10)
        prior[7] = 1.0
        _, y = sample_batch(MIX, prior, 50, Rng(1))
        assert np.all(y == 7)

    def test_tiny_sigma_recovers_means(self):
        mix = MixtureSpec(C=3, radius=2.0, sigma=1e-9)
        X, y = sample_batch(mix, np.full(3, 1 / 3), 100, Rng(2))
        np.testing.assert_allclose(X, circle_means(3, 2.0)[y], atol=1e-7)

    def test_label_frequencies_follow_priors(self):
        priors = long_tail_priors(10, 10.0)
        _, y = sample_batch(MIX, priors, 100_000, Rng(3))
        freq = np.bincount(y, minlength=10) / y.shape[0]
        np.testing.assert_allclose(freq, priors, atol=0.01)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            sample_batch(MIX, np.full(10, 0.1), 0, Rng(0))

    @pytest.mark.parametrize(
        "n, message",
        [(3.0, "n must be an integer, got 3.0"), (True, "n must be an integer, got True"),
         (np.float64(3.0), "n must be an integer"), (-2, "n must be at least 1, got -2")],
        ids=["float", "bool", "numpy-float", "negative"],
    )
    def test_takes_an_integer_sample_count(self, n, message):
        with pytest.raises(ValueError, match=message):
            sample_batch(MIX, np.full(10, 0.1), n, Rng(0))


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
        # ShiftSpec("rotate2d", 0.5, 2.0) would equal the spec at level 2
        # yet key its data "2.0", drawing other inputs; True would be
        # level 1 under the key "True".
        for level in (2.0, True, np.float64(2.0)):
            with pytest.raises(ValueError, match="level must be an integer"):
                ShiftSpec("rotate2d", 0.5, level)
        # A finite magnitude that its level's multiplier overflows is refused
        # with a message naming the shift, not left to the shift's arithmetic.
        for kind in SHIFT_KINDS:
            for magnitude, level, shown in [(1e308, 5, "1e+308"), (-1e308, 4, "-1e+308")]:
                message = f"{kind} at magnitude {shown}, level {level}: "
                with pytest.raises(ValueError, match=re.escape(message) + "the effective"):
                    ShiftSpec(kind, magnitude, level)
            assert ShiftSpec(kind, 1e308, 2).effective_magnitude == 1e308

    def test_equal_specs_share_one_key(self):
        a = ShiftSpec("rotate2d", 0.5, 2)
        for level in (np.int64(2), np.int32(2), np.uint8(2)):
            b = ShiftSpec("rotate2d", 0.5, level)
            assert a == b and a.key(1) == b.key(1) == "rotate2d|0.5|2|1"

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
            StreamSpec("episodic", (shift,), 5, STREAM_BATCH, LABEL_RHO)
        with pytest.raises(ValueError):
            StreamSpec("single_domain", (), 5, STREAM_BATCH, LABEL_RHO)
        with pytest.raises(ValueError):
            StreamSpec("continual", (shift,), 5, STREAM_BATCH, LABEL_RHO)  # needs two or more
        with pytest.raises(ValueError):
            StreamSpec("single_domain", (shift,), 0, STREAM_BATCH, LABEL_RHO)
        with pytest.raises(ValueError):
            StreamSpec("single_domain", (shift,), 5, 0, LABEL_RHO)
        for rho in (0.5, 1.0 - 1e-12, -1.0, math.nan):
            with pytest.raises(ValueError):
                StreamSpec("single_domain", (shift,), 5, STREAM_BATCH, rho)
        for bad in (5.0, True, np.float64(5.0)):
            with pytest.raises(ValueError, match="batches_per_shift must be an integer"):
                StreamSpec("single_domain", (shift,), bad, STREAM_BATCH, LABEL_RHO)
            with pytest.raises(ValueError, match="batch_size must be an integer"):
                StreamSpec("single_domain", (shift,), 5, bad, LABEL_RHO)
        spec = StreamSpec("single_domain", (shift,), np.int64(5), np.int32(16), LABEL_RHO)
        assert spec == StreamSpec("single_domain", (shift,), 5, 16, LABEL_RHO)

    def test_default_tasks(self):
        # The default config's stream and the continual config's.
        single = _stream_spec(DEFAULT_CONFIG["stream"])
        assert single.mode == "single_domain"
        assert len(single.shifts) == 3
        assert all(s.kind == "rotate2d" and s.magnitude == 0.5 for s in single.shifts)
        assert (single.batches_per_shift, single.batch_size) == (60, 64)

        cont = _stream_spec(load_config(str(CONFIGS / "continual_adadem.json"))["stream"])
        assert cont.mode == "continual"
        assert [s.magnitude for s in cont.shifts] == [0.45, 0.50, 0.55]
        assert all(s.kind == "rotate2d" for s in cont.shifts)
        assert (cont.batches_per_shift, cont.batch_size) == (60, 64)


class TestMakeStream:
    """Making a :class:`Stream`: what it draws, and what it refuses."""

    def test_shapes(self):
        spec = StreamSpec("single_domain", (ShiftSpec("translate", 1.0),), 4, 16, LABEL_RHO)
        data = list(Stream(MIX, spec, Rng(0)))
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
        data = Stream(MIX, spec, Rng(7))
        for (X, y), shift, occurrence in zip(data, spec.shifts, (0, 0, 1)):
            srng = Rng(7).derive(shift.key(occurrence))
            for i in range(5):
                Xb, yb = sample_batch(MIX, priors, 24, srng)
                assert X[i].tobytes() == apply_shift(Xb, shift, srng).tobytes()
                assert y[i].tobytes() == yb.tobytes()

    def test_repeated_shift_gets_fresh_data(self):
        shift = ShiftSpec("rotate2d", 0.5)
        spec = StreamSpec("single_domain", (shift, shift), 2, 16, LABEL_RHO)
        data = list(Stream(MIX, spec, Rng(0)))
        assert not np.array_equal(data[0][0], data[1][0])

    def test_reordering_shifts_permutes_data(self):
        a, b = ShiftSpec("translate", 1.0), ShiftSpec("rotate2d", 0.5)
        ab, ba = (StreamSpec("single_domain", pair, 3, 16, LABEL_RHO) for pair in ((a, b), (b, a)))
        d_ab, d_ba = list(Stream(MIX, ab, Rng(0))), list(Stream(MIX, ba, Rng(0)))
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
        spec = StreamSpec("single_domain", (shift,), 4, 16, rho)
        X, y = list(Stream(mix, spec, Rng(3)))[0]
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
        data = list(Stream(MIX, spec, Rng(0)))
        assert np.all(data[0][1] == 0)

    def test_each_pass_draws_the_same_bits(self):
        noise = ShiftSpec("feature_noise", 1.0, 3)
        spec = StreamSpec("continual", (noise, ShiftSpec("rotate2d", 0.5), noise), 5, 24, 10.0)
        stream = Stream(MIX, spec, Rng(7))
        assert len(stream) == 3 and stream.spec is spec
        passes = [[(X.tobytes(), y.tobytes()) for X, y in stream] for _ in range(2)]
        assert passes[0] == passes[1]

    @pytest.mark.parametrize("mode", ["single_domain", "continual"])
    def test_leading_batches_are_each_shifts_first(self, monkeypatch, mode):
        # Repeated identical shifts each draw from their own generator, and
        # a prefix draws nothing past its k batches of each shift.
        noise, rotation = ShiftSpec("feature_noise", 1.0, 3), ShiftSpec("rotate2d", 0.5)
        spec = StreamSpec(mode, (noise, rotation, noise, noise), 7, 16, label_rho=3.0)
        stream = Stream(MIX, spec, Rng(5))
        full = list(stream)
        draws, draw = [], demkit.bench.sample_batch
        monkeypatch.setattr(demkit.bench, "sample_batch", lambda *a: draws.append(1) or draw(*a))
        for k in (1, 3, 7):
            lead = stream.leading(k)
            assert lead.spec == dataclasses.replace(spec, batches_per_shift=k)
            del draws[:]
            got = list(lead)
            assert len(draws) == 4 * k and len(got) == len(full)
            for (X, y), (X_full, y_full) in zip(got, full):
                assert X.tobytes() == X_full[:k].tobytes() and y.tobytes() == y_full[:k].tobytes()
        for k in (0, 8):
            with pytest.raises(ValueError, match="leading batches"):
                stream.leading(k)


    # The overflow cases of the CLI's test of the same checks, as library
    # objects: each is refused with the CLI's message.
    ONE_SHIFT = ShiftSpec("rotate2d", 0.4)
    OVERFLOWS = {
        "scale": (MIX, ShiftSpec("feature_scale", 1e308, 2),
                  "feature_scale at magnitude 1e+308, level 2: the inputs can overflow"),
        "negative-scale": (MIX, ShiftSpec("feature_scale", -1e308, 2),
                           "feature_scale at magnitude -1e+308, level 2: the inputs can overflow"),
        "noise": (MIX, ShiftSpec("feature_noise", 1e308, 2),
                  "feature_noise at magnitude 1e+308, level 2: the inputs can overflow"),
        "sigma": (MixtureSpec(5, 4.0, 1e308), ONE_SHIFT,
                  "mixture at radius 4, sigma 1e+308: the inputs can overflow"),
    }

    @pytest.mark.parametrize("case", list(OVERFLOWS))
    def test_inputs_that_can_overflow_are_refused(self, case):
        mix, shift, message = self.OVERFLOWS[case]
        spec = StreamSpec("single_domain", (shift,), 3, 16, LABEL_RHO)
        with pytest.raises(ValueError) as built:
            Stream(mix, spec, Rng(0))
        assert str(built.value) == message
        # leading(k) builds a new Stream, so a stream that skipped the
        # check, made without __init__, does not hand it to its prefix.
        unchecked = object.__new__(Stream)
        for name, value in (("mix", mix), ("spec", spec), ("rng", Rng(0))):
            object.__setattr__(unchecked, name, value)
        with pytest.raises(ValueError) as led:
            unchecked.leading(1)
        assert str(led.value) == message

    @pytest.mark.parametrize(
        "mix, shift",
        [
            (MIX, ShiftSpec("feature_scale", 1e306, 5)),
            (MIX, ShiftSpec("feature_noise", 1e306, 5)),
            (MixtureSpec(5, 4.0, 1e307), ONE_SHIFT),
        ],
        ids=["scale", "noise", "sigma"],
    )
    def test_inputs_with_a_finite_bound_are_drawn_finite(self, mix, shift):
        spec = StreamSpec("single_domain", (shift,), 3, 16, LABEL_RHO)
        for stream in (Stream(mix, spec, Rng(0)), Stream(mix, spec, Rng(0)).leading(2)):
            assert all(np.isfinite(X).all() for X, _ in stream)

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


def metrics(probs, labels):
    """The oracle that the protocols' reports are checked against: the
    :class:`MetricsReport` of a block of probability rows ``probs`` and
    true ``labels``, scored on the rows themselves.

    ``labels`` must hold one integer in ``[0, C)`` per row
    (``ValueError`` otherwise).
    """
    P = as_matrix(probs)
    if P.shape[0] == 0:
        raise ValueError("probs and labels must be nonempty")
    n, C = P.shape
    y = validated_labels(labels, (n,), C)
    # Gathering P at its argmax gives the bits of np.max(P, axis=1).
    codes = np.argmax(P, axis=1)
    sums = np.add.reduce(np.column_stack((P, P[np.arange(n), codes])), axis=0)
    return _report(_confusion(codes, y, C), sums)


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
        # metrics reads P through its column sums and the sum of its row
        # maxima; each field still has the bits of its formula over the
        # whole matrix.  The mean row maximum is an in-order sum over n,
        # the order every column sum follows, not np.mean's pairwise one.
        rng = np.random.default_rng(8)
        for n, C in ((1, 2), (77, 3), (3000, 10)):
            P = rng.dirichlet(np.full(C, 0.4), size=n)
            y = rng.integers(0, C, n)
            rep = metrics(P, y)
            marginal = P.mean(axis=0)
            entropy = -np.sum(np.where(marginal > 0, marginal * np.log(marginal), 0.0))
            assert rep.accuracy == float(np.mean(np.argmax(P, axis=1) == y))
            assert rep.avg_max_prob == float(np.cumsum(np.max(P, axis=1))[-1] / n)
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
    """One shift's pre-update probabilities: ``adapt_stream`` of the
    one-model stack of ``model`` over its inputs ``X``, each batch copied
    by the scoring hook into a fresh array of the shift's rows; ``model``
    moves as the stack moved."""
    B, n = X.shape[:2]
    theta, probs = np.stack([model.theta]), np.empty((B, n, model.C))

    def score(i, P):
        probs[i] = P[0]

    assert adapt_stream(model, theta, X, [plugin], [cfg], score) == [None]
    model.theta[:] = theta[0]
    return probs.reshape(B * n, model.C)


def _assert_same_summaries(got, want):
    """Two :class:`ProtocolResult` keep the same bits in their counts and
    sums, per shift and in ``total``."""
    for name in ("confusion", "sums"):
        a, b = getattr(got, name), getattr(want, name)
        assert [x.tobytes() for x in a] == [y.tobytes() for y in b], name
    assert got.total.tobytes() == want.total.tobytes()


def _quick_source(seed=0):
    """A small linear source model for protocol-level tests."""
    rng = Rng(seed)
    X, y = sample_batch(MIX, np.full(10, 0.1), 2000, rng.derive("data"))
    model = init_linear(10, 2)
    train_source(model, X, y, 3, SgdConfig(lr=0.5), rng.derive("train"), SOURCE_BATCH)
    return MIX, model


class TestSeverityScaling:
    def test_feature_noise_levels_degrade_monotonically(self):
        mix, model = _quick_source()
        accs = []
        for level in range(1, 6):
            spec = StreamSpec(
                "single_domain", (ShiftSpec("feature_noise", 1.0, level),), 20, 64, LABEL_RHO
            )
            data = Stream(mix, spec, Rng(11))
            accs.append(run_protocol(model, data, spec.mode, EmPlugin, SgdConfig(lr=0.0)).accuracy)
        for lo, hi in zip(accs[1:], accs[:-1]):
            assert lo <= hi + 0.01  # nonincreasing up to sampling noise
        assert accs[0] - accs[4] >= 0.10


class TestRunProtocol:
    def _setup(self):
        mix, model = _quick_source()
        a, b = ShiftSpec("rotate2d", 0.5), ShiftSpec("translate", 2.0)
        data = Stream(mix, StreamSpec("single_domain", (a, b), 10, 32, LABEL_RHO), Rng(21))
        return model, data

    def test_zero_lr_matches_baseline(self):
        # `run` scores its baseline with the config's own mode and plugin at
        # lr = 0; every such pair gives the same scores to the bit.
        model, data = self._setup()
        cfg = SgdConfig(lr=0.0, momentum=0.9)
        ref = run_protocol(model, data, "single_domain", EmPlugin, cfg)
        for mode in ("single_domain", "continual"):
            for factory in (EmPlugin, ADADEM):
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
        d_ab = Stream(mix, StreamSpec("single_domain", (a, b), 10, 32, LABEL_RHO), Rng(21))
        d_ba = Stream(mix, StreamSpec("single_domain", (b, a), 10, 32, LABEL_RHO), Rng(21))
        r_ab = run_protocol(model, d_ab, "single_domain", EmPlugin, cfg)
        r_ba = run_protocol(model, d_ba, "single_domain", EmPlugin, cfg)
        assert r_ab.per_shift[0].accuracy == r_ba.per_shift[1].accuracy
        assert r_ab.per_shift[1].accuracy == r_ba.per_shift[0].accuracy

    def test_continual_is_order_dependent(self):
        mix, model = _quick_source()
        a, b = ShiftSpec("rotate2d", 0.5), ShiftSpec("translate", 2.0)
        cfg = SgdConfig(lr=0.05, momentum=0.9)
        d_ab = Stream(mix, StreamSpec("continual", (a, b), 10, 32, LABEL_RHO), Rng(21))
        d_ba = Stream(mix, StreamSpec("continual", (b, a), 10, 32, LABEL_RHO), Rng(21))
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
        data = list(data)
        cfg = SgdConfig(lr=0.01)
        expected = run_protocol(model, data, "continual", EmPlugin, cfg)

        def no_forward(*args, **kwargs):
            raise AssertionError("a forward pass called by run_protocol")

        seen = []

        def inputs_only(arch, theta, X, *args):
            seen.append(X)
            return adapt_stream(arch, theta, X, *args)

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

        def counting(confusion, sums):
            calls.append(len(sums))
            return report(confusion, sums)

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

        def counting(confusion, sums):
            calls.append(len(sums))
            return report(confusion, sums)

        report = demkit.bench._report
        monkeypatch.setattr(demkit.bench, "_report", counting)
        res = run_protocol(model, data, mode, ADADEM, SgdConfig(lr=0.05, momentum=0.9))
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
        factories = (ADADEM, EmPlugin, functools.partial(DemPlugin, DemConfig(0.8, 1.2)))
        for label_rho in (1.0, 10.0):
            spec = StreamSpec("single_domain", shifts, 10, 32, label_rho=label_rho)
            data = Stream(mix, spec, Rng(21))
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
        # A finished result, its reports read, holds no array with a
        # per-row axis: per shift a C x C confusion count and C + 1 sums,
        # overall C + 1 sums.
        model, data = self._setup()
        res = run_protocol(model, data, mode, ADADEM, SgdConfig(lr=0.05, momentum=0.9))
        res.per_shift, res.overall, res.accuracy
        rows = [y.size for _, y in data]
        C = model.C
        arrays = []
        for value in vars(res).values():
            for item in value if isinstance(value, list) else [value]:
                if isinstance(item, np.ndarray):
                    arrays.append(item)
        assert sorted(A.shape for A in arrays if A.size > C + 1) == [(C, C)] * len(data)
        assert [c.shape for c in res.confusion] == [(C, C)] * len(data)
        assert [int(c.sum()) for c in res.confusion] == rows
        assert [s.shape for s in res.sums] == [(C + 1,)] * len(data)
        assert res.total.shape == (C + 1,)

    def test_continual_resets_momentum_at_every_shift(self):
        # The model and the plugin (here AdaDEM's calibrator) carry over
        # between shifts; the optimizer's velocity does not, alone or in a
        # stack of protocols.
        mix, model = _quick_source()
        a, b = ShiftSpec("rotate2d", 0.5), ShiftSpec("translate", 2.0)
        data = list(Stream(mix, StreamSpec("continual", (a, b), 10, 32, LABEL_RHO), Rng(21)))
        cfg = SgdConfig(lr=0.05, momentum=0.9)
        res = run_protocol(model, data, "continual", ADADEM, cfg)
        factories = [functools.partial(AdaDemPlugin, pi) for pi in (0.3, 0.1, 0.2)]
        stacked = run_protocols(model, data, "continual", factories, [cfg] * 3)

        def accuracy(probs, y):
            return metrics(probs, y.reshape(-1)).accuracy

        def per_call_accuracies(factory):
            adapted, plugin = model.copy(), factory()
            return [accuracy(_shift_probs(adapted, X, plugin, cfg), y) for X, y in data]

        per_call = per_call_accuracies(ADADEM)
        assert [rep.accuracy for rep in res.per_shift] == per_call
        for factory, run in zip(factories, stacked):
            assert [rep.accuracy for rep in run.per_shift] == per_call_accuracies(factory)
        assert [rep.accuracy for rep in stacked[1].per_shift] == per_call

        both = np.concatenate([data[0][0], data[1][0]])
        probs = _shift_probs(model.copy(), both, AdaDemPlugin(PI), cfg)
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
        data = list(data)
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
        data = list(data)
        data[1] = empty
        with pytest.raises(ValueError, match="shift 1 has no rows"):
            run_protocol(model, data, "single_domain", EmPlugin, SgdConfig(lr=0.01))

    def test_a_stream_with_no_shifts_is_a_value_error(self):
        model, _ = self._setup()
        with pytest.raises(ValueError, match="no shifts"):
            run_protocol(model, [], "continual", EmPlugin, SgdConfig(lr=0.01))

    def test_holds_one_batch_of_probabilities(self):
        # A protocol scores each batch as it is predicted and holds no
        # shift of probabilities, nor a float per row: its traced peak,
        # reports and all, does not grow with the shift.
        mix, model = _quick_source()
        cfg = SgdConfig(lr=0.01, momentum=0.9)
        peaks = {}
        for B in (200, 400):
            spec = StreamSpec("single_domain", (ShiftSpec("rotate2d", 0.5),), B, 64, LABEL_RHO)
            data = list(Stream(mix, spec, Rng(21)))  # drawn outside the traced call
            run_protocol(model, data, "single_domain", ADADEM, cfg)  # warm numpy's caches
            tracemalloc.start()
            try:
                (run,) = run_protocols(model, data, "single_domain", [ADADEM], [cfg])
                run.per_shift, run.overall
                peaks[B] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[200] < 96 * 1024, peaks
        assert abs(peaks[400] - peaks[200]) < 1024, peaks

    def test_holds_one_shift_of_the_stream(self):
        # A pass draws each shift when it reaches it and lets it go before
        # the next: its traced peak, the drawing included, does not grow
        # with the number of equal shifts, and stays below two shifts'
        # inputs and labels (one shift and the protocol's own memory).
        mix, model = _quick_source()
        cfg = SgdConfig(lr=0.01, momentum=0.9)
        B, n = 120, 64
        shift_bytes = B * n * (mix.d + 1) * 8
        peaks = {}
        for count in (2, 8):
            spec = StreamSpec("continual", (ShiftSpec("rotate2d", 0.5),) * count, B, n, LABEL_RHO)
            run_protocols(model, Stream(mix, spec, Rng(21)), spec.mode, [ADADEM], [cfg])
            tracemalloc.start()
            try:
                stream = Stream(mix, spec, Rng(21))
                run_protocols(model, stream, spec.mode, [ADADEM], [cfg])
                peaks[count] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert abs(peaks[8] - peaks[2]) < 16 * 1024, peaks
        assert peaks[2] < 2 * shift_bytes, peaks

    def test_lowest_diverged_protocol_raises_its_own_shift_and_batch(self):
        # Protocol 2 diverges first in time (shift 0, batch 1) and protocol
        # 1 later (shift 1, batch 3); each entry is its own error, and the
        # others are the results they give alone.  Raising the entries in
        # order, as grid-search and run do, raises protocol 1's, as running
        # the protocols one by one would.  A diverged protocol's plugin is
        # not called again.
        model, data = self._setup()
        calls = [0] * 4
        fail_at = {1: 10 + 3, 2: 1}  # a protocol's call index that returns inf

        class Failing:
            def __init__(self, k):
                self.k = k

            def batch_eval(self, Z, P):
                grads = EmPlugin().batch_eval(Z, P)
                if fail_at.get(self.k) == calls[self.k]:
                    grads[0, 0] = np.inf
                calls[self.k] += 1
                return grads

        factories = [functools.partial(Failing, k) for k in range(4)]
        cfg = SgdConfig(lr=0.01)
        runs = run_protocols(model, data, "single_domain", factories, [cfg] * 4)
        assert calls == [20, 14, 2, 20]
        assert [(e.stage, e.shift, e.batch) for e in runs[1:3]] == [
            ("loss gradients", 1, 3), ("loss gradients", 0, 1)
        ]
        alone = run_protocol(model, data, "single_domain", EmPlugin, cfg)
        for run in (runs[0], runs[3]):
            _assert_same_summaries(run, alone)
        with pytest.raises(DivergenceError) as info:
            [demkit.bench.succeeded(run) for run in runs]
        assert info.value is runs[1]
        assert str(info.value) == (
            "adaptation diverged at shift 1, batch 3: non-finite loss gradients"
        )

    def test_needs_a_plugin_factory(self):
        model, data = self._setup()
        with pytest.raises(ValueError, match="at least one plugin factory"):
            run_protocols(model, data, "continual", [], [])

    @pytest.mark.parametrize("count", [1, 3])
    def test_needs_one_sgd_config_per_factory(self, count):
        model, data = self._setup()
        with pytest.raises(ValueError, match=f"one SgdConfig per plugin factory, 2, got {count}"):
            run_protocols(model, data, "continual", [EmPlugin] * 2, [SgdConfig(lr=0.01)] * count)

    def test_rejects_unknown_mode(self):
        model, data = self._setup()
        with pytest.raises(ValueError):
            run_protocol(model, data, "episodic", EmPlugin, SgdConfig(lr=0.0))


class TestStackedProtocols:
    """``run_protocols`` against one ``run_protocol`` per factory."""

    @staticmethod
    def _sources():
        mix, linear = _quick_source()
        rng = Rng(4)
        X, y = sample_batch(mix, np.full(10, 0.1), 2000, rng.derive("data"))
        mlp = init_mlp(10, 2, 12, rng.derive("init"), INIT_SCALE)
        cfg = SgdConfig(lr=0.2, momentum=0.9)
        train_source(mlp, X, y, 3, cfg, rng.derive("train"), SOURCE_BATCH)
        return mix, {"linear": linear, "mlp": mlp}

    @staticmethod
    def _recorded_thetas(monkeypatch):
        """The stack's parameters after each ``adapt_stream`` call that
        ``run_protocols`` makes, in order."""
        thetas, adapt = [], demkit.bench.adapt_stream

        def recording(model, theta, *args):
            errors = adapt(model, theta, *args)
            thetas.append(theta.copy())
            return errors

        monkeypatch.setattr(demkit.bench, "adapt_stream", recording)
        return thetas

    @pytest.mark.parametrize("arch", ["linear", "mlp"])
    @pytest.mark.parametrize("mode", ["single_domain", "continual"])
    def test_each_protocol_keeps_the_bits_of_its_own_run(self, monkeypatch, mode, arch):
        # Final parameters (per shift in single-domain mode), confusion
        # counts, sums and totals, at K = 2 and for a stack of every
        # factory, mixing losses and DEM points.
        mix, sources = self._sources()
        model = sources[arch]
        shifts = (ShiftSpec("rotate2d", 0.5), ShiftSpec("translate", 2.0))
        data = Stream(mix, StreamSpec(mode, shifts, 6, 24, label_rho=3.0), Rng(8))
        cfg = SgdConfig(lr=0.05, momentum=0.9)
        factories = [
            functools.partial(DemPlugin, DemConfig(0.7, 1.3)),
            ADADEM,
            functools.partial(DemPlugin, DemConfig(1.0, 1.0)),
            EmPlugin,
            functools.partial(DemPlugin, DemConfig(1.5, 0.0)),
        ]
        thetas = self._recorded_thetas(monkeypatch)
        alone = []
        for factory in factories:
            del thetas[:]
            run = run_protocol(model, data, mode, factory, cfg)
            alone.append((run, [theta[0].tobytes() for theta in thetas]))
        for group in (factories[:2], factories):
            del thetas[:]
            runs = run_protocols(model, data, mode, group, [cfg] * len(group))
            assert len(runs) == len(group) and len(thetas) == len(shifts)
            for k, (run, (ref, shift_thetas)) in enumerate(zip(runs, alone)):
                assert [theta[k].tobytes() for theta in thetas] == shift_thetas
                _assert_same_summaries(run, ref)
                assert run.accuracy == ref.accuracy

    def test_stack_size_bounds_the_memory_stacking_adds(self, monkeypatch):
        # On the grid-continual-dem subset's shapes (C = 10, 32 hidden
        # units, 3 shifts of 12 batches of 64 rows) the budget stacks 11
        # protocols, and their traced peak exceeds one protocol's by less
        # than the budget.  A protocol holds no row of a shift, so the
        # long lr-sweep stream (5 shifts of 120 batches) stacks 11 too,
        # and its baseline and ten rates run as one stack.
        model = init_mlp(10, 2, 32, Rng(1), INIT_SCALE)
        ladder = tuple(ShiftSpec("rotate2d", r) for r in (0.45, 0.5, 0.55))
        data = Stream(MIX, StreamSpec("continual", ladder, 12, 64, LABEL_RHO), Rng(2))
        K = stack_size(model, data.spec)
        assert K == 11
        factories = [functools.partial(DemPlugin, DemConfig(1.0, 1.0))] * K
        cfg = SgdConfig(lr=0.025, momentum=0.9)
        run_protocols(model, data, "continual", factories, [cfg] * K)  # warm numpy's caches
        peaks = []
        for group in (factories[:1], factories):
            tracemalloc.start()
            try:
                run_protocols(model, data, "continual", group, [cfg] * len(group))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert 0 < peaks[1] - peaks[0] < STACK_BYTES, peaks

        long = tuple(ShiftSpec("rotate2d", r) for r in (0.4, 0.45, 0.5, 0.55, 0.6))
        spec = StreamSpec("continual", long, 120, 64, label_rho=10.0)
        assert stack_size(model, spec) == 11
        monkeypatch.setattr(demkit.bench, "STACK_BYTES", 1)
        assert stack_size(model, data.spec) == 1

    def test_stack_size_keeps_its_per_protocol_formula(self):
        # The formula stack_size held before model.step_bytes counted the
        # step's share, inlined; both give every spec the same size.
        def formula(model, spec):
            C, P = model.C, model.theta.size
            h = model.W1.shape[0] if isinstance(model, Mlp) else 0
            n, shifts = spec.batch_size, len(spec.shifts)
            floats = n * C + (n + 1) * (C + 1) + n * (2 * C + h + 1) + 4 * P
            floats += shifts * (C * C + C + 1) + C + 1
            return max(1, STACK_BYTES // (8 * floats + n * (h + 2 * C)))

        sizes = set()
        for C, hidden in itertools.product((2, 10, 37, 1000), (None, 1, 32, 1024)):
            if hidden is None:
                model = init_linear(C, 2)
            else:
                model = init_mlp(C, 2, hidden, Rng(C), INIT_SCALE)
            for n, shifts in itertools.product((1, 16, 64, 500), (1, 3, 9)):
                spec = StreamSpec("single_domain", (ShiftSpec("translate"),) * shifts, 2, n, 1.0)
                assert stack_size(model, spec) == formula(model, spec), (C, hidden, n, shifts)
                sizes.add(stack_size(model, spec))
        assert len(sizes) > 10 and 1 in sizes  # the grid reaches the floor and spreads

    @pytest.mark.parametrize("workload", ["grid-continual-dem", "lrsweep-adadem-long"])
    def test_the_protocol_workloads_stack_eleven(self, workload):
        # The benchmark's protocol workloads: grid runs its points eleven
        # to a call, and lr-sweep its baseline and ten rates as one stack.
        path = PERFBENCH / "workloads.py"
        module_spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
        workloads = importlib.util.module_from_spec(module_spec)
        sys.modules[module_spec.name] = workloads  # dataclasses look their module up
        module_spec.loader.exec_module(workloads)
        cfg = workloads.WORKLOADS[workload](0).config
        C = cfg.get("mixture", DEFAULT_CONFIG["mixture"])["C"]
        model = init_mlp(C, 2, cfg["source"]["hidden"], Rng(0), INIT_SCALE)
        spec = _stream_spec({**DEFAULT_CONFIG["stream"], **cfg["stream"]})
        assert stack_size(model, spec) == 11


def _assert_reports_equal(got, want, context):
    for field in dataclasses.fields(want):
        a, b = getattr(got, field.name), getattr(want, field.name)
        assert np.array_equal(a, b) and np.asarray(a).tobytes() == np.asarray(b).tobytes(), (
            context, field.name
        )


class TestPerBatchScoring:
    """``run_protocols`` scores each batch as it is predicted; its
    summaries keep the bits ``metrics`` gives on the whole matrices."""

    def test_per_batch_summaries_give_the_bits_of_metrics(self):
        # Random probabilities: C 2-39, 1-129 batches of 1-69 rows per
        # shift, one to three shifts and stacked protocols.
        rng = np.random.default_rng(12)
        for case in range(40):
            C, K, S = (int(rng.integers(lo, hi)) for lo, hi in ((2, 40), (1, 4), (1, 4)))
            shapes = [(int(rng.integers(1, 130)), int(rng.integers(1, 70))) for _ in range(S)]
            scale = float(rng.choice([0.1, 3.0, 30.0]))
            data = [
                (softmax_rows(scale * rng.standard_normal((B * K * n, C))).reshape(B, K, n, C),
                 rng.integers(0, C, (B, n)))
                for B, n in shapes
            ]
            tally = demkit.bench._Tally(K, C)
            for P, y in data:
                # one buffer overwritten by every batch, as adapt_stream hands it
                score, probs = tally.shift(y), np.empty(P.shape[1:])
                for i, batch in enumerate(P):
                    probs[...] = batch
                    score(i, probs)
            for k in range(K):
                run = tally.result(k)
                shifts = [(P[:, k].reshape(-1, C), y.reshape(-1)) for P, y in data]
                for got, (P, y) in zip(run.per_shift, shifts):
                    _assert_reports_equal(got, metrics(P, y), (case, k))
                whole = metrics(*(np.concatenate(a) for a in zip(*shifts)))
                _assert_reports_equal(run.overall, whole, (case, k))
                assert run.accuracy == whole.accuracy

    @pytest.mark.parametrize("mode", ["single_domain", "continual"])
    def test_stacked_protocols_on_random_streams(self, mode):
        # Random stream shapes through a stack of two losses: every field
        # of every report has the bits of metrics on the probabilities of
        # the protocol's own one-model run.
        rng = np.random.default_rng(13 if mode == "continual" else 14)
        cfg = SgdConfig(lr=0.05, momentum=0.9)
        factories = (ADADEM, EmPlugin)
        for case in range(4):
            C, B, n = int(rng.integers(2, 40)), int(rng.integers(1, 130)), int(rng.integers(1, 70))
            mix = MixtureSpec(C, 4.0, 1.0)
            shifts = (ShiftSpec("rotate2d", 0.5), ShiftSpec("translate", 1.0))
            data = Stream(mix, StreamSpec(mode, shifts, B, n, LABEL_RHO), Rng(case))
            model = init_linear(C, 2, Rng(case), scale=0.5)
            runs = run_protocols(model, data, mode, factories, [cfg] * 2)
            for factory, run in zip(factories, runs):
                probs, labels, adapted = [], [], None
                for X, y in data:
                    if adapted is None or mode == "single_domain":
                        adapted, plugin = model.copy(), factory()
                    probs.append(_shift_probs(adapted, X, plugin, cfg))
                    labels.append(y.reshape(-1))
                for got, P, y in zip(run.per_shift, probs, labels):
                    _assert_reports_equal(got, metrics(P, y), (case, C, B, n))
                whole = metrics(np.concatenate(probs), np.concatenate(labels))
                _assert_reports_equal(run.overall, whole, (case, C, B, n))
