"""Tests for the loss family: frozen oracles, identities, and gradients.

Reference numbers were precomputed with mpmath at 50 decimal digits and
frozen here; gradient checks compare against the central finite-difference
oracle in numkit.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demkit.cli import REWARD_CURVE_HEADER
from demkit.em_losses import (
    ConfigError,
    DemConfig,
    boundary_second_derivative,
    cadf,
    cadf_reward,
    cadf_tempered_eval,
    conditional_entropy,
    dem_eval,
    dem_row_values,
    dem_rows,
    detached_em_eval,
    em_eval,
    em_row_values,
    em_rows,
    gmc,
    gmc_reward,
    reward_curve,
    validate_config,
)
from demkit import em_losses, model, numkit
from demkit.numkit import finite_diff_grad, logsumexp_rows, rel_err, softmax, softmax_rows

Z123 = np.array([1.0, 2.0, 3.0])

logit_vectors = st.lists(
    st.floats(min_value=-20, max_value=20), min_size=2, max_size=10
)


class TestConditionalEntropy:
    def test_reference_value(self):
        assert abs(conditional_entropy(Z123) - 0.8323955818399389) < 1e-15

    def test_uniform_gives_log_C(self):
        for C in (2, 10, 50):
            assert abs(conditional_entropy(np.zeros(C)) - math.log(C)) < 1e-12

    def test_confident_logits_give_near_zero_entropy(self):
        z = np.array([50.0, 0.0, 0.0])
        assert 0.0 <= conditional_entropy(z) < 1e-12

    @pytest.mark.parametrize(
        "z",
        [[1000.0, 0.0], [0.0, 1000.0], [1000.0, 0.0, 0.0], [-800.0, 800.0, 0.0], [50.0, 0.0, 0.0]],
    )
    def test_saturated_logits_keep_the_bits_and_sign_of_the_entropy(self, z):
        # The sum is negated, not each term, so [1000, 0], whose terms
        # 0.0 and -0.0 sum to +0.0, keeps the entropy -0.0.
        z = np.asarray(z)
        logp = z - numkit.logsumexp(z)
        expected = np.float64(float(-(np.exp(logp) * logp).sum())).tobytes()
        assert np.float64(conditional_entropy(z)).tobytes() == expected
        assert np.float64(em_eval(z).value).tobytes() == expected

    @given(logit_vectors)
    def test_bounds(self, z):
        h = conditional_entropy(np.asarray(z))
        assert -1e-12 <= h <= math.log(len(z)) + 1e-12

    @given(logit_vectors)
    def test_decomposes_into_cadf_plus_gmc(self, z):
        z = np.asarray(z)
        assert abs(conditional_entropy(z) - (cadf(z) + gmc(z))) <= 1e-9


class TestCadfAndGmc:
    def test_cadf_reference_value(self):
        assert abs(cadf(Z123) - (-2.575210382604441)) < 1e-14

    def test_gmc_is_logsumexp(self):
        assert abs(gmc(Z123) - 3.4076059644443806) < 1e-15

    def test_cadf_of_constant_logits(self):
        # p uniform and z constant k gives T = -k.
        assert abs(cadf(np.full(4, 2.5)) + 2.5) < 1e-12

    def test_cadf_reward_formula(self):
        z = np.array([0.3, -1.0, 2.0])
        p = softmax(z)
        t = -float(np.dot(p, z))
        np.testing.assert_allclose(cadf_reward(z), p * (t + z + 1.0), rtol=0, atol=0)

    def test_cadf_reward_uniform_entries(self):
        np.testing.assert_allclose(cadf_reward(np.zeros(5)), np.full(5, 0.2), atol=1e-15)

    def test_gmc_reward_is_negative_softmax(self):
        z = np.array([1.0, -2.0, 0.5])
        np.testing.assert_array_equal(gmc_reward(z), -softmax(z))


class TestEmGradient:
    def test_reference_gradient(self):
        np.testing.assert_allclose(
            em_eval(Z123).grad,
            [0.1418170886250773, 0.1407703634534349, -0.2825874520785122],
            atol=1e-14,
        )

    def test_uniform_point_is_stationary(self):
        np.testing.assert_allclose(em_eval(np.full(6, 1.7)).grad, 0.0, atol=1e-15)

    def test_value_is_the_entropy(self):
        assert em_eval(Z123).value == conditional_entropy(Z123)

    @given(logit_vectors)
    @settings(max_examples=60)
    def test_matches_finite_differences(self, z):
        z = np.asarray(z)
        oracle = finite_diff_grad(conditional_entropy, z)
        assert rel_err(em_eval(z).grad, oracle) < 1e-6

    @given(logit_vectors)
    def test_gradient_sums_to_zero(self, z):
        # Shift invariance of the entropy forces a zero-sum gradient.
        assert abs(float(np.sum(em_eval(np.asarray(z)).grad))) < 1e-9


class TestDetachedEm:
    @given(logit_vectors)
    def test_value_zero_gradient_equal_to_em(self, z):
        z = np.asarray(z)
        det = detached_em_eval(z)
        assert det.value == 0.0
        assert rel_err(det.grad, em_eval(z).grad) <= 1e-12


class TestTemperedCadf:
    def test_tau_one_matches_plain_cadf_value(self):
        assert cadf_tempered_eval(Z123, 1.0).value == pytest.approx(cadf(Z123), abs=1e-15)

    def test_uniform_logits_gradient(self):
        # All classes tie, so each coordinate gets the same -1/C pull.
        for tau in (0.5, 1.0, 3.0):
            res = cadf_tempered_eval(np.full(5, 2.0), tau)
            np.testing.assert_allclose(res.grad, -0.2, atol=1e-14)

    def test_rejects_nonpositive_temperature(self):
        with pytest.raises(ValueError):
            cadf_tempered_eval(Z123, 0.0)
        with pytest.raises(ValueError):
            cadf_tempered_eval(Z123, -1.0)

    @given(
        logit_vectors,
        st.floats(min_value=0.2, max_value=4.0),
    )
    @settings(max_examples=60)
    def test_matches_finite_differences(self, z, tau):
        z = np.asarray(z)
        oracle = finite_diff_grad(lambda v: cadf_tempered_eval(v, tau).value, z)
        assert rel_err(cadf_tempered_eval(z, tau).grad, oracle) < 1e-5


class TestValidityRegion:
    def test_known_cases(self):
        assert validate_config(1.0, 1.0)
        assert validate_config(2.0, 1.0)  # boundary kept
        assert validate_config(0.1, 2.0)
        assert validate_config(5.0, 0.0)  # pure CADF admits any tau
        assert not validate_config(0.0, 1.0)
        assert not validate_config(-1.0, 0.0)
        assert not validate_config(2.1, 1.0)
        assert not validate_config(1.5, 2.0)
        assert not validate_config(math.nan, 0.0)  # not short-circuited by alpha = 0
        assert not validate_config(math.nan, 1.0)
        assert not validate_config(1.0, math.nan)

    def test_nan_temperature_is_refused_at_construction(self):
        with pytest.raises(ConfigError, match="invalid hyperparameters"):
            DemConfig(math.nan, 0.0)

    @pytest.mark.parametrize(
        "tau, alpha",
        [(math.inf, 0.0), (1e-13, math.inf), (0.0, math.inf), (1.0, -math.inf)],
    )
    def test_non_finite_settings_are_refused(self, tau, alpha):
        # tau = inf passed at alpha = 0, and alpha = inf at tau <= 1e-12
        # (2/inf + slack), and dem_eval then returned NaN gradients.
        assert not validate_config(tau, alpha)
        with pytest.raises(ConfigError, match="requires finite tau and alpha"):
            DemConfig(tau, alpha)

    def test_boundary_second_derivative_reference(self):
        # (1 - 1/10) * (1/10 - 2/10) in double precision.
        assert boundary_second_derivative(1.0, 1.0, 10) == -0.09000000000000001

    def test_boundary_second_derivative_zero_on_boundary(self):
        assert abs(boundary_second_derivative(2.0, 1.0, 7)) < 1e-15

    def test_boundary_second_derivative_rejects_bad_args(self):
        with pytest.raises(ValueError):
            boundary_second_derivative(0.0, 1.0, 10)
        with pytest.raises(ValueError, match="C must be at least 2, got 1"):
            boundary_second_derivative(1.0, 1.0, 1)

    @pytest.mark.parametrize(
        "tau, alpha, message",
        [(math.nan, 1.0, "temperature tau must be positive and finite, got nan"),
         (1.0, math.inf, "alpha must be finite, got inf"),
         (math.inf, 0.0, "temperature tau must be positive and finite, got inf"),
         (1.0, -math.inf, "alpha must be finite, got -inf"),
         (1.0, math.nan, "alpha must be finite, got nan")],
        ids=["nan-1.0", "1.0-inf", "inf-0.0", "1.0--inf", "1.0-nan"],
    )
    def test_boundary_second_derivative_refuses_a_non_finite_pair(self, tau, alpha, message):
        # It used to return nan or inf; DemConfig refuses the same pairs.
        with pytest.raises(ValueError, match=message):
            boundary_second_derivative(tau, alpha, 10)

    @pytest.mark.parametrize("C", [10.0, np.float64(3.0), True])
    def test_the_class_count_must_be_an_integer(self, C):
        # Both used to take a float C: boundary_second_derivative computed
        # with it, and reward_curve raised numpy's TypeError.
        with pytest.raises(ValueError, match="C must be an integer"):
            boundary_second_derivative(1.0, 1.0, C)
        with pytest.raises(ValueError, match="C must be an integer"):
            reward_curve(C, DemConfig(1.0, 1.0), [0.0])
        assert boundary_second_derivative(1.0, 1.0, np.int64(10)) == -0.09000000000000001

    @given(
        st.floats(min_value=0.05, max_value=3.0),
        st.floats(min_value=0.0, max_value=2.0),
        st.sampled_from([2, 10, 100]),
    )
    def test_sign_agrees_with_validity(self, tau, alpha, C):
        curvature = boundary_second_derivative(tau, alpha, C)
        if validate_config(tau, alpha):
            assert curvature <= 1e-12
        else:
            assert curvature > -1e-12

    def test_second_difference_matches_formula(self):
        # Numeric second difference of the loss along one logit at the
        # uniform point, against the closed form.
        for tau, alpha, C in [(1.0, 1.0, 10), (0.5, 1.5, 4), (2.0, 1.0, 3)]:
            cfg = DemConfig(tau, alpha)
            h = 1e-4

            def value_at(eps):
                z = np.zeros(C)
                z[0] = eps
                return dem_eval(z, cfg).value

            second = (value_at(h) - 2.0 * value_at(0.0) + value_at(-h)) / (h * h)
            assert abs(second - boundary_second_derivative(tau, alpha, C)) < 1e-4


class TestDem:
    @given(logit_vectors)
    def test_tau_alpha_one_is_classical_em(self, z):
        z = np.asarray(z)
        dem = dem_eval(z, DemConfig(1.0, 1.0))
        em = em_eval(z)
        assert abs(dem.value - em.value) <= 1e-12
        assert rel_err(dem.grad, em.grad) <= 1e-12

    def test_invalid_config_raises_with_bound(self):
        with pytest.raises(ConfigError, match="2/alpha"):
            dem_eval(Z123, DemConfig(3.0, 1.0))
        # The pair is rejected where the config is built, before any loss
        # or plugin sees it.
        for tau, alpha, bound in [(3.0, 1.0, 2), (0.0, 1.0, 2), (1.5, 2.0, 1)]:
            with pytest.raises(
                ConfigError, match=rf"invalid hyperparameters.*2/alpha = {bound}\b"
            ):
                DemConfig(tau, alpha)

    def test_value_is_tempered_cadf_plus_alpha_gmc(self):
        cfg = DemConfig(1.5, 0.8)
        expected = cadf_tempered_eval(Z123, 1.5).value + 0.8 * gmc(Z123)
        assert dem_eval(Z123, cfg).value == pytest.approx(expected, abs=1e-15)

    @given(
        logit_vectors,
        st.floats(min_value=0.2, max_value=2.0),
        st.floats(min_value=0.0, max_value=2.0),
    )
    @settings(max_examples=60)
    def test_matches_finite_differences(self, z, tau, alpha):
        if not validate_config(tau, alpha):
            tau = min(tau, 2.0 / alpha)
        z = np.asarray(z)
        cfg = DemConfig(tau, alpha)
        oracle = finite_diff_grad(lambda v: dem_eval(v, cfg).value, z)
        assert rel_err(dem_eval(z, cfg).grad, oracle) < 1e-5

    def test_argmax_reward_dominates_near_uniform(self):
        # With a strict unique maximum and a valid config with alpha > 0,
        # the argmax class collects at least as much reward as any other
        # class for near-uniform logits (spread below 0.1).
        rng = np.random.default_rng(0)
        for _ in range(200):
            C = int(rng.integers(2, 8))
            z = rng.uniform(-0.05, 0.05, C)
            z[int(rng.integers(0, C))] += 0.045  # force a strict argmax
            alpha = float(rng.uniform(0.1, 2.0))
            tau = float(rng.uniform(0.1, 1.0)) * (2.0 / alpha) * 0.95
            rewards = -dem_eval(z, DemConfig(tau, alpha)).grad
            assert np.argmax(rewards) == np.argmax(z)


class TestRewardCurve:
    def test_header_constant(self):
        assert REWARD_CURVE_HEADER == "m,p_max,reward"

    def test_zero_margin_row(self):
        ((m, p_max, reward),) = reward_curve(10, DemConfig(1.0, 1.0), [0.0])
        assert m == 0.0
        assert p_max == pytest.approx(0.1, abs=1e-15)
        assert abs(reward) < 1e-15

    def test_large_margin_reward_collapses(self):
        ((_, p_max, reward),) = reward_curve(10, DemConfig(1.0, 1.0), [30.0])
        assert p_max > 0.999999
        assert abs(reward) < 1e-8

    def test_interior_maximum_is_substantial(self):
        rows = reward_curve(10, DemConfig(1.0, 1.0), np.arange(0.0, 30.0, 0.01))
        assert max(r for _, _, r in rows) > 0.1

    def test_p_max_monotone_in_margin(self):
        rows = reward_curve(5, DemConfig(1.0, 1.0), np.linspace(0.0, 10.0, 50))
        p = [row[1] for row in rows]
        assert all(b >= a for a, b in zip(p, p[1:]))

    def test_rejects_tiny_class_count(self):
        with pytest.raises(ValueError, match="C must be at least 2, got 1"):
            reward_curve(1, DemConfig(1.0, 1.0), [0.0])

    @pytest.mark.parametrize("m", [math.nan, math.inf, -math.inf])
    def test_rejects_a_margin_that_is_not_finite(self, m):
        # It used to return the row (nan, nan, nan) for a NaN margin.
        with pytest.raises(ValueError, match="margins must be finite"):
            reward_curve(3, DemConfig(1.0, 1.0), [0.0, m])


class TestBatchedRows:
    def test_em_rows_match_scalar_loop(self):
        rng = np.random.default_rng(1)
        Z = rng.uniform(-10, 10, (40, 6))
        values, grads = em_row_values(Z), em_rows(Z)
        for i in range(Z.shape[0]):
            single = em_eval(Z[i])
            assert abs(values[i] - single.value) < 1e-12
            assert rel_err(grads[i], single.grad) < 1e-12

    def test_dem_rows_match_scalar_loop(self):
        rng = np.random.default_rng(2)
        Z = rng.uniform(-8, 8, (30, 5))
        cfg = DemConfig(1.4, 0.9)
        values, grads = dem_row_values(Z, cfg), dem_rows(Z, softmax_rows(Z), cfg)
        for i in range(Z.shape[0]):
            single = dem_eval(Z[i], cfg)
            assert abs(values[i] - single.value) < 1e-12
            assert rel_err(grads[i], single.grad) < 1e-12

    def test_em_rows_and_values_keep_the_bits_of_the_joint_kernel(self):
        # The joint (values, grads) kernel that em_rows and em_row_values
        # were split from, operation for operation.  Bytes are compared,
        # so a signed zero counts.
        def joint(Z):
            lse = logsumexp_rows(Z)
            logp = Z - lse[:, None]
            P = np.exp(logp)
            values = -np.sum(P * logp, axis=1)
            S = np.sum(P * Z, axis=1, keepdims=True)
            grads = -P * (Z - S)
            return values, grads

        rng = np.random.default_rng(8)
        for scale in (0.1, 1.0, 12.0, 30.0, 800.0):
            for n, C in ((64, 10), (1, 2), (17, 5)):
                Z = rng.uniform(-scale, scale, (n, C))
                Z[:, rng.integers(C)] = 0.0
                values, grads = joint(Z)
                assert em_row_values(Z).tobytes() == values.tobytes()
                assert em_rows(Z).tobytes() == grads.tobytes()

    @pytest.mark.parametrize("tau, alpha", [(1.0, 1.0), (1.4, 0.9), (0.3, 0.0), (2.0, 1.0)])
    def test_dem_rows_and_values_keep_the_bits_of_the_joint_kernel(self, tau, alpha):
        # The joint (values, grads) kernel that dem_rows and
        # dem_row_values were split from, operation for operation.  Bytes
        # are compared, so a signed zero counts; all-zero columns and
        # logit scales from 0.1 to 30 reach them.
        def joint(Z, P, cfg):
            P_tau = softmax_rows(Z / cfg.tau)
            S_tau = np.sum(P_tau * Z, axis=1, keepdims=True)
            values = -S_tau[:, 0] + cfg.alpha * logsumexp_rows(Z)
            grads = -(P_tau / cfg.tau) * (Z - S_tau + cfg.tau) + cfg.alpha * P
            return values, grads

        rng = np.random.default_rng(7)
        cfg = DemConfig(tau, alpha)
        for scale in (0.1, 1.0, 12.0, 30.0):
            for n, C in ((64, 10), (1, 2), (17, 5)):
                Z = rng.uniform(-scale, scale, (n, C))
                Z[:, rng.integers(C)] = 0.0
                P = softmax_rows(Z)
                values, grads = joint(Z, P, cfg)
                assert dem_row_values(Z, cfg).tobytes() == values.tobytes()
                assert dem_rows(Z, P, cfg).tobytes() == grads.tobytes()


# Every public scalar entry point, as a one-argument call on the logits,
# paired with whether it needs at least two classes.
SCALAR_ENTRY_POINTS = {
    "conditional_entropy": (conditional_entropy, True),
    "cadf": (cadf, True),
    "gmc": (gmc, True),
    "cadf_reward": (cadf_reward, True),
    "gmc_reward": (gmc_reward, True),
    "em_eval": (em_eval, True),
    "detached_em_eval": (detached_em_eval, True),
    "cadf_tempered_eval": (lambda z: cadf_tempered_eval(z, 0.7), True),
    "dem_eval": (lambda z: dem_eval(z, DemConfig(0.7, 1.5)), True),
    "logsumexp": (numkit.logsumexp, False),
    "softmax": (numkit.softmax, False),
}


class TestEntryPointValidation:
    """Inner kernels skip validation, so each public entry point must do it."""

    @pytest.mark.parametrize("name", sorted(SCALAR_ENTRY_POINTS))
    def test_rejects_bad_logits(self, name):
        fn, needs_two = SCALAR_ENTRY_POINTS[name]
        fn([0.5, -1.0, 2.0])  # well-formed input is accepted
        bad = [
            [1.0, float("nan"), 0.0],
            [1.0, float("inf"), 0.0],
            [1.0, -float("inf"), 0.0],
            np.zeros((2, 3)),
        ]
        if needs_two:
            bad.append([1.0])
        else:
            fn([1.0])
        for z in bad:
            with pytest.raises(ValueError):
                fn(z)

    @pytest.mark.parametrize(
        "fn",
        [
            lambda z: cadf_tempered_eval(z, 1e-10),
            lambda z: dem_eval(z, DemConfig(1e-10, 0.0)),
        ],
    )
    def test_rejects_logits_that_overflow_at_temperature(self, fn):
        # The ValueError is the only report: no RuntimeWarning comes first.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError):
                fn([1e300, 0.0])


def _bits(x) -> bytes:
    return np.float64(x).tobytes()


def _value_kernel_logits():
    """Logit vectors for the value-kernel checks: C = 2 up to 9, scales
    from 0.1 to 400 (large logits), and a zero vector."""
    rng = np.random.default_rng(11)
    yield np.zeros(2)
    yield np.array([400.0, -350.0])
    for i in range(120):
        C = 2 + i % 8
        yield rng.uniform(-1.0, 1.0, C) * (0.1, 1.0, 8.0, 60.0, 400.0)[i % 5]


class TestValueKernels:
    """Each public ``*_eval(...).value`` is its value kernel's result, bit
    for bit: the function that ``gradcheck`` differentiates."""

    @pytest.mark.parametrize("tau, alpha", [(1.0, 1.0), (0.3, 2.0), (1.7, 0.4), (2.5, 0.0)])
    def test_dem(self, tau, alpha):
        cfg = DemConfig(tau, alpha)
        for z in _value_kernel_logits():
            value = em_losses._dem_value(z, cfg)
            assert _bits(value) == _bits(dem_eval(z, cfg).value)
            # The expression the joint value-and-gradient code computed.
            p_tau = softmax(z / tau)
            expected = -np.dot(p_tau, z) + alpha * numkit.logsumexp(z)
            assert _bits(value) == _bits(expected)

    @pytest.mark.parametrize("tau", [0.3, 1.0, 2.2])
    def test_cadf_tempered(self, tau):
        for z in _value_kernel_logits():
            value = em_losses._cadf_tempered_value(z, tau)
            assert _bits(value) == _bits(cadf_tempered_eval(z, tau).value)

    def test_cross_entropy(self):
        # Source training's loss has no public value: its kernel is the
        # public log-sum-exp less the target's logit.
        for z in _value_kernel_logits():
            for target in (0, z.shape[0] - 1):
                value = model._cross_entropy_value(z, target)
                assert _bits(value) == _bits(numkit.logsumexp(z) - z[target])

    def test_em(self):
        for z in _value_kernel_logits():
            value = em_losses._entropy(z)
            assert _bits(value) == _bits(conditional_entropy(z))
            assert _bits(value) == _bits(em_eval(z).value)

    def test_value_kernels_refuse_overflow_at_temperature(self):
        cfg = DemConfig(1e-10, 0.0)
        with pytest.raises(ValueError, match="overflow"):
            em_losses._dem_value(np.array([1e300, 0.0]), cfg)
        with pytest.raises(ValueError, match="overflow"):
            em_losses._cadf_tempered_value(np.array([1e300, 0.0]), 1e-10)
