"""Tests for the classifiers, hand-rolled backprop, SGD, and the stream loop."""

import math
import tracemalloc

import numpy as np
import pytest

import demkit.model
from demkit import adadem, em_losses
from demkit.adadem import MecState, mec_init, mec_update
from demkit.cli import DEFAULT_CONFIG, _ce_grads
from demkit.em_losses import DemConfig, dem_row_values, em_eval, em_row_values
from demkit.model import (
    AdaDemPlugin,
    DemPlugin,
    DivergenceError,
    EmPlugin,
    LinearSoftmax,
    Mlp,
    SgdConfig,
    SgdState,
    adapt_stream,
    backward,
    forward,
    init_linear,
    init_mlp,
    _ce_row_values,
    _ce_rows,
    _cross_entropy_value,
    sgd_step,
    step_bytes,
    train_source,
)
from demkit.numkit import Rng, finite_diff_grad, rel_err, softmax_rows

# The default config's settings, for the calls that take them.
INIT_SCALE = DEFAULT_CONFIG["source"]["init_scale"]
SOURCE_BATCH = DEFAULT_CONFIG["source"]["batch_size"]
PI = DEFAULT_CONFIG["loss"]["pi"]


class TestInitAndForward:
    def test_zero_init_linear_predicts_uniform(self):
        model = init_linear(3, 2)
        Z = forward(model, np.array([[1.0, -2.0], [0.5, 4.0]]))
        np.testing.assert_array_equal(Z, np.zeros((2, 3)))
        np.testing.assert_array_equal(softmax_rows(Z), np.full((2, 3), 1 / 3))

    def test_scaled_linear_init_replays_generator(self):
        m = init_linear(3, 2, Rng(5), scale=0.7)
        W = 0.7 * Rng(5).normals(6).reshape(3, 2)
        np.testing.assert_array_equal(m.W, W)
        np.testing.assert_array_equal(m.b, np.zeros(3))

    def test_mlp_init_replays_generator(self):
        m = init_mlp(3, 2, 8, Rng(11), INIT_SCALE)
        r = Rng(11)
        W1 = 0.5 * r.normals(16).reshape(8, 2)
        W2 = 0.5 * r.normals(24).reshape(3, 8) / np.sqrt(8)
        np.testing.assert_array_equal(m.W1, W1)
        np.testing.assert_array_equal(m.W2, W2)
        np.testing.assert_array_equal(m.b1, np.zeros(8))
        np.testing.assert_array_equal(m.b2, np.zeros(3))
        assert m.C == 3

    def test_mlp_rejects_zero_width(self):
        with pytest.raises(ValueError):
            init_mlp(3, 2, 0, Rng(0), INIT_SCALE)

    @pytest.mark.parametrize(
        "hidden", [4.0, True, np.float64(4.0)], ids=["float", "bool", "numpy-float"]
    )
    def test_mlp_rejects_a_width_that_is_not_an_integer(self, hidden):
        with pytest.raises(ValueError, match="hidden width must be an integer"):
            init_mlp(3, 2, hidden, Rng(0), INIT_SCALE)

    def test_mlp_accepts_a_numpy_integer_width(self):
        m = init_mlp(3, 2, np.int64(4), Rng(0), INIT_SCALE)
        assert m.theta.tobytes() == init_mlp(3, 2, 4, Rng(0), INIT_SCALE).theta.tobytes()

    @pytest.mark.parametrize(
        "build, message",
        [(lambda: init_mlp(3.0, 2, 4, Rng(0), INIT_SCALE), "C must be an integer, got 3.0"),
         (lambda: init_mlp(3, 2.0, 4, Rng(0), INIT_SCALE), "d must be an integer, got 2.0"),
         (lambda: init_mlp(1, 2, 4, Rng(0), INIT_SCALE), "C must be at least 2, got 1"),
         (lambda: init_mlp(3, 0, 4, Rng(0), INIT_SCALE), "d must be at least 1, got 0"),
         (lambda: init_linear(True, 2), "C must be an integer, got True"),
         (lambda: init_linear(3, np.float64(2.0)), "d must be an integer"),
         (lambda: init_linear(1, 2), "C must be at least 2, got 1"),
         (lambda: init_linear(3, 0), "d must be at least 1, got 0")],
        ids=["mlp-float-C", "mlp-float-d", "mlp-one-class", "mlp-no-inputs",
             "linear-bool-C", "linear-float-d", "linear-one-class", "linear-no-inputs"],
    )
    def test_init_checks_classes_and_input_width(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()

    def test_linear_forward_hand_case(self):
        model = LinearSoftmax(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
                              np.array([0.5, 0.0, -0.5]))
        Z = forward(model, np.array([[2.0, 3.0]]))
        np.testing.assert_array_equal(Z, np.array([[2.5, 3.0, 4.5]]))

    def test_mlp_forward_hand_case(self):
        # One ReLU kills the negative pre-activation.
        model = Mlp(
            W1=np.array([[1.0, 0.0], [-1.0, 0.0]]),
            b1=np.zeros(2),
            W2=np.array([[1.0, 1.0], [0.0, 1.0]]),
            b2=np.array([0.0, 1.0]),
        )
        Z = forward(model, np.array([[2.0, 7.0]]))
        np.testing.assert_array_equal(Z, np.array([[2.0, 1.0]]))

    def test_forward_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            forward(init_linear(3, 2), np.ones((1, 5)))
        with pytest.raises(ValueError):
            forward(init_mlp(3, 2, 4, Rng(0), INIT_SCALE), np.ones((1, 5)))

    def test_forward_rejects_unknown_model(self):
        with pytest.raises(TypeError):
            forward(object(), np.ones((1, 2)))

    def test_copy_is_deep(self):
        m = init_mlp(3, 2, 4, Rng(1), INIT_SCALE)
        c = m.copy()
        for a in (m.theta, m.W1, m.b1, m.W2, m.b2):
            for b in (c.theta, c.W1, c.b1, c.W2, c.b2):
                assert not np.shares_memory(a, b)
        m.W1 += 1.0
        assert not np.array_equal(m.theta, c.theta)
        np.testing.assert_array_equal(c.W2, m.W2)
        np.testing.assert_array_equal(c.b2, m.b2)

    def test_linear_copy_is_deep(self):
        m = init_linear(3, 2, Rng(1), scale=1.0)
        c = m.copy()
        for a in (m.theta, m.W, m.b):
            for b in (c.theta, c.W, c.b):
                assert not np.shares_memory(a, b)
        np.testing.assert_array_equal(c.theta, m.theta)
        m.b += 1.0
        np.testing.assert_array_equal(c.b, m.b - 1.0)


class TestLayout:
    def test_views_share_theta(self):
        m = init_mlp(3, 2, 4, Rng(1), INIT_SCALE)
        views = [m.W1, m.b1, m.W2, m.b2]
        assert m.theta.dtype == np.float64
        assert m.theta.shape == (sum(v.size for v in views),)
        for v in views:
            assert np.shares_memory(v, m.theta)
        m.W1[1, 0] += 2.5
        assert m.theta[2] == m.W1[1, 0]
        lin = init_linear(3, 2, Rng(2), scale=1.0)
        assert np.shares_memory(lin.W, lin.theta) and np.shares_memory(lin.b, lin.theta)
        np.testing.assert_array_equal(lin.theta, np.concatenate([lin.W.ravel(), lin.b]))

    def test_constructor_copies_its_arrays(self):
        W1 = np.ones((4, 2))
        m = Mlp(W1, np.zeros(4), np.ones((3, 4)), np.zeros(3))
        W1[0, 0] = 7.0
        assert m.W1[0, 0] == 1.0


def _ce_grad(Z, targets):
    """Reference cross-entropy gradients: ``softmax(Z)`` with 1 subtracted
    at each row's target in place."""
    grads = softmax_rows(Z)
    grads[np.arange(Z.shape[0]), targets] -= 1.0
    return grads


class _Supervised:
    """A test-local supervised plugin on fixed targets, built on
    ``_ce_grad``: a loss that moves a model whose predictions are uniform."""

    def __init__(self, targets):
        self.targets = targets

    def batch_eval(self, Z, P):
        return _ce_grad(Z, self.targets)


class TestCrossEntropy:
    def test_uniform_logits_reference(self):
        assert _cross_entropy_value(np.zeros(10), 3) == math.log(10)
        expected = np.full(10, 0.1)
        expected[3] -= 1.0
        np.testing.assert_array_equal(_ce_grads(np.zeros((1, 10)), [3])[0], expected)

    def test_gradient_matches_finite_differences(self):
        rng = Rng(13)
        for _ in range(50):
            z = (rng.uniforms(5) - 0.5) * 16.0
            t = rng.integers(1, 0, 5)[0]
            fd = finite_diff_grad(lambda v: _cross_entropy_value(v, t), z)
            assert rel_err(_ce_grads(z[None, :], [t])[0], fd) < 1e-6

    def test_kernel_matches_the_in_place_reference(self):
        # Flat positions i * C + target pick the same entries as the
        # (row, target) pairs of _ce_grad, and G is written, not replaced.
        Z = (Rng(5).uniforms(7 * 4).reshape(7, 4) - 0.5) * 12.0
        targets = np.array([0, 3, 1, 1, 2, 0, 3])
        G = np.empty(Z.shape)
        assert _ce_rows(Z, np.arange(7) * 4 + targets, G, G.reshape(-1)) is G
        assert np.array_equal(G, _ce_grad(Z, targets))

    def test_rejects_bad_target(self, monkeypatch):
        # Targets reach the kernel only through train_source, which
        # refuses one outside [0, C) before any step runs.
        def no_step(*args):
            raise AssertionError("a step ran on a bad target")

        monkeypatch.setattr(demkit.model, "_ce_rows", no_step)
        for bad in (3, -1):
            with pytest.raises(ValueError, match=r"labels must lie in \[0, 3\)"):
                train_source(init_linear(3, 2), np.zeros((2, 2)), [0, bad], 1,
                             SgdConfig(lr=0.1), Rng(0), 2)

    def test_one_kernel_serves_training_and_gradcheck(self, monkeypatch):
        # Source training makes one kernel call per step, ceil(n /
        # batch_size) per epoch; gradcheck one per trial and one per
        # architecture.  Either path growing its own copy of the
        # gradient drops its calls from the count.
        from demkit.cli import main

        calls = []
        kernel = demkit.model._ce_rows

        def counted(*args):
            calls.append(args[0].shape)
            return kernel(*args)

        monkeypatch.setattr(demkit.model, "_ce_rows", counted)
        X, y = _blobs(Rng(8).derive("data"), 35, TestTrainSource.MEANS)  # 105 rows
        train_source(init_linear(3, 2), X, y, 4, SgdConfig(lr=0.1), Rng(0), 16)
        assert len(calls) == math.ceil(105 / 16) * 4
        assert calls.count((9, 3)) == 4  # the short last batch
        calls.clear()
        assert main(["gradcheck", "--trials", "3"]) == 0
        assert len(calls) == 3 + 2
        assert calls[3:] == [(6, 4), (6, 4)]


def _batch_eval(plugin, Z):
    """``plugin.batch_eval`` given the probabilities ``adapt_stream`` passes:
    the per-row logit gradients."""
    return plugin.batch_eval(Z, softmax_rows(Z))


def _inline_forward(model, X):
    """The forward pass written out as plain expressions: ``(Z, cache)``,
    ``cache`` the MLP's ``(H, A)`` or ``None`` for the linear model.  An
    arithmetic reference independent of the model's buffered kernels."""
    if isinstance(model, Mlp):
        H = X @ model.W1.T + model.b1
        A = np.maximum(H, 0.0)
        return A @ model.W2.T + model.b2, (H, A)
    return X @ model.W.T + model.b, None


def _inline_grad(model, X, dlogits, cache):
    """The backward pass as plain expressions: the gradient blocks of
    ``theta``, concatenated."""
    G = dlogits / X.shape[0]
    if cache is None:
        return np.concatenate([(G.T @ X).ravel(), G.sum(axis=0)])
    H, A = cache
    dH = (G @ model.W2) * (H > 0.0)
    return np.concatenate([(dH.T @ X).ravel(), dH.sum(axis=0), (G.T @ A).ravel(), G.sum(axis=0)])


def _inline_step(model, X, dlogits, cache, cfg, v):
    """Backward and one SGD step as plain expressions: :func:`_inline_grad`,
    ``v <- m v + g`` and ``theta -= lr * v``."""
    v *= cfg.momentum
    v += _inline_grad(model, X, dlogits, cache)
    model.theta -= cfg.lr * v


def _inline_adapt(model, X, plugin, cfg):
    """``adapt_stream`` written out with the inline expressions, batch by
    batch over a shift's own matrices; returns the pre-update
    probabilities, one matrix per batch."""
    v, probs = np.zeros_like(model.theta), []
    for Xb in X:
        Z, cache = _inline_forward(model, Xb)
        P = softmax_rows(Z)
        probs.append(P)
        _inline_step(model, Xb, plugin.batch_eval(Z, P), cache, cfg, v)
    return probs


def _recorder(out, n):
    """A scoring hook for ``adapt_stream`` that copies batch ``i``'s
    ``K x n x C`` probabilities into rows ``i * n`` to ``(i + 1) * n`` of
    the ``K`` blocks of ``out``."""

    def score(i, P):
        out[:, i * n : (i + 1) * n] = P

    return score


def _adapt(model, X, plugin, cfg):
    """``adapt_stream`` of the one-model stack of ``model`` over the
    ``B x n x d`` shift ``X``: moves ``model`` as the call moved its
    stack, raises the :class:`DivergenceError` the call returns, and
    returns the pre-update probabilities its scoring hook saw, as
    ``B x n x C``."""
    B, n = X.shape[:2]
    theta, seen = np.stack([model.theta]), np.empty((1, B * n, model.C))
    (error,) = adapt_stream(model, theta, X, [plugin], [cfg], _recorder(seen, n))
    model.theta[:] = theta[0]
    if error is not None:
        raise error
    return seen.reshape(B, n, model.C)


def _param_fd(model, X, values, h=1e-6):
    """Central-difference gradient of mean batch loss over every entry;
    ``values`` maps the logits to the per-row loss values."""
    theta = model.theta
    g = np.zeros_like(theta)
    for i in range(theta.shape[0]):
        orig = theta[i]
        theta[i] = orig + h
        vp = values(forward(model, X))
        theta[i] = orig - h
        vm = values(forward(model, X))
        theta[i] = orig
        g[i] = (np.mean(vp) - np.mean(vm)) / (2 * h)
    return g


class TestBackward:
    def test_mean_reduction_is_batch_size_invariant(self):
        rng = Rng(17)
        X = rng.normals(8).reshape(4, 2)
        model = init_linear(3, 2, rng, scale=0.5)
        Z = forward(model, X)
        dl = _batch_eval(EmPlugin(), Z)
        single = backward(model, X, dl)
        doubled = backward(model, np.vstack([X, X]), np.vstack([dl, dl]))
        # matmul reduction order differs with batch size, so the match is
        # to rounding, not bit-exact
        assert rel_err(single, doubled) < 1e-14

    def test_rejects_batch_mismatch(self):
        model = init_linear(3, 2)
        with pytest.raises(ValueError):
            backward(model, np.ones((2, 2)), np.ones((3, 3)))

    @pytest.mark.parametrize("arch", ["linear", "mlp"])
    def test_rejects_a_column_count_that_would_broadcast(self, arch):
        # One gradient column per row would broadcast into the n x C
        # buffer; it must be refused, not spread over the classes.
        model = init_linear(3, 2) if arch == "linear" else init_mlp(3, 2, 4, Rng(2), INIT_SCALE)
        with pytest.raises(ValueError, match="2 x 3"):
            backward(model, np.ones((2, 2)), np.ones((2, 1)))

    @pytest.mark.parametrize("arch", ["linear", "mlp"])
    @pytest.mark.parametrize("loss", ["ce", "em", "dem"])
    def test_parameter_gradients_match_finite_differences(self, arch, loss):
        rng = Rng(23)
        X = rng.normals(10).reshape(5, 2)
        if arch == "linear":
            model = init_linear(3, 2, rng, scale=0.5)
        else:
            model = init_mlp(3, 2, 4, rng, INIT_SCALE)
        if loss == "ce":
            targets = rng.integers(5, 0, 3)
            grads = lambda Z: _ce_grads(Z, targets)  # source training's kernel
            values = lambda Z: _ce_row_values(Z, targets)
        elif loss == "em":
            grads = lambda Z: _batch_eval(EmPlugin(), Z)
            values = em_row_values
        else:
            grads = lambda Z: _batch_eval(DemPlugin(DemConfig(1.3, 0.4)), Z)
            values = lambda Z: dem_row_values(Z, DemConfig(1.3, 0.4))
        dl = grads(forward(model, X))
        analytic = backward(model, X, dl)
        assert analytic.shape == model.theta.shape
        numeric = _param_fd(model, X, values)
        assert rel_err(analytic, numeric) < 1e-6

    def test_flat_gradient_is_the_per_array_gradients_in_order(self):
        # theta's layout: W1, b1, W2, b2, each row-major.
        rng = Rng(24)
        X = rng.normals(10).reshape(5, 2)
        model = init_mlp(3, 2, 4, rng, INIT_SCALE)
        dl = _batch_eval(EmPlugin(), forward(model, X))
        G = dl / 5
        H = X @ model.W1.T + model.b1
        dH = (G @ model.W2) * (H > 0.0)
        expected = [dH.T @ X, dH.sum(axis=0), G.T @ np.maximum(H, 0.0), G.sum(axis=0)]
        grad = backward(model, X, dl)
        np.testing.assert_array_equal(grad, np.concatenate([e.ravel() for e in expected]))

    def test_linear_flat_gradient_is_weight_then_bias(self):
        rng = Rng(25)
        X = rng.normals(10).reshape(5, 2)
        model = init_linear(3, 2, rng, scale=0.5)
        dl = _batch_eval(EmPlugin(), forward(model, X))
        G = dl / 5
        grad = backward(model, X, dl)
        np.testing.assert_array_equal(grad, np.concatenate([(G.T @ X).ravel(), G.sum(axis=0)]))


class TestSgd:
    def test_config_validation(self):
        for lr in (-0.1, math.nan, math.inf):
            with pytest.raises(ValueError):
                SgdConfig(lr=lr)
        with pytest.raises(ValueError):
            SgdConfig(lr=0.1, momentum=1.0)
        SgdConfig(lr=0.0)  # the no-adapt baseline is legal

    def test_two_momentum_steps_hand_case(self):
        model = LinearSoftmax(np.array([[1.0]]), np.array([0.0]))
        cfg = SgdConfig(lr=0.1, momentum=0.9)
        state = SgdState()
        g = np.array([0.5, 0.0])  # theta = (W[0, 0], b[0])
        sgd_step(model.theta, g, cfg, state)
        # v = 0.5, p = 1 - 0.1 * 0.5
        assert model.W[0, 0] == 1.0 - 0.1 * 0.5
        sgd_step(model.theta, g, cfg, state)
        # v = 0.9 * 0.5 + 0.5 = 0.95
        assert state.velocity[0] == 0.9 * 0.5 + 0.5
        assert model.W[0, 0] == (1.0 - 0.05) - 0.1 * (0.9 * 0.5 + 0.5)

    def test_zero_lr_touches_nothing(self):
        model = init_linear(3, 2, Rng(4), scale=1.0)
        frozen = model.copy()
        state = SgdState()
        sgd_step(model.theta, np.ones(9), SgdConfig(lr=0.0, momentum=0.9), state)
        np.testing.assert_array_equal(model.theta, frozen.theta)
        np.testing.assert_array_equal(state.velocity, np.ones(9))

    def test_velocity_is_one_vector_updated_in_place(self):
        model = init_mlp(3, 2, 4, Rng(5), INIT_SCALE)
        state = SgdState()
        assert state.velocity is None
        sgd_step(model.theta, np.zeros_like(model.theta), SgdConfig(lr=0.1, momentum=0.5), state)
        v = state.velocity
        assert v.dtype == np.float64 and v.shape == model.theta.shape
        np.testing.assert_array_equal(v, np.zeros_like(model.theta))
        scaled = state.scaled
        sgd_step(model.theta, np.ones_like(model.theta), SgdConfig(lr=0.1, momentum=0.5), state)
        assert state.velocity is v and state.scaled is scaled
        np.testing.assert_array_equal(v, np.ones_like(model.theta))

    def test_flat_step_matches_per_array_reference(self):
        # Reference: separate W1, b1, W2, b2 arrays, each with its own
        # velocity, updated name by name.
        model = init_mlp(3, 2, 4, Rng(3), INIT_SCALE)
        cfg = SgdConfig(lr=0.3, momentum=0.5)
        params = [model.W1.copy(), model.b1.copy(), model.W2.copy(), model.b2.copy()]
        velocities = [np.zeros_like(p) for p in params]
        state, rng = SgdState(), Rng(4)
        for _ in range(5):
            grads = [rng.normals(p.size).reshape(p.shape) for p in params]
            sgd_step(model.theta, np.concatenate([g.ravel() for g in grads]), cfg, state)
            for p, v, g in zip(params, velocities, grads):
                v *= cfg.momentum
                v += g
                p -= cfg.lr * v
            assert np.array_equal(model.theta, np.concatenate([p.ravel() for p in params]))
            assert np.array_equal(state.velocity, np.concatenate([v.ravel() for v in velocities]))


def _blobs(rng, n_per, means, sigma=0.3):
    xs, ys = [], []
    for k, m in enumerate(means):
        pts = np.asarray(m) + sigma * rng.normals(2 * n_per).reshape(n_per, 2)
        xs.append(pts)
        ys.append(np.full(n_per, k, dtype=np.int64))
    X = np.vstack(xs)
    y = np.concatenate(ys)
    return X, y


class TestTrainSource:
    MEANS = [(2.0, 0.0), (-1.0, 1.7), (-1.0, -1.7)]

    def test_learns_separable_blobs(self):
        rng = Rng(8)
        X, y = _blobs(rng.derive("data"), 200, self.MEANS)
        model = init_linear(3, 2)
        train_source(model, X, y, 5, SgdConfig(lr=0.5), rng.derive("train"), SOURCE_BATCH)
        preds = np.argmax(forward(model, X), axis=1)
        assert np.mean(preds == y) > 0.95

    def test_deterministic_given_seed(self):
        rng = Rng(8)
        X, y = _blobs(rng.derive("data"), 50, self.MEANS)
        runs = []
        for _ in range(2):
            model = init_mlp(3, 2, 4, Rng(9), INIT_SCALE)
            train_source(model, X, y, 3, SgdConfig(lr=0.1, momentum=0.9), Rng(10), SOURCE_BATCH)
            runs.append(model)
        assert np.array_equal(runs[0].theta, runs[1].theta)

    def test_zero_epochs_is_identity(self):
        model = init_linear(3, 2, Rng(1), scale=1.0)
        frozen = model.copy()
        train_source(model, np.ones((4, 2)), np.zeros(4, dtype=int), 0,
                     SgdConfig(lr=1.0), Rng(0), SOURCE_BATCH)
        np.testing.assert_array_equal(model.theta, frozen.theta)

    @pytest.mark.parametrize("arch", ["linear", "mlp"])
    def test_matches_public_reference_loop(self, arch):
        # The fused step (one forward, its activations reused by backward,
        # gradient-only cross-entropy) must reproduce the loop built from
        # the public entry points bit for bit.
        X, y = _blobs(Rng(8).derive("data"), 40, self.MEANS)
        def make():
            if arch == "linear":
                return init_linear(3, 2, Rng(9), scale=0.5)
            return init_mlp(3, 2, 6, Rng(9), INIT_SCALE)

        cfg = SgdConfig(lr=0.2, momentum=0.9)
        fused = train_source(make(), X, y, 3, cfg, Rng(10), batch_size=16)

        ref, rng, state = make(), Rng(10), SgdState()
        for _ in range(3):
            order = rng.permutation(X.shape[0])
            for start in range(0, X.shape[0], 16):
                idx = order[start : start + 16]
                Z = forward(ref, X[idx])
                dlogits = _ce_grad(Z, y[idx])
                sgd_step(ref.theta, backward(ref, X[idx], dlogits), cfg, state)
        assert np.array_equal(fused.theta, ref.theta)

    @pytest.mark.parametrize("arch", ["linear", "mlp"])
    @pytest.mark.parametrize("batch_size", [16, 64, 299])
    def test_matches_the_index_gather_loop(self, arch, batch_size):
        # One gather per epoch and the one-hot subtraction must keep the
        # bits of gathering each batch by index and subtracting 1 at the
        # targets in place (_ce_grad).  300 rows leave a short last batch
        # at every size: 12, 44 and 1 row.
        X, y = _blobs(Rng(8).derive("data"), 100, self.MEANS)
        def make():
            if arch == "linear":
                return init_linear(3, 2, Rng(9), scale=0.5)
            return init_mlp(3, 2, 6, Rng(9), INIT_SCALE)

        cfg = SgdConfig(lr=0.2, momentum=0.9)
        fused = train_source(make(), X, y, 3, cfg, Rng(10), batch_size=batch_size)

        ref, rng, state = make(), Rng(10), SgdState()
        for _ in range(3):
            order = np.argsort(rng.uniforms(X.shape[0]), kind="stable")
            for start in range(0, X.shape[0], batch_size):
                idx = order[start : start + batch_size]
                Xb = X[idx]
                dlogits = _ce_grad(forward(ref, Xb), y[idx])
                sgd_step(ref.theta, backward(ref, Xb, dlogits), cfg, state)
        assert np.array_equal(fused.theta, ref.theta)

    @pytest.mark.parametrize("dtype", [np.int32, np.uint8])
    @pytest.mark.parametrize("arch", ["linear", "mlp"])
    def test_narrow_label_dtypes_keep_the_bits(self, arch, dtype):
        # 105 rows in batches of 16 leave a short last batch of 9.
        X, y = _blobs(Rng(8).derive("data"), 35, self.MEANS)
        def trained(labels):
            model = init_linear(3, 2, Rng(9), scale=0.5) if arch == "linear" else init_mlp(
                3, 2, 6, Rng(9), INIT_SCALE
            )
            cfg = SgdConfig(lr=0.2, momentum=0.9)
            return train_source(model, X, labels, 3, cfg, Rng(10), batch_size=16).theta

        assert trained(y.astype(dtype)).tobytes() == trained(y).tobytes()

    def test_working_set_does_not_grow_with_classes(self):
        # A table of n x C floats would add 5,000 x 30 x 8 bytes = 1.2 MB
        # per copy going from 10 to 40 classes; the batch buffers and the
        # parameter-sized vectors add about 60 KB.
        def traced_peak(C):
            X = Rng(0).normals(5000 * 2).reshape(5000, 2)
            y = np.arange(5000) % C
            model = init_mlp(C, 2, 32, Rng(1), INIT_SCALE)
            cfg = SgdConfig(lr=0.05, momentum=0.9)
            tracemalloc.start()
            try:
                train_source(model, X, y, 1, cfg, Rng(2), SOURCE_BATCH)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert traced_peak(40) - traced_peak(10) < 100 * 1024

    @pytest.mark.parametrize(
        "kwargs, name",
        [({"batch_size": 0}, "batch_size"), ({"batch_size": -1}, "batch_size"),
         ({"epochs": -3}, "epochs"), ({"batch_size": 4.0}, "batch_size must be an integer"),
         ({"batch_size": True}, "batch_size must be an integer"),
         ({"epochs": 2.0}, "epochs must be an integer"),
         ({"epochs": True}, "epochs must be an integer")],
        ids=["batch-size-0", "batch-size-minus-1", "epochs-minus-3", "batch-size-float",
             "batch-size-bool", "epochs-float", "epochs-bool"],
    )
    def test_rejects_bad_loop_sizes(self, kwargs, name):
        model = init_linear(3, 2, Rng(1), scale=0.5)
        before = model.copy()
        X, y = _blobs(Rng(2), 4, self.MEANS)
        args = {"epochs": 2, "batch_size": 4, **kwargs}
        with pytest.raises(ValueError, match=name):
            train_source(model, X, y, args["epochs"], SgdConfig(lr=0.1), Rng(0),
                         batch_size=args["batch_size"])
        np.testing.assert_array_equal(model.theta, before.theta)

    def test_numpy_integer_loop_sizes_keep_the_bits(self):
        X, y = _blobs(Rng(2), 5, self.MEANS)
        def trained(epochs, batch_size):
            model = init_linear(3, 2, Rng(1), scale=0.5)
            return train_source(model, X, y, epochs, SgdConfig(lr=0.1), Rng(0), batch_size)

        expected = trained(2, 4).theta
        assert trained(np.int64(2), np.int32(4)).theta.tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "y",
        [
            np.array([0, 1, 2, -1, 0, 1, 2, 0, 1, 2]),
            np.array([0, 1, 2, 3, 0, 1, 2, 0, 1, 2]),
            np.array([0, 1, 2] * 4),
            np.array([0, 1, 2] * 3),
            np.full(10, 0.7),
            np.zeros((10, 1), dtype=np.int64),
        ],
        ids=["negative", "equal-to-C", "12-for-10-rows", "9-for-10-rows", "float", "2-d"],
    )
    def test_rejects_bad_labels(self, y):
        model = init_linear(3, 2, Rng(1), scale=0.5)
        before = model.copy()
        X = Rng(2).normals(20).reshape(10, 2)
        with pytest.raises(ValueError):
            train_source(model, X, y, 1, SgdConfig(lr=0.1), Rng(0), SOURCE_BATCH)
        np.testing.assert_array_equal(model.theta, before.theta)

    def test_divergence_names_source_training_and_the_epoch(self):
        # lr = 1e100 overflows the MLP's parameters within the first epoch;
        # the loop raises one FloatingPointError at the epoch's end, and no
        # numpy warning (which pytest would turn into an error).
        X, y = _blobs(Rng(8).derive("data"), 40, self.MEANS)
        model = init_mlp(3, 2, 6, Rng(9), INIT_SCALE)
        with pytest.raises(FloatingPointError) as info:
            train_source(model, X, y, 3, SgdConfig(lr=1e100, momentum=0.9), Rng(10), 16)
        assert str(info.value) == "source training diverged in epoch 0"
        assert not isinstance(info.value, DivergenceError)

    def test_rejects_width_mismatch(self):
        with pytest.raises(ValueError):
            train_source(init_linear(3, 2), np.ones((4, 5)), np.zeros(4, dtype=int),
                         1, SgdConfig(lr=0.1), Rng(0), SOURCE_BATCH)

    def test_rejects_empty_set(self):
        with pytest.raises(ValueError):
            train_source(init_linear(3, 2), np.zeros((0, 2)), np.zeros(0, dtype=int),
                         1, SgdConfig(lr=0.1), Rng(0), SOURCE_BATCH)

    def test_source_steps_are_one_sgd_step_per_batch(self, monkeypatch):
        # As the benchmark counts them: ceil(n / b) * epochs sgd_step calls,
        # each while source training runs and none inside the public
        # adapt_stream.
        active, calls = set(), []
        step = demkit.model.sgd_step

        def within(name, fn):
            def wrapped(*args):
                active.add(name)
                try:
                    return fn(*args)
                finally:
                    active.discard(name)
            return wrapped

        def recorded(*args):
            calls.append(frozenset(active))
            return step(*args)

        monkeypatch.setattr(demkit.model, "sgd_step", recorded)
        monkeypatch.setattr(demkit.model, "adapt_stream", within("adapt", adapt_stream))
        train = within("train", demkit.model.train_source)
        X = 2.0 * Rng(20).normals(50 * 2).reshape(50, 2)
        y = Rng(30).integers(50, 0, 3)
        model = init_mlp(3, 2, 6, Rng(0), INIT_SCALE)
        train(model, X, y, 3, SgdConfig(lr=0.2, momentum=0.9), Rng(10), 16)
        assert calls == [{"train"}] * (4 * 3)


class TestAdaptStream:
    def _stream(self, rng, n_batches=3, batch=16):
        """A shift of ``n_batches`` batches of ``batch`` rows: ``(X, y)``
        shaped ``B x n x 2`` and ``B x n``."""
        X, y = _blobs(rng, n_batches * batch // 3 + 3, TestTrainSource.MEANS)
        order = rng.permutation(X.shape[0])[: n_batches * batch]
        return X[order].reshape(n_batches, batch, 2), y[order].reshape(n_batches, batch)

    def test_returns_pre_update_probabilities_per_batch(self):
        X, _ = self._stream(Rng(30))
        model = init_linear(3, 2, Rng(31), scale=0.5)
        ref = model.copy()
        probs = _adapt(model, X, EmPlugin(), SgdConfig(lr=0.01))
        assert probs.shape == (3, 16, 3)
        state = SgdState()
        for P, Xb in zip(probs, X):
            Z = forward(ref, Xb)
            np.testing.assert_array_equal(P, softmax_rows(Z))
            dlogits = _batch_eval(EmPlugin(), Z)
            sgd_step(ref.theta, backward(ref, Xb, dlogits), SgdConfig(lr=0.01), state)
        assert np.array_equal(model.theta, ref.theta)

    def test_zero_lr_reproduces_frozen_model(self):
        X, _ = self._stream(Rng(30))
        model = init_linear(3, 2, Rng(31), scale=0.5)
        frozen = model.copy()
        probs = _adapt(model, X, EmPlugin(), SgdConfig(lr=0.0))
        np.testing.assert_array_equal(model.theta, frozen.theta)
        for P, Xb in zip(probs, X):
            np.testing.assert_array_equal(P, softmax_rows(forward(frozen, Xb)))

    def test_metrics_come_from_pre_update_predictions(self):
        # A zero-initialized model predicts uniformly on the first batch;
        # the returned max probability must be exactly 1/C even though
        # the update that follows breaks the symmetry.  (EM would stay
        # stationary at uniform, so the probe uses a supervised loss.)
        X, y = self._stream(Rng(32), n_batches=2)
        model = init_linear(3, 2)
        before = model.copy()
        probs = _adapt(model, X, _Supervised(y[0]), SgdConfig(lr=0.5))
        assert probs[0].max(axis=1).mean() == 1 / 3
        assert np.linalg.norm(model.theta - before.theta) > 0.0
        assert probs[1].max(axis=1).mean() != 1 / 3

    def test_confident_model_barely_moves_under_em(self):
        # Logits 8 * (mean_k . x) give margins of ~20 at the cluster
        # centers, so EM's reward has collapsed and the step is tiny.
        means = np.asarray(TestTrainSource.MEANS)
        model = LinearSoftmax(8.0 * means, np.zeros(3))
        before = model.copy()
        X = np.vstack([means, means])[None]
        probs = _adapt(model, X, EmPlugin(), SgdConfig(lr=0.05))
        assert probs[0].max(axis=1).mean() > 0.999
        assert np.linalg.norm(model.theta - before.theta) < 1e-4

    def test_movement_is_the_update_norm(self):
        # Each step moves the parameters by lr * ||v||, and the fused loop
        # must move the model exactly as the loop of public entry points
        # does.
        X, _ = self._stream(Rng(35), n_batches=4)
        cfg = SgdConfig(lr=0.3, momentum=0.5)
        model = init_mlp(3, 2, 6, Rng(36), INIT_SCALE)
        ref = model.copy()
        _adapt(model, X, EmPlugin(), cfg)

        state = SgdState()
        for Xb in X:
            before = ref.copy()
            dlogits = _batch_eval(EmPlugin(), forward(ref, Xb))
            sgd_step(ref.theta, backward(ref, Xb, dlogits), cfg, state)
            movement = np.linalg.norm(ref.theta - before.theta)
            expected = cfg.lr * np.linalg.norm(state.velocity)
            assert expected > 0.0
            assert abs(movement - expected) <= 1e-12 * expected
        assert np.array_equal(model.theta, ref.theta)

    def test_each_call_starts_with_fresh_momentum(self):
        first, _ = self._stream(Rng(39), n_batches=2)
        second, _ = self._stream(Rng(40), n_batches=2)
        cfg = SgdConfig(lr=0.2, momentum=0.9)
        model = init_linear(3, 2, Rng(41), scale=0.5)
        ref = model.copy()
        _adapt(model, first, EmPlugin(), cfg)
        _adapt(model, second, EmPlugin(), cfg)
        for X in (first, second):
            state = SgdState()
            for Xb in X:
                dlogits = _batch_eval(EmPlugin(), forward(ref, Xb))
                sgd_step(ref.theta, backward(ref, Xb, dlogits), cfg, state)
        assert np.array_equal(model.theta, ref.theta)

    def test_non_finite_gradients_name_the_batch(self):
        class NanAfterFirst:
            calls = 0

            def batch_eval(self, Z, P):
                self.calls += 1
                grads = EmPlugin().batch_eval(Z, P)
                if self.calls > 1:
                    grads[0, 0] = np.nan
                return grads

        X, _ = self._stream(Rng(30), n_batches=3)
        model = init_linear(3, 2, Rng(31), scale=0.5)
        with pytest.raises(DivergenceError) as info:
            _adapt(model, X, NanAfterFirst(), SgdConfig(lr=0.1))
        assert isinstance(info.value, FloatingPointError)
        assert (info.value.stage, info.value.batch) == ("loss gradients", 1)
        assert str(info.value) == (
            "adaptation diverged at batch 1: non-finite loss gradients"
        )

    def test_overflowing_logits_name_the_batch(self):
        model = LinearSoftmax(np.full((3, 2), 1e308), np.zeros(3))
        X = np.array([[[10.0, 10.0]]])
        with pytest.raises(DivergenceError) as info, np.errstate(over="ignore"):
            _adapt(model, X, EmPlugin(), SgdConfig(lr=0.1))
        assert (info.value.stage, info.value.batch) == ("logits", 0)

    def test_non_finite_input_is_a_value_error(self):
        # The whole shift is checked before the first step: a NaN in the
        # last batch leaves the model untouched.
        X, _ = self._stream(Rng(30))
        X[2, 5, 1] = np.nan
        model = init_linear(3, 2, Rng(31), scale=0.5)
        before = model.theta.copy()
        with pytest.raises(ValueError, match="finite"):
            _adapt(model, X, EmPlugin(), SgdConfig(lr=0.1))
        assert np.array_equal(model.theta, before)

    def test_validates_the_shift_once(self, monkeypatch):
        # One validation per call, of the whole shift, and none per step.
        X, _ = self._stream(Rng(30), n_batches=4)
        model = init_linear(3, 2, Rng(31), scale=0.5)
        ref = model.copy()
        expected = _adapt(ref, X, EmPlugin(), SgdConfig(lr=0.1))
        shapes = []
        validated = demkit.model._validated_input

        def counting(model, X):
            shapes.append(np.shape(X))
            return validated(model, X)

        monkeypatch.setattr(demkit.model, "_validated_input", counting)
        assert _adapt(model, X, EmPlugin(), SgdConfig(lr=0.1)).tobytes() == expected.tobytes()
        assert shapes == [(64, 2)]

    @pytest.mark.parametrize(
        "inputs, error",
        [(lambda X: X[0], ValueError), (lambda X: (Xb for Xb in X), TypeError),
         (lambda X: X[..., :1], ValueError)],
        ids=["one-batch", "generator", "width"],
    )
    def test_takes_one_array_per_shift(self, inputs, error):
        # A shift is one B x n x d array of the model's input width; a
        # batch matrix or an iterator of batches is refused before any step.
        X, _ = self._stream(Rng(30))
        model = init_linear(3, 2, Rng(31), scale=0.5)
        before = model.theta.copy()
        with pytest.raises(error):
            adapt_stream(
                model, np.stack([model.theta]), inputs(X), [EmPlugin()], [SgdConfig(lr=0.1)],
                _recorder(np.empty((1, 48, 3)), 16),
            )
        assert np.array_equal(model.theta, before)

    def test_adadem_state_threads_across_batches(self):
        X, _ = self._stream(Rng(33), n_batches=4)
        plugin = AdaDemPlugin(pi=0.2)
        assert plugin.state is None
        model = init_linear(3, 2, Rng(34), scale=0.5)
        probs = _adapt(model, X, plugin, SgdConfig(lr=0.01))
        assert isinstance(plugin.state, MecState)
        assert plugin.state.C == 3
        assert plugin.state.pi == 0.2
        # The table has absorbed all four batches' predictions, in order.
        ref = mec_init(3, pi=0.2)
        for P in probs:
            mec_update(ref, P, np.argmax(P, axis=1))
        np.testing.assert_array_equal(plugin.state.table, ref.table)

    @pytest.mark.parametrize(
        "make_plugin",
        [lambda: DemPlugin(DemConfig(1.3, 0.4)), lambda: AdaDemPlugin(PI)],
        ids=["dem", "adadem"],
    )
    def test_plugins_score_the_returned_probabilities(self, make_plugin, monkeypatch):
        # adapt_stream computes P = softmax_rows(Z) once per batch, into
        # its own K x n x C buffer: the scoring hook gets that buffer, the
        # same C-contiguous float64 array for every batch, and the plugin
        # its model's block, with the bits of softmax_rows(Z); neither
        # writes into it and nothing recomputes it.  dem_rows still takes
        # the softmax of Z / tau, which is another matrix.
        seen = []

        class Recording:
            def __init__(self, inner):
                self.inner = inner

            probs = []

            def batch_eval(self, Z, P):
                seen.append(P)
                self.probs.append(P.copy())
                assert P.tobytes() == softmax_rows(Z).tobytes()
                before = P.copy()
                self.logits = Z
                out = self.inner.batch_eval(Z, P)
                assert np.array_equal(P, before)
                return out

        recording = Recording(make_plugin())
        tempered_only = em_losses._softmax_rows

        def no_softmax_of_the_logits(A, out=None):
            if np.array_equal(A, recording.logits):
                raise AssertionError("softmax_rows recomputed on the logits")
            return tempered_only(A, out)

        def no_softmax(A):
            raise AssertionError("adadem recomputed softmax_rows")

        monkeypatch.setattr(em_losses, "_softmax_rows", no_softmax_of_the_logits)
        # adadem does not import softmax_rows; the guard still catches a
        # later re-import.
        monkeypatch.setattr(adadem, "softmax_rows", no_softmax, raising=False)
        X, _ = self._stream(Rng(42), n_batches=4)
        model = init_mlp(3, 2, 6, Rng(43), INIT_SCALE)
        hooked, scored = [], []

        def score(i, P):
            hooked.append(P)
            scored.append((i, P.copy()))

        adapt_stream(model, np.stack([model.theta]), X, [recording], [SgdConfig(lr=0.05)], score)
        assert len(seen) == 4 and [i for i, _ in scored] == [0, 1, 2, 3]
        probs = hooked[0]
        assert all(P is probs for P in hooked)
        assert probs.dtype == np.float64 and probs.shape == (1, 16, 3)
        assert probs.flags.c_contiguous
        for P in seen:
            assert P.base is probs
            assert (P.shape, P.ctypes.data) == (probs[0].shape, probs[0].ctypes.data)
        # The plugin read each batch's probabilities as the hook saw them.
        assert [P.tobytes() for P in recording.probs] == [b[0].tobytes() for _, b in scored]

    @pytest.mark.parametrize("rows", [47, 49])
    def test_probability_matrix_must_fit_the_stream(self, rows):
        # The buffer holds one batch: a stack that ran batches of 48 rows
        # hands the hook a 1 x rows x 3 buffer for batches of rows rows,
        # with the bits of the stack's own one-shift run.
        model = init_linear(3, 2, Rng(31), scale=0.5)
        theta, cfg = np.stack([model.theta]), SgdConfig(lr=0.01)
        first, _ = self._stream(Rng(30), n_batches=2, batch=48)
        X, _ = self._stream(Rng(32), n_batches=2, batch=rows)
        adapt_stream(model, theta, first, [EmPlugin()], [cfg], lambda i, P: None)
        alone = model.copy()
        alone.theta[:] = theta[0]
        hooked, seen = [], np.empty((1, 2 * rows, 3))
        record = _recorder(seen, rows)

        def score(i, P):
            hooked.append((P.shape, P.ctypes.data))
            record(i, P)

        assert adapt_stream(model, theta, X, [EmPlugin()], [cfg], score) == [None]
        assert hooked == [((1, rows, 3), hooked[0][1])] * 2
        expected = _adapt(alone, X, EmPlugin(), cfg)
        assert seen.tobytes() == expected.tobytes()
        assert theta[0].tobytes() == alone.theta.tobytes()

    @pytest.mark.parametrize("count", [0, 2])
    def test_takes_one_sgd_config_per_model(self, count):
        X, _ = self._stream(Rng(30))
        model = init_linear(3, 2, Rng(31), scale=0.5)
        before = model.theta.copy()
        with pytest.raises(ValueError, match=f"one SgdConfig per stacked model, 1, got {count}"):
            adapt_stream(
                model, np.stack([model.theta]), X, [EmPlugin()], [SgdConfig(lr=0.01)] * count,
                _recorder(np.empty((1, 48, 3)), 16),
            )
        assert np.array_equal(model.theta, before)


class TestStackedRows:
    """``adapt_stream`` over the rows of a caller's ``(K, P)`` array."""

    @staticmethod
    def _pair():
        return init_mlp(3, 2, 6, Rng(1), INIT_SCALE), init_mlp(3, 2, 6, Rng(2), INIT_SCALE)

    def test_each_row_keeps_the_bits_of_its_own_model(self):
        # The caller's array is the one that moves: each row ends with
        # the bits of its model's one-model run, and neither stacked
        # source model moves.
        a, b = self._pair()
        sources = a.theta.tobytes(), b.theta.tobytes()
        X = 2.0 * Rng(7).normals(3 * 16 * 2).reshape(3, 16, 2)
        theta, probs = np.stack([a.theta, b.theta, a.theta]), np.empty((3, 48, 3))
        cfgs = [SgdConfig(0.1, 0.9), SgdConfig(0.2), SgdConfig(0.05, 0.5)]

        def plugins():
            return [EmPlugin(), DemPlugin(DemConfig(1.3, 0.4)), AdaDemPlugin(PI)]

        assert adapt_stream(a, theta, X, plugins(), cfgs, _recorder(probs, 16)) == [None] * 3
        for k, (model, plugin) in enumerate(zip([a, b, a], plugins())):
            alone = model.copy()
            expected = _adapt(alone, X, plugin, cfgs[k])
            assert theta[k].tobytes() == alone.theta.tobytes() != model.theta.tobytes()
            assert probs[k].tobytes() == expected.reshape(48, 3).tobytes()
        assert (a.theta.tobytes(), b.theta.tobytes()) == sources

    @pytest.mark.parametrize(
        "make",
        [lambda t: t[0], lambda t: t[:, :-1], lambda t: np.hstack([t, t[:, :1]]),
         lambda t: t.astype(np.float32), lambda t: np.asfortranarray(t),
         lambda t: np.repeat(t, 2, axis=1)[:, ::2], lambda t: list(t),
         lambda t: np.lib.stride_tricks.as_strided(t, writeable=False)],
        ids=["vector", "narrow", "wide", "float32", "fortran", "column-stepped", "list",
             "read-only"],
    )
    def test_refuses_a_theta_that_is_not_a_stack(self, make):
        # Checked before any step: no plugin runs, the hook sees nothing,
        # and the error names the shape a stack of this model needs.
        a, b = self._pair()
        theta = make(np.stack([a.theta, b.theta]))
        before = np.array(theta).tobytes()

        class Untouched:
            def batch_eval(self, Z, P):
                raise AssertionError("a step ran")

        def score(i, P):
            raise AssertionError("a batch was scored")

        X = np.ones((2, 4, 2))
        match = rf"C-contiguous float64 \(K, {a.theta.size}\) array"
        with pytest.raises(ValueError, match=match):
            adapt_stream(a, theta, X, [Untouched()] * 2, [SgdConfig(0.1)] * 2, score)
        assert np.array(theta).tobytes() == before

    def test_a_model_without_a_plugin_is_carried_along(self):
        # The second model takes no plugin and no SGD call, the others
        # move as they do alone, and every model's probabilities are
        # written.
        X = 2.0 * Rng(3).normals(4 * 16 * 2).reshape(4, 16, 2)
        source = init_mlp(3, 2, 6, Rng(4), INIT_SCALE)
        theta = np.stack([source.theta] * 3)
        probs = np.empty((3, 64, 3))
        cfg = SgdConfig(lr=0.1, momentum=0.9)
        plugins = [EmPlugin(), None, AdaDemPlugin(PI)]
        errors = adapt_stream(source, theta, X, plugins, [cfg] * 3, _recorder(probs, 16))
        assert errors == [None] * 3
        assert np.array_equal(theta[1], source.theta)
        for k in (0, 2):
            alone = source.copy()
            expected = _adapt(alone, X, [EmPlugin(), None, AdaDemPlugin(PI)][k], cfg)
            assert theta[k].tobytes() == alone.theta.tobytes()
            assert probs[k].tobytes() == expected.tobytes()
        frozen = softmax_rows(forward(source, X.reshape(64, 2)))
        assert probs[1].tobytes() == frozen.tobytes()

    def test_a_model_that_diverges_mid_shift_stops_its_calls_alone(self, monkeypatch):
        # Of four models over four batches, model 1's loss gradients turn
        # NaN at batch 1, and model 2's first step overflows its
        # parameters, so its logits at batch 1 are not finite.  Each makes
        # its plugin and SGD calls up to there, the other two make all of
        # theirs, every batch in model order, and they keep the bits of
        # their own one-model runs.
        calls = []

        class Recording:
            def __init__(self, k, poison=lambda batch, grads: None):
                self.k, self.poison, self.batch = k, poison, -1

            def batch_eval(self, Z, P):
                self.batch += 1
                calls.append(("eval", self.k))
                grads = EmPlugin().batch_eval(Z, P)
                self.poison(self.batch, grads)
                return grads

        def nan_from_batch_1(batch, grads):
            if batch >= 1:
                grads[0, 0] = np.nan

        def huge(batch, grads):
            grads[...] = 1e300

        X = 2.0 * Rng(3).normals(4 * 16 * 2).reshape(4, 16, 2)
        source = init_mlp(3, 2, 6, Rng(4), INIT_SCALE)
        theta = np.stack([source.theta] * 4)
        rows, step = [row.ctypes.data for row in theta], demkit.model.sgd_step

        def recorded(row, g, cfg, state):
            calls.append(("sgd", rows.index(row.ctypes.data)))
            step(row, g, cfg, state)

        monkeypatch.setattr(demkit.model, "sgd_step", recorded)
        cfg = SgdConfig(lr=0.1, momentum=0.9)
        cfgs = [cfg, cfg, SgdConfig(lr=1e300), cfg]
        plugins = [Recording(0), Recording(1, nan_from_batch_1), Recording(2, huge), Recording(3)]
        errors = adapt_stream(source, theta, X, plugins, cfgs, lambda i, P: None)
        assert [(e.stage, e.batch) if e else None for e in errors] == [
            None, ("loss gradients", 1), ("logits", 1), None
        ]
        expected = [("eval", k) for k in range(4)] + [("sgd", k) for k in range(4)]
        expected += [("eval", 0), ("eval", 1), ("eval", 3), ("sgd", 0), ("sgd", 3)]
        expected += [("eval", 0), ("eval", 3), ("sgd", 0), ("sgd", 3)] * 2
        assert calls == expected
        monkeypatch.undo()
        for k in (0, 3):
            alone = source.copy()
            _adapt(alone, X, EmPlugin(), cfg)
            assert theta[k].tobytes() == alone.theta.tobytes()

    def test_each_model_steps_with_its_own_optimizer(self):
        # Models of one stack at different rates and momenta, lr = 0
        # among them, each keep the bits of their own one-model run.
        X = 2.0 * Rng(5).normals(4 * 16 * 2).reshape(4, 16, 2)
        source = init_mlp(3, 2, 6, Rng(6), INIT_SCALE)
        cfgs = [SgdConfig(0.1, 0.9), SgdConfig(0.0, 0.9), SgdConfig(0.03), SgdConfig(0.1, 0.5)]
        theta, probs = np.stack([source.theta] * 4), np.empty((4, 64, 3))
        plugins = [AdaDemPlugin(PI) for _ in cfgs]
        errors = adapt_stream(source, theta, X, plugins, cfgs, _recorder(probs, 16))
        assert errors == [None] * 4
        assert theta[1].tobytes() == source.theta.tobytes()
        for k, cfg in enumerate(cfgs):
            alone = source.copy()
            expected = _adapt(alone, X, AdaDemPlugin(PI), cfg)
            assert theta[k].tobytes() == alone.theta.tobytes()
            assert probs[k].tobytes() == expected.reshape(64, 3).tobytes()


@pytest.mark.parametrize("hidden", [None, 1, 32])
@pytest.mark.parametrize("C, n", [(2, 1), (10, 64), (37, 5)])
def test_step_bytes_counts_what_one_models_step_holds(hidden, C, n):
    # What a one-model stack's step allocates: the buffers its workspace
    # owns (the arrays that view no other), an SgdState's two vectors
    # after a step, and adapt_stream's two n x C finiteness masks; and
    # the parameter row the step moves.
    model = init_linear(C, 2) if hidden is None else init_mlp(C, 2, hidden, Rng(C), INIT_SCALE)
    theta = np.stack([model.theta])
    ws = demkit.model._Workspace(model, n, theta)
    owned = [a for a in vars(ws).values() if isinstance(a, np.ndarray) and a.base is None]
    state = SgdState()
    sgd_step(theta[0], np.zeros(model.theta.size), SgdConfig(0.1), state)
    held = sum(a.nbytes for a in owned) + theta[0].nbytes
    held += state.velocity.nbytes + state.scaled.nbytes + 2 * n * C
    assert step_bytes(model, n) == held


class TestStepKernels:
    """The buffered kernels against :func:`_inline_forward` and
    :func:`_inline_step`, and one model's against a stack's, bit for bit."""

    @staticmethod
    def _make(arch):
        if arch == "linear":
            return init_linear(3, 2, Rng(9), scale=0.5)
        return init_mlp(3, 2, 6, Rng(9), INIT_SCALE)

    @staticmethod
    def _shifts(shapes, seed=11):
        """One ``B x n x 2`` input array per ``(B, n)`` in ``shapes``."""
        rng = Rng(seed)
        return [2.0 * rng.normals(B * n * 2).reshape(B, n, 2) for B, n in shapes]

    @pytest.mark.parametrize("arch", ["linear", "mlp"])
    def test_the_workspace_picks_its_product_from_its_shape(self, arch):
        # np.dot on one model of more than one row; np.matmul on one row,
        # and on any stack.
        model = self._make(arch)
        for n in (1, 2, 64):
            one = demkit.model._Workspace(model, n, model.theta)
            assert one.product is (np.dot if n > 1 else np.matmul), n
            stack = demkit.model._Workspace(model, n, model.theta[None].copy())
            assert stack.product is np.matmul, n

    @pytest.mark.parametrize("arch", ["linear", "mlp"])
    def test_train_source_matches_inline_arithmetic(self, arch):
        # 120 rows in batches of 36 leave a short last batch of 12.  No
        # batch size is a power of two, so dividing by it rounds.
        X, y = _blobs(Rng(8).derive("data"), 40, TestTrainSource.MEANS)
        cfg = SgdConfig(lr=0.2, momentum=0.9)
        trained = train_source(self._make(arch), X, y, 3, cfg, Rng(10), batch_size=36)

        ref, rng = self._make(arch), Rng(10)
        v, T = np.zeros_like(ref.theta), np.eye(3)[y]
        for _ in range(3):
            order = rng.permutation(X.shape[0])
            for start in range(0, X.shape[0], 36):
                idx = order[start : start + 36]
                Z, cache = _inline_forward(ref, X[idx])
                _inline_step(ref, X[idx], softmax_rows(Z) - T[idx], cache, cfg, v)
        assert trained.theta.tobytes() == ref.theta.tobytes()

    @staticmethod
    def _source_steps(monkeypatch, model, X, y, batch_size):
        """Each ``(X, ws)`` that one epoch of :func:`train_source` hands
        ``_forward``, ``X`` copied as it was fed."""
        steps, kernel = [], demkit.model._forward

        def recorded(Xb, ws):
            steps.append((Xb.copy(), ws))
            assert Xb.dtype == np.float64 and Xb.flags.c_contiguous
            return kernel(Xb, ws)

        monkeypatch.setattr(demkit.model, "_forward", recorded)
        train_source(model, X, y, 1, SgdConfig(lr=0.1, momentum=0.9), Rng(3), batch_size)
        monkeypatch.undo()
        return steps

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("C", [2, 10])
    @pytest.mark.parametrize("hidden", [None, 1, 2, 32], ids=["linear", "h1", "h2", "h32"])
    def test_source_steps_give_the_bits_of_a_one_model_stack(self, monkeypatch, hidden, C, d):
        # train_source multiplies with np.dot on its workspaces of more
        # than one row and with np.matmul on a one-row one, as a stack
        # does.  On each workspace it builds and the rows it feeds them,
        # the logits and the flat gradient must be the bits of row 0 of a
        # one-model stack's, and both those of the inline `@` arithmetic;
        # the equality is observed on the tested BLAS, not guaranteed.
        # Batches of 64, 3 and 1 rows: 64 is the shipped batch size, and
        # 65 and 7 rows leave a one-row last batch.
        if hidden is None:
            model = init_linear(C, d)
        else:
            model = init_mlp(C, d, hidden, Rng(9), INIT_SCALE)
        model.theta[:] = Rng(4).normals(model.theta.size)
        for rows, batch_size in ((65, 64), (7, 3)):
            X = 2.0 * Rng(rows).normals(rows * d).reshape(rows, d)
            X[::3, 0] = 0.0
            y = np.arange(rows) % C
            steps = self._source_steps(monkeypatch, model, X, y, batch_size)
            assert [len(Xb) for Xb, _ in steps] == [batch_size] * (rows // batch_size) + [1]
            for Xb, ws in {id(ws): (Xb, ws) for Xb, ws in steps}.values():
                n = Xb.shape[0]
                case = f"{n} rows of {rows}"
                assert ws.product is (np.dot if n > 1 else np.matmul), case
                outs, product = [], ws.product

                def recorded(a, b, out):
                    outs.append(out)
                    return product(a, b, out=out)

                ws.product = recorded
                dlogits = Rng(n + 1).normals(n * C).reshape(n, C)
                Z = demkit.model._forward(Xb, ws).copy()
                g = demkit.model._backward(Xb, dlogits, ws).copy()
                assert len(outs) == (2 if hidden is None else 5), case
                for out in outs:
                    assert out.dtype == np.float64 and out.flags.c_contiguous, case

                stacked = demkit.model._Workspace(model, n, model.theta[None].copy())
                assert stacked.product is np.matmul
                Zs = demkit.model._forward(Xb, stacked)
                gs = demkit.model._backward(Xb, dlogits, stacked)
                assert Z.tobytes() == Zs[0].tobytes(), case
                assert g.tobytes() == gs[0].tobytes(), case
                Zi, cache = _inline_forward(model, Xb)
                assert Z.tobytes() == Zi.tobytes(), case
                assert g.tobytes() == _inline_grad(model, Xb, dlogits, cache).tobytes(), case

    def test_a_one_row_source_step_keeps_matmul(self, monkeypatch):
        # np.dot multiplies two 1 x 1 operands as scalars: the dead unit's
        # input gradient, +0.0 times the input -1.0, would be -0.0, where
        # np.matmul, as a stack multiplies, sums it from +0.0.
        model = Mlp(W1=[[1.0]], b1=[-5.0], W2=[[1.0], [-1.0]], b2=[0.0, 0.0])
        X, dlogits = np.array([[-1.0]]), np.array([[0.5, -0.5]])
        [(_, ws)] = self._source_steps(monkeypatch, model, X, [1], 1)
        stacked = demkit.model._Workspace(model, 1, model.theta[None].copy())
        assert ws.product is np.matmul
        demkit.model._forward(X, ws)
        demkit.model._forward(X, stacked)
        g = demkit.model._backward(X, dlogits, ws)
        assert g.tobytes() == demkit.model._backward(X, dlogits, stacked)[0].tobytes()
        assert math.copysign(1.0, g[0]) == 1.0

    @pytest.mark.parametrize("arch", ["linear", "mlp"])
    def test_a_stacks_backward_gives_each_model_its_own_bits(self, arch):
        # A stack sums its output-bias gradient over a copy of its logit
        # gradients held in ws.P; whatever P held, each model's gradient
        # is the bits of its own one-model call, for gradients passed in
        # or already in ws.G, as adapt_stream passes them.
        model, K, n = self._make(arch), 4, 64
        theta = Rng(13).normals(K * model.theta.size).reshape(K, -1)
        (X,) = self._shifts([(1, n)], seed=14)
        X = X[0]
        dlogits = 3.0 * Rng(15).normals(K * n * model.C).reshape(K, n, model.C)
        ws = demkit.model._Workspace(model, n, theta)
        for given in (dlogits, ws.G):
            demkit.model._forward(X, ws)
            ws.G[...] = dlogits
            ws.P[...] = np.nan
            g = demkit.model._backward(X, given, ws)
            for k in range(K):
                alone = model.copy()
                alone.theta[:] = theta[k]
                assert g[k].tobytes() == backward(alone, X, dlogits[k]).tobytes()

    def test_a_stacks_backward_allocates_no_copy_of_the_stack(self):
        # The stacked bias sum's copy lives in ws.P: the traced peak of a
        # step stays below half of one K x n x C buffer.
        model, K, n = self._make("mlp"), 4, 4096
        theta = np.stack([model.theta] * K)
        X = Rng(16).normals(n * 2).reshape(n, 2)
        ws = demkit.model._Workspace(model, n, theta)
        demkit.model._forward(X, ws)
        ws.G[...] = 1.0
        demkit.model._backward(X, ws.G, ws)  # warm numpy's caches
        tracemalloc.start()
        try:
            demkit.model._backward(X, ws.G, ws)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < ws.G.nbytes // 2, peak

    @pytest.mark.parametrize("arch", ["linear", "mlp"])
    def test_adapt_stream_matches_inline_arithmetic(self, arch):
        # Three shifts through one model and one AdaDEM state, as a
        # continual protocol runs them: batches of 64, 100 (not a power
        # of two, so dividing by it rounds) and 1 row.
        shifts = self._shifts([(2, 64), (3, 100), (4, 1)])
        cfg = SgdConfig(lr=0.1, momentum=0.9)
        model, ref = self._make(arch), self._make(arch)
        plugin, ref_plugin = AdaDemPlugin(PI), AdaDemPlugin(PI)
        for X in shifts:
            probs = _adapt(model, X, plugin, cfg)
            expected = _inline_adapt(ref, X, ref_plugin, cfg)
            assert model.theta.tobytes() == ref.theta.tobytes()
            assert probs.tobytes() == np.stack(expected).tobytes()

    @pytest.mark.parametrize("arch", ["linear", "mlp"])
    def test_workspace_never_aliases_the_returned_probabilities(self, arch, monkeypatch):
        # The logits handed to the plugins and the loss gradients live in
        # the loop's one workspace, reused by every batch; the K x n x C
        # probabilities it hands the scoring hook are one C-contiguous
        # float64 array, the same for every batch, that shares memory
        # with neither.
        (X,) = self._shifts([(4, 64)], seed=12)
        seen, hooked = [], []

        class Recording:
            inner = DemPlugin(DemConfig(1.3, 0.4))

            def batch_eval(self, Z, P):
                seen.append(Z)
                return self.inner.batch_eval(Z, P)

        model = self._make(arch)
        theta, probs = np.stack([model.theta] * 2), np.empty((2, 4 * 64, 3))
        record = _recorder(probs, 64)
        built, workspace = [], demkit.model._Workspace

        def building(*args):
            built.append(workspace(*args))
            return built[-1]

        monkeypatch.setattr(demkit.model, "_Workspace", building)

        def score(i, P):
            hooked.append(P)
            record(i, P)

        cfg = SgdConfig(lr=0.1, momentum=0.5)
        adapt_stream(model, theta, X, [Recording(), Recording()], [cfg] * 2, score)
        (ws,), batch = built, hooked[0]
        assert len(hooked) == 4 and all(P is batch for P in hooked)
        assert batch.dtype == np.float64 and batch.shape == (2, 64, 3)
        assert batch.flags.c_contiguous
        assert not any(np.shares_memory(batch, Z) for Z in seen)
        assert not np.shares_memory(batch, ws.Z) and not np.shares_memory(batch, ws.G)
        assert len(seen) == 8 and all(Z.base is ws.Z for Z in seen)
        expected = _inline_adapt(self._make(arch), X, DemPlugin(DemConfig(1.3, 0.4)), cfg)
        for block in probs:
            assert block.tobytes() == np.concatenate(expected).tobytes()


class TestPlugins:
    def test_em_plugin_matches_scalar_eval(self):
        Z = np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]])
        values, grads = em_row_values(Z), _batch_eval(EmPlugin(), Z)
        for i, z in enumerate(Z):
            out = em_eval(z)
            assert abs(values[i] - out.value) < 1e-12
            np.testing.assert_allclose(grads[i], out.grad, atol=1e-12)
