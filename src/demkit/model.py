"""Tiny differentiable classifiers and the online adaptation loop.

Experiments run a one-hidden-layer rectifier MLP; a linear softmax head
remains for ``gradcheck`` and the tests.  Backpropagation is written out
by hand: every loss in this package exposes exact per-sample gradients with
respect to the logits, and ``backward`` chains them into parameter
gradients with mean reduction over the batch, so the learning-rate scale
is batch-size invariant.

Each model stores its parameters in one float64 vector ``theta``; the
weight matrices and biases are reshaped views of it.  Gradients, SGD
velocity and updates are flat vectors laid out like ``theta``.

``adapt_stream`` is the online protocol over one shift, a ``B x n x d``
array of ``B`` unlabeled batches of ``n`` rows: for each batch the model
first predicts (the loop writes these pre-update probabilities into the
caller's matrix for scoring), then the loss plugin turns the logits and
those probabilities into per-sample gradients, and one SGD step is
applied.
Plugins wrap the loss family: cross-entropy (supervised plumbing for
source training and oracle baselines), classical EM, decoupled EM, and
AdaDEM, which carries its calibrator state through the whole stream.

Validation follows the convention of :mod:`demkit.numkit`: the public
functions validate their input once (finite float64 inputs of the
model's input width; ``adapt_stream`` checks a whole shift at once) and
hand it to the private kernels ``_forward`` and ``_backward``, which
check nothing.  The kernels are the only forward and backward pass, and
they write into a :class:`_Workspace` instead of allocating: it holds
the logits, the MLP's hidden activations (which ``_backward`` reuses
instead of recomputing the forward pass), the backward intermediates
and one flat gradient laid out like ``theta``.  The step loops
(``train_source``, ``adapt_stream``) build their workspaces once per
call and run ``_forward`` and ``_backward`` once per step; the public
``forward`` and ``backward`` run them on a fresh workspace, so what they
return belongs to the caller.  ``sgd_step`` likewise writes ``lr * v``
into a scratch vector of its :class:`SgdState`.

The plugin contract of ``adapt_stream``: the ``Z`` handed to
``batch_eval`` is a workspace buffer that the next step overwrites, so a
plugin reads it and neither keeps it nor writes into it; ``P`` is the
batch's rows of the caller's matrix, and is read only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import adadem as _adadem
from . import em_losses as _em
from .numkit import _logsumexp, _softmax_rows, as_matrix, as_vector, logsumexp_rows, softmax_rows

__all__ = [
    "LinearSoftmax",
    "Mlp",
    "init_linear",
    "init_mlp",
    "forward",
    "backward",
    "cross_entropy_eval",
    "SgdConfig",
    "SgdState",
    "sgd_step",
    "train_source",
    "adapt_stream",
    "CrossEntropyPlugin",
    "EmPlugin",
    "DemPlugin",
    "AdaDemPlugin",
    "DivergenceError",
]


def _views(flat: np.ndarray, arrays) -> list:
    """Views of ``flat``, end to end, shaped like each of ``arrays`` in order."""
    views, start = [], 0
    for a in arrays:
        views.append(flat[start : start + a.size].reshape(a.shape))
        start += a.size
    return views


def _pack(*arrays):
    """``(theta, views)``: one float64 vector holding a copy of ``arrays``
    end to end, and a view of it shaped like each array, in order."""
    arrays = [np.asarray(a, dtype=np.float64) for a in arrays]
    theta = np.concatenate([a.ravel() for a in arrays])
    return theta, _views(theta, arrays)


class LinearSoftmax:
    """Logits = W x + b with W of shape C x d.

    ``theta`` holds ``W`` then ``b``; both are views of it.
    """

    def __init__(self, W, b):
        self.theta, (self.W, self.b) = _pack(W, b)

    def copy(self) -> "LinearSoftmax":
        return LinearSoftmax(self.W, self.b)

    @property
    def C(self) -> int:
        return self.W.shape[0]


class Mlp:
    """Logits = W2 relu(W1 x + b1) + b2.

    ``theta`` holds ``W1``, ``b1``, ``W2``, ``b2`` in that order, each a
    view of it.
    """

    def __init__(self, W1, b1, W2, b2):
        self.theta, (self.W1, self.b1, self.W2, self.b2) = _pack(W1, b1, W2, b2)

    def copy(self) -> "Mlp":
        return Mlp(self.W1, self.b1, self.W2, self.b2)

    @property
    def C(self) -> int:
        return self.W2.shape[0]


def init_linear(C: int, d: int, rng=None, scale: float = 0.0) -> LinearSoftmax:
    """Linear model; zero-initialized by default (uniform predictions)."""
    if rng is not None and scale > 0.0:
        W = scale * rng.normals(C * d).reshape(C, d)
    else:
        W = np.zeros((C, d))
    return LinearSoftmax(W, np.zeros(C))


def init_mlp(C: int, d: int, hidden: int, rng, scale: float = 0.5) -> Mlp:
    """MLP with normal-initialized weights and zero biases.

    The output layer is scaled down by sqrt(hidden) so initial logits
    stay O(1) regardless of width.
    """
    if hidden < 1:
        raise ValueError(f"hidden width must be positive, got {hidden}")
    W1 = scale * rng.normals(hidden * d).reshape(hidden, d)
    W2 = scale * rng.normals(C * hidden).reshape(C, hidden) / np.sqrt(hidden)
    return Mlp(W1, np.zeros(hidden), W2, np.zeros(C))


def _validated_input(model, X) -> np.ndarray:
    """``X`` as a finite float64 matrix of the model's input width."""
    X = as_matrix(X)
    if isinstance(model, LinearSoftmax):
        width = model.W.shape[1]
    elif isinstance(model, Mlp):
        width = model.W1.shape[1]
    else:
        raise TypeError(f"unknown model type {type(model).__name__}")
    if X.shape[1] != width:
        raise ValueError("input dimension does not match the model")
    return X


class _Workspace:
    """The buffers of one step loop, reused by every step of ``n`` rows.

    Row buffers hold one batch: the logits ``Z`` (``n x C``), the MLP's
    hidden pre- and post-activations ``H`` and ``A`` (``n x hidden``;
    zero columns wide for the linear model), the scaled logit gradients
    ``G``, the hidden gradient ``dH`` and the rectifier mask ``M``.
    ``g`` is one flat parameter gradient laid out like ``theta``, and
    ``grads`` are its views shaped like the model's arrays (``W``, ``b``
    or ``W1``, ``b1``, ``W2``, ``b2``).
    """

    def __init__(self, model, n: int):
        mlp = isinstance(model, Mlp)
        C, h = model.C, model.W1.shape[0] if mlp else 0
        self.Z, self.H, self.A = np.empty((n, C)), np.empty((n, h)), np.empty((n, h))
        self.G, self.dH, self.M = np.empty((n, C)), np.empty((n, h)), np.empty((n, h), bool)
        self.g = np.empty_like(model.theta)
        arrays = (model.W1, model.b1, model.W2, model.b2) if mlp else (model.W, model.b)
        self.grads = _views(self.g, arrays)


def _forward(model, X: np.ndarray, ws: _Workspace) -> np.ndarray:
    """Kernel of :func:`forward` for validated input of ``ws``'s rows.

    Writes the logits into ``ws.Z`` (returned) and, for the MLP, the
    hidden activations into ``ws.H`` and ``ws.A``, where
    :func:`_backward` reads them.
    """
    Z = ws.Z
    if isinstance(model, Mlp):
        H, A = ws.H, ws.A
        np.matmul(X, model.W1.T, out=H)
        H += model.b1
        np.maximum(H, 0.0, out=A)
        np.matmul(A, model.W2.T, out=Z)
        Z += model.b2
    else:
        np.matmul(X, model.W.T, out=Z)
        Z += model.b
    return Z


def _backward(model, X: np.ndarray, dlogits: np.ndarray, ws: _Workspace) -> np.ndarray:
    """Kernel of :func:`backward`: the flat gradient, written into ``ws.g``
    (returned).  ``ws`` holds what ``_forward(model, X, ws)`` wrote."""
    G = np.divide(dlogits, X.shape[0], out=ws.G)
    if isinstance(model, Mlp):
        gW1, gb1, gW2, gb2 = ws.grads
        dH = np.matmul(G, model.W2, out=ws.dH)
        dH *= np.greater(ws.H, 0.0, out=ws.M)
        np.matmul(dH.T, X, out=gW1)
        np.add.reduce(dH, axis=0, out=gb1)
        np.matmul(G.T, ws.A, out=gW2)
        np.add.reduce(G, axis=0, out=gb2)
    else:
        gW, gb = ws.grads
        np.matmul(G.T, X, out=gW)
        np.add.reduce(G, axis=0, out=gb)
    return ws.g


def forward(model, X) -> np.ndarray:
    """Batch logits, shape n x C."""
    X = _validated_input(model, X)
    return _forward(model, X, _Workspace(model, X.shape[0]))


def backward(model, X, dlogits) -> np.ndarray:
    """Parameter gradient of the batch-mean loss.

    ``dlogits`` holds per-sample loss gradients with respect to the
    logits; the result is the gradient of ``mean_s loss_s`` with respect
    to ``model.theta``, one flat vector laid out like it.
    """
    X = _validated_input(model, X)
    dlogits = as_matrix(dlogits)
    if dlogits.shape != (X.shape[0], model.C):
        raise ValueError(
            f"dlogits must be {X.shape[0]} x {model.C} (batch x classes), got {dlogits.shape}"
        )
    ws = _Workspace(model, X.shape[0])
    _forward(model, X, ws)
    return _backward(model, X, dlogits, ws)


def cross_entropy_eval(z, target: int) -> _em.LossEval:
    """Supervised cross-entropy: ``logsumexp(z) - z_target``."""
    z = as_vector(z, min_len=2)
    if not 0 <= target < z.shape[0]:
        raise ValueError(f"target {target} out of range for {z.shape[0]} classes")
    grad = softmax_rows(z[None, :])[0]
    grad[target] -= 1.0
    return _em.LossEval(_cross_entropy_value(z, target), grad)


def _cross_entropy_value(z: np.ndarray, target: int) -> float:
    """Value kernel of :func:`cross_entropy_eval` for a validated vector."""
    return _logsumexp(z) - float(z[target])


def _ce_row_values(Z: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Per-row cross-entropy values: ``logsumexp(Z) - Z[target]``."""
    return logsumexp_rows(Z) - Z[np.arange(Z.shape[0]), targets]


@dataclass(frozen=True)
class SgdConfig:
    """SGD with optional heavy-ball momentum.

    ``lr = 0`` is allowed and leaves the model untouched, which gives the
    no-adapt baseline.
    """

    lr: float
    momentum: float = 0.0

    def __post_init__(self):
        if self.lr < 0:
            raise ValueError(f"learning rate must be non-negative, got {self.lr}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must lie in [0, 1), got {self.momentum}")


@dataclass
class SgdState:
    """The velocity vector, shaped like ``theta``, and the step's scratch
    vector ``scaled`` for ``lr * v``; both created on the first step."""

    velocity: np.ndarray | None = field(default=None, init=False)
    scaled: np.ndarray | None = field(default=None, init=False, repr=False)


def sgd_step(model, grad: np.ndarray, cfg: SgdConfig, state: SgdState) -> None:
    """One in-place step: ``v <- momentum v + g``, ``theta <- theta - lr v``."""
    if state.velocity is None:
        state.velocity, state.scaled = np.zeros_like(model.theta), np.empty_like(model.theta)
    v = state.velocity
    v *= cfg.momentum
    v += grad
    model.theta -= np.multiply(v, cfg.lr, out=state.scaled)


class CrossEntropyPlugin:
    """Supervised loss on fixed targets; plumbing for oracles and tests."""

    def __init__(self, targets):
        self.targets = np.asarray(targets, dtype=np.int64)

    def batch_eval(self, Z: np.ndarray, P: np.ndarray) -> np.ndarray:
        if Z.shape[0] != self.targets.shape[0]:
            raise ValueError("batch size does not match the stored targets")
        # train_source's rule: subtract 1 at each row's target, here on a copy.
        G = P.copy()
        G[np.arange(Z.shape[0]), self.targets] -= 1.0
        return G


class EmPlugin:
    """Classical entropy minimization."""

    def batch_eval(self, Z: np.ndarray, P: np.ndarray) -> np.ndarray:
        # em_rows builds its probabilities as exp(Z - lse), whose bits
        # differ from softmax_rows(Z), so P is not used here.
        return _em.em_rows(Z)


class DemPlugin:
    """Decoupled EM at a fixed (tau, alpha)."""

    def __init__(self, cfg: _em.DemConfig):
        self.cfg = cfg

    def batch_eval(self, Z: np.ndarray, P: np.ndarray) -> np.ndarray:
        return _em.dem_rows(Z, P, self.cfg)


class AdaDemPlugin:
    """AdaDEM; owns a MecState, created on the first batch and threaded
    across every batch it sees."""

    def __init__(self, pi: float = 0.1):
        self.pi = pi
        self.state = None

    def batch_eval(self, Z: np.ndarray, P: np.ndarray) -> np.ndarray:
        if self.state is None:
            self.state = _adadem.mec_init(Z.shape[1], pi=self.pi)
        return _adadem.adadem_rows(Z, P, self.state)


class DivergenceError(FloatingPointError):
    """Adaptation produced non-finite logits or loss gradients.

    ``stage`` is ``"logits"`` or ``"loss gradients"``, ``batch`` the
    index of the batch within its stream, and ``shift`` the index of the
    shift within the protocol when one is known.
    """

    def __init__(self, stage: str, batch: int, shift: int | None = None):
        where = f"batch {batch}" if shift is None else f"shift {shift}, batch {batch}"
        super().__init__(f"adaptation diverged at {where}: non-finite {stage}")
        self.stage = stage
        self.batch = batch
        self.shift = shift


def _validated_labels(y, shape: tuple, C: int) -> np.ndarray:
    """``y`` as an integer array of ``shape`` holding labels in ``[0, C)``."""
    y = np.asarray(y)
    if y.dtype.kind not in "iu":
        raise ValueError(f"labels must be integers, got {y.dtype}")
    if y.shape != shape:
        raise ValueError(f"labels must be one per input row, shape {shape}, got {y.shape}")
    if y.min() < 0 or y.max() >= C:
        raise ValueError(f"labels must lie in [0, {C})")
    return y


def train_source(model, X, y, epochs: int, cfg: SgdConfig, rng, batch_size: int = 64):
    """Mini-batch supervised training on labeled data; returns the model.

    Shuffles with the supplied generator each epoch, so a fixed seed
    yields bit-identical parameters.  ``epochs = 0`` leaves the model
    unchanged.  ``X`` and ``y`` are validated once: ``y`` must hold one
    integer label in ``[0, C)`` per row of ``X`` (``ValueError``
    otherwise).

    Each epoch refills in place one shuffled copy of ``X`` and one
    vector of each row's target as a flat position in its batch's
    logits, so no ``n x C`` array is held.  A step runs the forward pass
    once, writes ``softmax(Z)`` into its workspace and subtracts 1 at
    the targets there (no loss values), and the backward pass reuses
    the forward activations.  Steps write into a :class:`_Workspace`
    sized once per call, and a short last batch into a second.
    ``batch_size < 1`` and ``epochs < 0`` raise ``ValueError``.
    Non-finite parameters, checked once per epoch with numpy's overflow
    and invalid-value warnings silenced, raise ``FloatingPointError``
    naming the epoch.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be at least 1, got {batch_size}")
    if epochs < 0:
        raise ValueError(f"epochs must be non-negative, got {epochs}")
    X = _validated_input(model, X)
    n, C = X.shape[0], model.C
    if n == 0:
        raise ValueError("empty training set")
    y = _validated_labels(y, (n,), C)
    size = min(batch_size, n)
    full = _Workspace(model, size)
    last = _Workspace(model, n % size) if n % size else full
    state = SgdState()
    # Row i of an epoch's order sits at row i % size of its batch, whose
    # logits start at flat position (i % size) * C of the batch's G.
    slots = np.arange(n) % size * C
    Xo, hot = np.empty(X.shape), np.empty(n, np.intp)
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(epochs):
            order = rng.permutation(n)
            np.take(X, order, axis=0, out=Xo)
            np.add(slots, y[order], out=hot)
            for start in range(0, n, size):
                Xb = Xo[start : start + size]
                ws = full if start + size <= n else last
                G = _softmax_rows(_forward(model, Xb, ws), ws.G)
                G.reshape(-1)[hot[start : start + size]] -= 1.0
                sgd_step(model, _backward(model, Xb, G, ws), cfg, state)
            if not np.isfinite(model.theta).all():
                raise FloatingPointError(f"source training diverged in epoch {epoch}")
    return model


def adapt_stream(model, X, plugin, cfg: SgdConfig, probs: np.ndarray) -> None:
    """Online adaptation: predict, update, repeat.

    ``X`` is one shift's unlabeled inputs, a ``B x n x d`` array of ``B``
    batches of ``n`` rows, so the loop never sees a label.  For each
    batch ``X[i]`` the model first predicts, then
    ``plugin.batch_eval(Z, P)`` turns the logits ``Z`` and their
    probabilities ``P = softmax_rows(Z)`` into the ``n x C`` matrix of
    per-sample loss gradients with respect to the logits (gradients
    only: nothing here reads a loss value), and one SGD step moves
    ``model`` in place.

    ``probs`` is the caller's C-contiguous float64 ``(B * n) x C``
    matrix: batch ``i``'s pre-update probabilities are written into its
    rows ``i * n`` to ``(i + 1) * n``, so after the call ``probs`` holds
    the whole shift's, in order, for the caller to score.  ``X`` and
    ``probs`` are validated once, before the first step
    (``ValueError``).

    The plugin contract: ``P`` is the batch's rows of ``probs``, so a
    plugin reads it and never writes into it.  ``Z`` is a buffer of
    the loop's :class:`_Workspace` that the next step overwrites, so a
    plugin reads it during ``batch_eval`` and neither keeps it nor
    writes into it.

    Each call starts from a fresh :class:`SgdState`, so momentum never
    carries over from one call to the next: a continual protocol, which
    calls this once per shift, resets momentum at every shift while the
    model and the plugin's state carry over.

    Non-finite logits or loss gradients raise :class:`DivergenceError`
    naming the batch.  Those two checks are the only report of a
    diverging step: numpy's overflow and invalid-value warnings are
    silenced for the loop, since a step that overflows fails one of them.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 3:
        raise ValueError(f"a shift's inputs must be B x n x d, got shape {X.shape}")
    _validated_input(model, X.reshape(-1, X.shape[2]))
    B, n, C = X.shape[0], X.shape[1], model.C
    if not (
        isinstance(probs, np.ndarray)
        and probs.dtype == np.float64
        and probs.shape == (B * n, C)
        and probs.flags.c_contiguous
    ):
        raise ValueError(f"probs must be a C-contiguous float64 matrix of {B * n} x {C}")
    blocks = probs.reshape(B, n, C)
    state, ws = SgdState(), _Workspace(model, n)
    with np.errstate(over="ignore", invalid="ignore"):
        for i, Xi in enumerate(X):
            Z = _forward(model, Xi, ws)
            if not np.isfinite(Z).all():
                raise DivergenceError("logits", i)
            P = _softmax_rows(Z, blocks[i])
            dlogits = plugin.batch_eval(Z, P)
            if not np.isfinite(dlogits).all():
                raise DivergenceError("loss gradients", i)
            sgd_step(model, _backward(model, Xi, dlogits, ws), cfg, state)
