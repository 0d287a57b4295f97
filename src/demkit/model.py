"""Tiny differentiable classifiers and the online adaptation loop.

Two architectures cover the experiments: a linear softmax head and a
one-hidden-layer rectifier MLP.  Backpropagation is written out by hand:
every loss in this package exposes exact per-sample gradients with
respect to the logits, and ``backward`` chains them into parameter
gradients with mean reduction over the batch, so the learning-rate scale
is batch-size invariant.

Each model stores its parameters in one float64 vector ``theta``; the
weight matrices and biases are reshaped views of it, and ``model.head``
is the offset where the final linear layer starts.  Gradients, SGD
velocity and updates are flat vectors laid out like ``theta``, so the
head-only scope is the slice ``theta[head:]``.

``adapt_stream`` is the online protocol: for each unlabeled batch the
model first predicts (the loop returns these pre-update probabilities
for scoring), then the loss plugin turns the logits and those
probabilities into per-sample gradients, and one SGD step is applied.
Plugins wrap the loss family: cross-entropy (supervised plumbing for
source training and oracle baselines), classical EM, decoupled EM, and
AdaDEM, which carries its calibrator state through the whole stream.

Validation follows the convention of :mod:`demkit.numkit`: the public
``forward`` and ``backward`` validate their input once (a finite float64
matrix of the model's input width) and hand it to the private kernels
``_forward`` and ``_backward``, which check nothing.  The kernels are
the only forward and backward pass, and they write into a
:class:`_Workspace` instead of allocating: it holds the logits, the MLP's
hidden activations (which ``_backward`` reuses instead of recomputing
the forward pass), the backward intermediates and one flat gradient
laid out like ``theta``.  The step loops (``train_source``,
``adapt_stream``) build one workspace per call, validate each batch once
and run ``_forward`` and ``_backward`` once per step; the public
``forward`` and ``backward`` run them on a fresh workspace, so what they
return belongs to the caller.  ``sgd_step`` likewise writes ``lr * v``
into a scratch vector of its :class:`SgdState`.

The plugin contract of ``adapt_stream``: the ``Z`` handed to
``batch_eval`` is a workspace buffer that the next step overwrites, so a
plugin reads it and neither keeps it nor writes into it; ``P`` is a
fresh array per batch, the one the loop returns, and is read only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import adadem as _adadem
from . import em_losses as _em
from .numkit import _logsumexp, as_matrix, as_vector, logsumexp_rows, softmax_rows

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

    ``theta`` holds ``W`` then ``b``; both are views of it.  The whole
    model is the head, so ``head = 0``.
    """

    head = 0

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
    view of it; the head (``W2``, ``b2``) is ``theta[head:]``.
    """

    def __init__(self, W1, b1, W2, b2):
        self.theta, (self.W1, self.b1, self.W2, self.b2) = _pack(W1, b1, W2, b2)
        self.head = self.W1.size + self.b1.size

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
    """The buffers of one step loop, reused by every step.

    Row buffers hold one batch: the logits ``Z`` (``n x C``) and, for the
    MLP, the hidden pre- and post-activations ``H`` and ``A``
    (``n x hidden``).  With ``backward`` (the default) they also include
    the scaled logit gradients ``G`` and, for the MLP, the hidden
    gradient ``dH`` and the rectifier mask ``M``; ``g`` is then one flat
    parameter gradient laid out like ``theta``, and ``grads`` are its
    views shaped like the model's arrays (``W``, ``b`` or ``W1``, ``b1``,
    ``W2``, ``b2``).  :meth:`fit` slices the row buffers to a batch's
    row count, first regrowing them if the batch is longer than any
    before it.
    """

    def __init__(self, model, n: int, backward: bool = True):
        mlp = isinstance(model, Mlp)
        C, h = model.C, model.W1.shape[0] if mlp else 0
        # (name, columns, dtype) of each row buffer.
        self._specs = [("Z", C, float)] + ([("H", h, float), ("A", h, float)] if mlp else [])
        if backward:
            self._specs += [("G", C, float)] + ([("dH", h, float), ("M", h, bool)] if mlp else [])
            self.g = np.empty_like(model.theta)
            arrays = (model.W1, model.b1, model.W2, model.b2) if mlp else (model.W, model.b)
            self.grads = _views(self.g, arrays)
        self.rows = self.n = -1
        self.fit(n)

    def fit(self, n: int) -> None:
        """Slice the row buffers to ``n`` rows."""
        if n == self.n:
            return
        if n > self.rows:
            self._full = {name: np.empty((n, cols), dt) for name, cols, dt in self._specs}
            self.rows = n
            self.__dict__.update(self._full)
        else:
            self.__dict__.update((name, buf[:n]) for name, buf in self._full.items())
        self.n = n


def _forward(model, X: np.ndarray, ws: _Workspace) -> np.ndarray:
    """Kernel of :func:`forward` for validated input.

    Fits ``ws`` to the rows of ``X`` and writes the logits into ``ws.Z``
    (returned) and, for the MLP, the hidden activations into ``ws.H`` and
    ``ws.A``, where :func:`_backward` reads them.
    """
    ws.fit(X.shape[0])
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
    return _forward(model, X, _Workspace(model, X.shape[0], backward=False))


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

    ``scope = "head"`` restricts updates to the final linear layer (for
    the MLP; the linear model is all head).  ``lr = 0`` is allowed and
    leaves the model untouched, which gives the no-adapt baseline.
    """

    lr: float
    momentum: float = 0.0
    scope: str = "all"

    def __post_init__(self):
        if self.lr < 0:
            raise ValueError(f"learning rate must be non-negative, got {self.lr}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must lie in [0, 1), got {self.momentum}")
        if self.scope not in ("all", "head"):
            raise ValueError(f"unknown scope {self.scope!r}")


@dataclass
class SgdState:
    """The velocity vector, shaped like ``theta``; created on first use.

    ``scaled`` is the step's scratch vector for ``lr * v``.
    """

    velocity: np.ndarray | None = None
    scaled: np.ndarray | None = field(default=None, init=False, repr=False)


def sgd_step(model, grad: np.ndarray, cfg: SgdConfig, state: SgdState) -> None:
    """One in-place step: ``v <- momentum v + g``, ``theta <- theta - lr v``.

    Under ``scope = "head"`` only ``theta[model.head:]`` moves; the
    velocity of the frozen trunk still accumulates.
    """
    if state.scaled is None:
        state.scaled = np.empty_like(model.theta)
        if state.velocity is None:
            state.velocity = np.zeros_like(model.theta)
    v = state.velocity
    v *= cfg.momentum
    v += grad
    a = model.head if cfg.scope == "head" else 0
    model.theta[a:] -= np.multiply(v[a:], cfg.lr, out=state.scaled[a:])


class CrossEntropyPlugin:
    """Supervised loss on fixed targets; plumbing for oracles and tests."""

    def __init__(self, targets):
        self.targets = np.asarray(targets, dtype=np.int64)

    def batch_eval(self, Z: np.ndarray, P: np.ndarray) -> np.ndarray:
        if Z.shape[0] != self.targets.shape[0]:
            raise ValueError("batch size does not match the stored targets")
        # The same expression as train_source's: softmax minus the one-hot.
        return P - np.eye(Z.shape[1])[self.targets]


class EmPlugin:
    """Classical entropy minimization."""

    def batch_eval(self, Z: np.ndarray, P: np.ndarray) -> np.ndarray:
        # em_rows builds its probabilities as exp(Z - lse), whose bits
        # differ from softmax_rows(Z), so P is not used here.
        return _em.em_rows(Z)[1]


class DemPlugin:
    """Decoupled EM at a fixed (tau, alpha)."""

    def __init__(self, cfg: _em.DemConfig):
        self.cfg = cfg

    def batch_eval(self, Z: np.ndarray, P: np.ndarray) -> np.ndarray:
        return _em.dem_rows(Z, P, self.cfg)


class AdaDemPlugin:
    """AdaDEM; owns a MecState, created on the first batch and threaded
    across every batch it sees."""

    def __init__(
        self,
        variant: _adadem.AdaDemVariant = _adadem.AdaDemVariant(),
        pi: float = 0.1,
    ):
        self.variant = variant
        self.pi = pi
        self.state = None

    def batch_eval(self, Z: np.ndarray, P: np.ndarray) -> np.ndarray:
        if self.state is None:
            self.state = _adadem.mec_init(Z.shape[1], pi=self.pi)
        return _adadem.adadem_rows(Z, P, self.state, self.variant)[1]


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


def _validated_labels(y, n: int, C: int) -> np.ndarray:
    """``y`` as a 1-D integer array of ``n`` labels in ``[0, C)``."""
    y = np.asarray(y)
    if y.ndim != 1 or y.dtype.kind not in "iu":
        raise ValueError(f"labels must be 1-D integers, got {y.dtype} of shape {y.shape}")
    if y.shape[0] != n:
        raise ValueError(f"expected one label per input row ({n}), got {y.shape[0]}")
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

    Each epoch gathers the shuffled inputs and one-hot targets once and
    steps through contiguous slices of them.  A step runs the forward
    pass once, takes only the cross-entropy gradient ``softmax(Z) - T``
    (no loss values) and reuses the forward activations in the backward
    pass.  The gradient has the bits of subtracting 1 at each target in
    place: ``p - 1.0`` is that subtraction and ``p - 0.0`` is ``p``.
    Every step writes into one :class:`_Workspace`, sized once per call.
    ``batch_size < 1`` and ``epochs < 0`` raise ``ValueError``.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be at least 1, got {batch_size}")
    if epochs < 0:
        raise ValueError(f"epochs must be non-negative, got {epochs}")
    X = _validated_input(model, X)
    n = X.shape[0]
    if n == 0:
        raise ValueError("empty training set")
    T = np.eye(model.C)[_validated_labels(y, n, model.C)]
    state, ws = SgdState(), _Workspace(model, min(batch_size, n))
    for _ in range(epochs):
        order = rng.permutation(n)
        Xo, To = X[order], T[order]
        for start in range(0, n, batch_size):
            Xb = Xo[start : start + batch_size]
            G = softmax_rows(_forward(model, Xb, ws)) - To[start : start + batch_size]
            sgd_step(model, _backward(model, Xb, G, ws), cfg, state)
    return model


def adapt_stream(model, inputs, plugin, cfg: SgdConfig) -> list[np.ndarray]:
    """Online adaptation: predict, update, repeat.

    ``inputs`` yields unlabeled input matrices, so the loop never sees a
    label.  For each batch the model first predicts, then
    ``plugin.batch_eval(Z, P)`` turns the logits ``Z`` and their
    probabilities ``P = softmax_rows(Z)`` into the ``n x C`` matrix of
    per-sample loss gradients with respect to the logits (gradients
    only: nothing here reads a loss value), and one SGD step moves
    ``model`` in place.  Returns the pre-update probabilities, one
    matrix per batch, for the caller to score.

    The plugin contract: ``P`` is a fresh array per batch, the very one
    returned, so a plugin reads it and never writes into it.  ``Z`` is
    a buffer of the loop's :class:`_Workspace` that the next step
    overwrites, so a plugin reads it during ``batch_eval`` and neither
    keeps it nor writes into it.

    Each call starts from a fresh :class:`SgdState`, so momentum never
    carries over from one call to the next: a continual protocol, which
    calls this once per shift, resets momentum at every shift while the
    model and the plugin's state carry over.

    Non-finite logits or loss gradients raise :class:`DivergenceError`
    naming the batch.  Those two checks are the only report of a
    diverging step: numpy's overflow and invalid-value warnings are
    silenced for the loop, since a step that overflows fails one of them.
    """
    state, ws, probs = SgdState(), _Workspace(model, 0), []
    with np.errstate(over="ignore", invalid="ignore"):
        for i, X in enumerate(inputs):
            X = _validated_input(model, X)
            Z = _forward(model, X, ws)
            if not np.isfinite(Z).all():
                raise DivergenceError("logits", i)
            P = softmax_rows(Z)
            probs.append(P)
            dlogits = plugin.batch_eval(Z, P)
            if not np.isfinite(dlogits).all():
                raise DivergenceError("loss gradients", i)
            sgd_step(model, _backward(model, X, dlogits, ws), cfg, state)
    return probs
