"""Tiny differentiable classifiers and the online adaptation loop.

Experiments run a one-hidden-layer rectifier MLP; a linear softmax head
remains for ``gradcheck`` and the tests.  Backpropagation is written out
by hand: every loss in this package exposes exact per-sample gradients with
respect to the logits, and ``backward`` chains them into parameter
gradients with mean reduction over the batch, so the learning-rate scale
is batch-size invariant.

Each model stores its parameters in one float64 vector ``theta``; the
weight matrices and biases are reshaped views of it.  Gradients, SGD
velocity and updates are flat vectors laid out like ``theta``, and
``sgd_step`` moves such a vector in place: a model's own ``theta``, or
one row of a :class:`ModelStack`'s ``(K, P)`` array.

``adapt_stream`` is the online protocol over one shift, a ``B x n x d``
array of ``B`` unlabeled batches of ``n`` rows, for a :class:`ModelStack`
of ``K`` models at once: for each batch the models first predict (the
loop writes these pre-update probabilities into its workspace and calls
the caller's scoring hook on them), then each model's loss plugin turns
its logits and probabilities into per-sample gradients, and each model's
row of the stack takes one SGD step with the model's own optimizer
settings.  One model is the stack of ``K = 1``.
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
and one flat gradient laid out like ``theta``.  A workspace over a
stack's ``(K, P)`` parameters gives every buffer a leading axis of
``K``, and the kernels then run each step once for all ``K`` models
with the operations, and so the bits, of ``K`` one-model steps.  The
step loops (``train_source``, ``adapt_stream``) build their workspaces
once per call and run ``_forward`` and ``_backward`` once per step; the
public ``forward`` and ``backward`` run them on a fresh workspace, so
what they return belongs to the caller.  ``sgd_step`` likewise writes
``lr * v`` into a scratch vector of its :class:`SgdState`.

The plugin contract of ``adapt_stream``: the ``Z`` handed to
``batch_eval`` is a workspace buffer that the next step overwrites, so a
plugin reads it and neither keeps it nor writes into it; ``P`` is the
model's block of the workspace's probabilities, and is read only.
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
    "ModelStack",
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
    """Views of ``flat``'s last axis, end to end, shaped like each of
    ``arrays`` in order after ``flat``'s leading axes: a ``(K, P)`` stack
    of parameter vectors gives one ``(K,) + a.shape`` view per array."""
    lead, views, start = flat.shape[:-1], [], 0
    for a in arrays:
        views.append(flat[..., start : start + a.size].reshape(lead + a.shape))
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

    _names = ("W", "b")

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

    _names = ("W1", "b1", "W2", "b2")

    def __init__(self, W1, b1, W2, b2):
        self.theta, (self.W1, self.b1, self.W2, self.b2) = _pack(W1, b1, W2, b2)

    def copy(self) -> "Mlp":
        return Mlp(self.W1, self.b1, self.W2, self.b2)

    @property
    def C(self) -> int:
        return self.W2.shape[0]


def _arrays(model) -> list:
    """The model's weight matrices and biases, in ``theta``'s order."""
    return [getattr(model, name) for name in model._names]


class ModelStack:
    """``K`` models of one architecture whose parameters are the rows of
    one C-contiguous ``(K, P)`` array ``theta``.

    The rows start as copies of ``models``, which must share one type and
    one shape (``ValueError`` otherwise); ``ModelStack([model] * K)`` is
    ``K`` copies of one model.  ``arch`` is the first of ``models``: its
    type and shapes are every row's, and its parameters are not read
    again.  Row ``theta[k]`` is model ``k``'s parameter vector, so an
    :func:`sgd_step` on it moves model ``k`` and nothing else.  The stack
    keeps the step buffers of :func:`adapt_stream`, one
    :class:`_Workspace` per batch size.
    """

    def __init__(self, models):
        models = list(models)
        if not models:
            raise ValueError("a stack needs at least one model")
        self.arch = first = models[0]
        shapes = [a.shape for a in _arrays(first)]
        for m in models:
            if type(m) is not type(first) or [a.shape for a in _arrays(m)] != shapes:
                raise ValueError("stacked models must share one architecture and shape")
        self.theta = np.stack([m.theta for m in models])
        self._workspaces = {}

    def _workspace(self, n: int) -> "_Workspace":
        """The stack's workspace for batches of ``n`` rows, built on first use."""
        if n not in self._workspaces:
            self._workspaces[n] = _Workspace(self.arch, n, self.theta)
        return self._workspaces[n]


def init_linear(C: int, d: int, rng=None, scale: float = 0.0) -> LinearSoftmax:
    """Linear model; zero-initialized by default (uniform predictions)."""
    if rng is not None and scale > 0.0:
        W = scale * rng.normals(C * d).reshape(C, d)
    else:
        W = np.zeros((C, d))
    return LinearSoftmax(W, np.zeros(C))


def init_mlp(C: int, d: int, hidden: int, rng, scale: float) -> Mlp:
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
    """The buffers of one step loop, reused by every step of ``n`` rows,
    and the views of the parameters ``theta`` that its kernels read.

    ``theta`` is ``model.theta``, or a ``(K, P)`` stack of vectors laid
    out like it (:class:`ModelStack`), which gives every buffer below a
    leading axis of ``K``, one slice per stacked model.

    Row buffers hold one batch: the logits ``Z`` (``n x C``), their
    probabilities ``P`` (``n x C``; :func:`adapt_stream` writes them),
    the MLP's hidden activations ``A`` (``n x hidden``; zero columns
    wide for the linear model), which the backward pass overwrites with
    the hidden gradient once it has read them, the scaled logit
    gradients ``G`` and the rectifier mask ``M``.  ``g`` is the parameter gradient laid out
    like ``theta``, and ``grads`` are its views shaped like the model's
    arrays (``W``, ``b`` or ``W1``, ``b1``, ``W2``, ``b2``).  The kernels
    read each weight matrix transposed over its last two axes (``W1T``,
    ``W2T``) and each bias as a row that broadcasts over the batch
    (``b1``, ``b2``); the linear model is a head alone, ``W2`` and ``b2``
    holding its ``W`` and ``b``.
    """

    def __init__(self, model, n: int, theta: np.ndarray | None = None):
        theta = model.theta if theta is None else theta
        lead, arrays = theta.shape[:-1], _arrays(model)
        self.mlp = isinstance(model, Mlp)
        C, h = model.C, model.W1.shape[0] if self.mlp else 0
        params = _views(theta, arrays)
        if self.mlp:
            W1, b1, self.W2, b2 = params
            self.W1T, self.b1 = np.swapaxes(W1, -1, -2), b1[..., None, :]
        else:
            self.W2, b2 = params
        self.W2T, self.b2 = np.swapaxes(self.W2, -1, -2), b2[..., None, :]
        self.Z, self.P, self.G = (np.empty(lead + (n, C)) for _ in range(3))
        self.A, self.M = np.empty(lead + (n, h)), np.empty(lead + (n, h), bool)
        self.GT, self.AT = np.swapaxes(self.G, -1, -2), np.swapaxes(self.A, -1, -2)
        self.g = np.empty(theta.shape)
        self.grads = _views(self.g, arrays)


def _forward(X: np.ndarray, ws: _Workspace) -> np.ndarray:
    """Kernel of :func:`forward` for validated input of ``ws``'s rows.

    Writes the logits into ``ws.Z`` (returned) and, for the MLP, the
    hidden activations ``relu(X W1^T + b1)`` into ``ws.A``, where
    :func:`_backward` reads them.
    """
    if ws.mlp:
        A = np.matmul(X, ws.W1T, out=ws.A)
        A += ws.b1
        X = np.maximum(A, 0.0, out=A)
    Z = np.matmul(X, ws.W2T, out=ws.Z)
    Z += ws.b2
    return Z


def _backward(X: np.ndarray, dlogits: np.ndarray, ws: _Workspace) -> np.ndarray:
    """Kernel of :func:`backward`: the flat gradient, written into ``ws.g``
    (returned).  ``ws`` holds what ``_forward(X, ws)`` wrote; ``dlogits``
    may be ``ws.G`` itself.

    The head's gradients read the activations first; the hidden gradient
    then takes their buffer.  The rectifier mask is ``A > 0``, which is
    ``H > 0`` for the pre-activations ``H``, NaN included.
    """
    G = np.divide(dlogits, X.shape[0], out=ws.G)
    if ws.mlp:
        gW1, gb1, gW2, gb2 = ws.grads
        np.matmul(ws.GT, ws.A, out=gW2)
        np.add.reduce(G, axis=-2, out=gb2)
        mask = np.greater(ws.A, 0.0, out=ws.M)
        dH = np.matmul(G, ws.W2, out=ws.A)
        dH *= mask
        np.matmul(ws.AT, X, out=gW1)
        np.add.reduce(dH, axis=-2, out=gb1)
    else:
        gW, gb = ws.grads
        np.matmul(ws.GT, X, out=gW)
        np.add.reduce(G, axis=-2, out=gb)
    return ws.g


def forward(model, X) -> np.ndarray:
    """Batch logits, shape n x C."""
    X = _validated_input(model, X)
    return _forward(X, _Workspace(model, X.shape[0]))


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
    _forward(X, ws)
    return _backward(X, dlogits, ws)


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


def sgd_step(theta: np.ndarray, grad: np.ndarray, cfg: SgdConfig, state: SgdState) -> None:
    """One in-place step on the float64 parameter vector ``theta``, a
    model's ``theta`` or one row of a stack's: ``v <- momentum v + g``,
    ``theta <- theta - lr v``."""
    if state.velocity is None:
        state.velocity, state.scaled = np.zeros_like(theta), np.empty_like(theta)
    v = state.velocity
    v *= cfg.momentum
    v += grad
    theta -= np.multiply(v, cfg.lr, out=state.scaled)


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

    def __init__(self, pi: float):
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


def train_source(model, X, y, epochs: int, cfg: SgdConfig, rng, batch_size: int):
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
                G = _softmax_rows(_forward(Xb, ws), ws.G)
                G.reshape(-1)[hot[start : start + size]] -= 1.0
                sgd_step(model.theta, _backward(Xb, G, ws), cfg, state)
            if not np.isfinite(model.theta).all():
                raise FloatingPointError(f"source training diverged in epoch {epoch}")
    return model


def adapt_stream(stack: ModelStack, X, plugins, cfgs, score) -> list:
    """Online adaptation of ``K`` stacked models: predict, score, update,
    repeat.

    ``X`` is one shift's unlabeled inputs, a ``B x n x d`` array of ``B``
    batches of ``n`` rows, so the loop never sees a label.  For each
    batch ``X[i]`` the models of ``stack`` first predict: the loop writes
    their probabilities ``softmax_rows(Z)`` into ``P``, the C-contiguous
    float64 ``K x n x C`` buffer of the stack's :class:`_Workspace`, and
    calls ``score(i, P)``, which may read ``P`` and must not write into
    it.  Then for each model ``k`` ``plugins[k].batch_eval(Z[k], P[k])``
    turns its logits and probabilities into the ``n x C`` matrix of
    per-sample loss gradients with respect to the logits (gradients
    only: nothing here reads a loss value), and one :func:`sgd_step`
    with ``cfgs[k]`` moves the row ``stack.theta[k]`` in place.

    The K-model contract: the forward pass, the row softmax, the
    finiteness checks and the backward pass run once per batch for the
    whole stack, on buffers with a leading axis of ``K``, and give each
    model the bits its own one-model run gives.  ``plugins[k].batch_eval``
    and ``sgd_step`` run once per model and batch, in model order, each
    model with its own :class:`SgdConfig` and a fresh :class:`SgdState`
    per call.  A model whose plugin is ``None`` is carried along and
    takes neither.

    ``cfgs`` holds one :class:`SgdConfig` per model.  The hook gets the
    same ``P`` for every batch, and each batch overwrites it, so the hook
    keeps what it needs of one batch before the next.  ``X``,
    ``plugins`` and ``cfgs`` are validated once, before the first step
    (``ValueError``).

    The plugin contract: ``P[k]`` and ``Z[k]`` are buffers of the stack's
    :class:`_Workspace` that the next step overwrites, so a plugin reads
    them during ``batch_eval`` and neither keeps them nor writes into
    them.

    Each call starts from fresh SGD states, so momentum never carries
    over from one call to the next: a continual protocol, which calls
    this once per shift, resets momentum at every shift while the models
    and the plugins' states carry over.

    Returns one entry per model: ``None``, or the
    :class:`DivergenceError` naming the stage and batch of the model's
    first non-finite logits or loss gradients.  A diverged model takes
    no further plugin or SGD call, its later probabilities are
    meaningless, and the loop ends early once every model has diverged.
    Those checks are the only report of a diverging step: numpy's
    overflow and invalid-value warnings are silenced for the loop,
    scoring hook included, since a step that overflows fails one of them.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 3:
        raise ValueError(f"a shift's inputs must be B x n x d, got shape {X.shape}")
    _validated_input(stack.arch, X.reshape(-1, X.shape[2]))
    K, n = len(stack.theta), X.shape[1]
    plugins, cfgs = list(plugins), list(cfgs)
    if len(plugins) != K:
        raise ValueError(f"need one plugin per stacked model, {K}, got {len(plugins)}")
    if len(cfgs) != K:
        raise ValueError(f"need one SgdConfig per stacked model, {K}, got {len(cfgs)}")
    ws = stack._workspace(n)
    G = ws.G  # the plugins' gradients, stacked for one backward pass
    rows, states, errors = list(stack.theta), [SgdState() for _ in range(K)], [None] * K
    live = [k for k in range(K) if plugins[k] is not None]
    with np.errstate(over="ignore", invalid="ignore"):
        for i, Xi in enumerate(X):
            if not live:
                break
            Z = _forward(Xi, ws)
            P = _softmax_rows(Z, ws.P)
            score(i, P)
            finite = np.isfinite(Z).all(axis=(1, 2))
            for k in live:
                if finite[k]:
                    G[k] = plugins[k].batch_eval(Z[k], P[k])
                else:
                    errors[k] = DivergenceError("logits", i)
            finite = np.isfinite(G).all(axis=(1, 2))
            for k in live:
                if errors[k] is None and not finite[k]:
                    errors[k] = DivergenceError("loss gradients", i)
            live = [k for k in live if errors[k] is None]
            if live:
                g = _backward(Xi, G, ws)
                for k in live:
                    sgd_step(rows[k], g[k], cfgs[k], states[k])
    return errors
