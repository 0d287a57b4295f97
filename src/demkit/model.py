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
row ``k`` of a ``(K, P)`` array that stacks ``K`` models of one
architecture.  ``adapt_stream`` adapts such a stack over one shift of
unlabeled batches: per batch the models predict, the caller's hook
scores the predictions, each model's loss plugin turns its logits into
per-sample gradients, and each row takes one SGD step with its model's
own settings.  One model is the stack of ``K = 1``.  Plugins wrap the
losses a config's ``loss.name`` names: classical EM, decoupled EM, and
AdaDEM, which carries its calibrator state through the whole stream.
Source training's cross-entropy is the kernel ``_ce_rows``.

Validation follows the convention of :mod:`demkit.numkit`: the public
functions validate their input once (finite float64 inputs of the
model's input width; ``adapt_stream`` checks a whole shift at once) and
hand it to the private kernels ``_forward`` and ``_backward``, which
check nothing.  The kernels are the only forward and backward pass, and
they write into a :class:`_Workspace` instead of allocating.  A
workspace over a ``(K, P)`` stack gives every buffer a leading axis of
``K``, and the kernels then run each step once for all ``K`` models
with the operations, and so the bits, of ``K`` one-model steps.  The
step loops (``train_source``, ``adapt_stream``) build their workspaces
once per call and run ``_forward`` and ``_backward`` once per step; the
public ``forward`` and ``backward`` run them on a fresh workspace, so
what they return belongs to the caller.  ``sgd_step`` likewise writes
``lr * v`` into a scratch vector of its :class:`SgdState`.
``step_bytes`` counts these per model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import adadem as _adadem
from . import em_losses as _em
from .numkit import _integer, _logsumexp, _logsumexp_rows, _softmax_rows, as_matrix, validated_labels

__all__ = [
    "LinearSoftmax",
    "Mlp",
    "init_linear",
    "init_mlp",
    "step_bytes",
    "forward",
    "backward",
    "SgdConfig",
    "SgdState",
    "sgd_step",
    "train_source",
    "adapt_stream",
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


def _check_sizes(C: int, d: int) -> None:
    """``ValueError`` unless ``C >= 2`` classes and ``d >= 1`` inputs, both integers."""
    if _integer(C, "C") < 2 or _integer(d, "d") < 1:
        raise ValueError(f"need at least two classes and one input, got C={C}, d={d}")


def init_linear(C: int, d: int, rng=None, scale: float = 0.0) -> LinearSoftmax:
    """Linear model; zero-initialized by default (uniform predictions)."""
    _check_sizes(C, d)
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
    _check_sizes(C, d)
    if _integer(hidden, "hidden width") < 1:
        raise ValueError(f"hidden width must be positive, got {hidden}")
    W1 = scale * rng.normals(hidden * d).reshape(hidden, d)
    W2 = scale * rng.normals(C * hidden).reshape(C, hidden) / np.sqrt(hidden)
    return Mlp(W1, np.zeros(hidden), W2, np.zeros(C))


def _validated_input(model, X) -> np.ndarray:
    """``X`` as a finite float64 matrix of the model's input width."""
    X = as_matrix(X)
    if not isinstance(model, (LinearSoftmax, Mlp)):
        raise TypeError(f"unknown model type {type(model).__name__}")
    if X.shape[1] != _arrays(model)[0].shape[1]:  # W's or W1's columns
        raise ValueError("input dimension does not match the model")
    return X


class _Workspace:
    """The buffers of one step loop, reused by every step of ``n`` rows,
    and the views of the parameters ``theta`` that its kernels read.

    ``theta`` is ``model.theta``, or a C-contiguous ``(K, P)`` stack of
    vectors laid out like it, which gives every buffer below a leading
    axis of ``K``, one slice per stacked model.

    Row buffers hold one batch: the logits ``Z`` (``n x C``), their
    probabilities ``P`` (``n x C``; :func:`adapt_stream` writes them),
    the MLP's hidden activations ``A`` (``n x hidden``; zero columns
    wide for the linear model), which the backward pass overwrites with
    the hidden gradient once it has read them, the scaled logit
    gradients ``G`` and the rectifier mask ``M``.  On a stack the
    backward pass also overwrites ``P``: ``P_rows`` is its memory as an
    ``n x K x C`` array, into which the pass copies ``G_rows``, ``G``
    with its row axis first, to sum the output-bias gradient over the
    rows in order, ``n`` passes of ``K x C``.  So ``P`` holds a batch's
    probabilities from the softmax that writes them until that batch's
    backward pass, and nobody reads it from then until the next softmax.
    A one-model workspace (``train_source``, the public ``backward``)
    sums ``G`` itself, leaves ``P`` alone and has neither view.  ``g`` is
    the parameter gradient laid out like ``theta``, and ``grads`` are its
    views shaped like the model's arrays (``W``, ``b`` or ``W1``, ``b1``,
    ``W2``, ``b2``).  The kernels read each weight matrix transposed over
    its last two axes (``W1T``, ``W2T``) and each bias as a row that
    broadcasts over the batch (``b1``, ``b2``); the linear model is a
    head alone, ``W2`` and ``b2`` holding its ``W`` and ``b``.

    ``product`` is the kernels' matrix product, ``np.matmul``, which
    broadcasts over ``K``; it writes into an ``out`` that is always one
    of the C-contiguous float64 buffers above.  :func:`train_source`
    sets ``np.dot`` on its one-model workspaces of more than one row
    (see there).
    """

    def __init__(self, model, n: int, theta: np.ndarray | None = None):
        theta = model.theta if theta is None else theta
        lead, arrays = theta.shape[:-1], _arrays(model)
        self.mlp = isinstance(model, Mlp)
        C, h = model.C, _hidden(model)
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
        self.G_rows = np.moveaxis(self.G, -2, 0) if lead else None
        self.P_rows = self.P.reshape(self.G_rows.shape) if lead else None
        self.g = np.empty(theta.shape)
        self.grads = _views(self.g, arrays)
        self.product = np.matmul


def _hidden(model) -> int:
    """The MLP's hidden width; 0 for the linear model."""
    return model.W1.shape[0] if isinstance(model, Mlp) else 0


def step_bytes(model, n: int) -> int:
    """The bytes one model like ``model`` of a stack holds in an
    :func:`adapt_stream` step over ``n`` rows, from its shapes: its slice
    of each :class:`_Workspace` buffer, its row of the ``(K, P)`` array, its
    :class:`SgdState`'s two vectors and the step's two ``n x C`` masks."""
    C, h, P = model.C, _hidden(model), model.theta.size
    return 8 * (3 * n * C + n * h + 4 * P) + n * h + 2 * n * C


def _forward(X: np.ndarray, ws: _Workspace) -> np.ndarray:
    """Kernel of :func:`forward` for validated input of ``ws``'s rows.

    Writes the logits into ``ws.Z`` (returned) and, for the MLP, the
    hidden activations ``relu(X W1^T + b1)`` into ``ws.A``, where
    :func:`_backward` reads them.  Its products are ``ws.product``.
    """
    product = ws.product
    if ws.mlp:
        A = product(X, ws.W1T, out=ws.A)
        A += ws.b1
        X = np.maximum(A, 0.0, out=A)
    Z = product(X, ws.W2T, out=ws.Z)
    Z += ws.b2
    return Z


def _backward(X: np.ndarray, dlogits: np.ndarray, ws: _Workspace) -> np.ndarray:
    """Kernel of :func:`backward`: the flat gradient, written into ``ws.g``
    (returned).  ``ws`` holds what ``_forward(X, ws)`` wrote; ``dlogits``
    may be ``ws.G`` itself.

    The head's gradients read the activations first; the hidden gradient
    then takes their buffer.  A stack's output-bias gradient is summed
    over a row-major copy of ``G`` in ``ws.P`` (see :class:`_Workspace`),
    each model's rows still added in sequence, so each model gets the
    bits of its one-model pass.  The rectifier mask is ``A > 0``, which is
    ``H > 0`` for the pre-activations ``H``, NaN included.  The products
    are ``ws.product``, as in :func:`_forward`.
    """
    product = ws.product
    G = np.divide(dlogits, X.shape[0], out=ws.G)
    if ws.mlp:
        gW1, gb1, gW2, gb2 = ws.grads
        product(ws.GT, ws.A, out=gW2)
    else:
        gW2, gb2 = ws.grads
        product(ws.GT, X, out=gW2)
    if ws.G_rows is None:
        np.add.reduce(G, axis=-2, out=gb2)
    else:
        np.copyto(ws.P_rows, ws.G_rows)
        np.add.reduce(ws.P_rows, axis=0, out=gb2)
    if ws.mlp:
        mask = np.greater(ws.A, 0.0, out=ws.M)
        dH = product(G, ws.W2, out=ws.A)
        dH *= mask
        product(ws.AT, X, out=gW1)
        np.add.reduce(dH, axis=-2, out=gb1)
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


def _ce_rows(Z: np.ndarray, hot: np.ndarray, G: np.ndarray, flat: np.ndarray) -> np.ndarray:
    """The one cross-entropy logit gradient, run by every :func:`train_source`
    step and checked by ``gradcheck``: ``softmax(Z)`` less 1 at each row's
    target, written into ``G`` (returned), whose flat view is ``flat``, with
    ``hot`` holding each row's target as a flat position ``i * C + target``."""
    _softmax_rows(Z, G)
    flat[hot] -= 1.0
    return G


def _cross_entropy_value(z: np.ndarray, target: int) -> float:
    """Cross-entropy ``logsumexp(z) - z[target]`` of a validated vector."""
    return _logsumexp(z) - float(z[target])


def _ce_row_values(Z: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Per-row cross-entropy values: ``logsumexp(Z) - Z[target]``."""
    return _logsumexp_rows(Z) - Z[np.arange(Z.shape[0]), targets]


@dataclass(frozen=True)
class SgdConfig:
    """SGD with optional heavy-ball momentum.

    ``lr`` must be finite and non-negative; ``lr = 0`` leaves the model
    untouched, which gives the no-adapt baseline.
    """

    lr: float
    momentum: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.lr < np.inf:
            raise ValueError(f"learning rate must be finite and non-negative, got {self.lr}")
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
    once, writes its logit gradients into its workspace with
    :func:`_ce_rows` (no loss values), and the backward pass reuses
    the forward activations.  Steps write into a :class:`_Workspace`
    sized once per call, and a short last batch into a second.  Each
    of more than one row multiplies with ``np.dot``, which reaches the
    BLAS call with less dispatch than ``np.matmul`` on these small
    matrices; on the C-contiguous rows fed here the two were observed
    to give the same bits on the tested BLAS, which ``TestStepKernels``
    in ``tests/test_model.py`` checks against a one-model stack.  A
    one-row batch keeps ``np.matmul``: ``np.dot`` multiplies 1 x 1
    operands as scalars, so an exact zero product keeps a sign that
    ``np.matmul``'s sum from ``+0.0`` drops.  The views each
    step reads (its rows of the shuffled copy, its slice of target
    positions, its workspace and that workspace's logit gradient as one
    flat vector) are built once per call, and each epoch refills what
    they view.  ``batch_size < 1``, ``epochs < 0`` and non-integers raise
    ``ValueError``.  Non-finite parameters, checked once per epoch with
    numpy's overflow and invalid-value warnings silenced, raise
    ``FloatingPointError`` naming the epoch.
    """
    if _integer(batch_size, "batch_size") < 1:
        raise ValueError(f"batch_size must be at least 1, got {batch_size}")
    if _integer(epochs, "epochs") < 0:
        raise ValueError(f"epochs must be non-negative, got {epochs}")
    X = _validated_input(model, X)
    n, C = X.shape[0], model.C
    if n == 0:
        raise ValueError("empty training set")
    y = validated_labels(y, (n,), C)
    size = min(batch_size, n)
    full = _Workspace(model, size)
    last = _Workspace(model, n % size) if n % size else full
    for ws in (full, last):
        if ws.G.shape[0] > 1:
            ws.product = np.dot
    state = SgdState()
    # Row i of an epoch's order sits at row i % size of its batch, whose
    # logits start at flat position (i % size) * C of the batch's G.
    slots = np.arange(n) % size * C
    Xo, hot = np.empty(X.shape), np.empty(n, np.intp)
    # Each step's rows of Xo and hot, its workspace and its flat G.
    batches = []
    for start in range(0, n, size):
        rows, ws = slice(start, start + size), full if start + size <= n else last
        batches.append((Xo[rows], hot[rows], ws, ws.G.reshape(-1)))
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(epochs):
            order = rng.permutation(n)
            np.take(X, order, axis=0, out=Xo)
            np.add(slots, y[order], out=hot)
            for Xb, targets, ws, flat in batches:
                G = _ce_rows(_forward(Xb, ws), targets, ws.G, flat)
                sgd_step(model.theta, _backward(Xb, G, ws), cfg, state)
            if not np.isfinite(model.theta).all():
                raise FloatingPointError(f"source training diverged in epoch {epoch}")
    return model


def adapt_stream(model, theta: np.ndarray, X, plugins, cfgs, score) -> list:
    """Online adaptation of ``K`` stacked models: predict, score, update,
    repeat.

    ``model`` gives the architecture (its parameters are not read), and
    row ``k`` of ``theta``, a C-contiguous float64 ``(K, P)`` array laid
    out like ``model.theta``, is model ``k``'s parameters, which the call
    steps in place.  ``X`` is one shift's unlabeled inputs, a ``B x n x
    d`` array of ``B`` batches of ``n`` rows, so the loop never sees a
    label.  For each batch ``X[i]`` the models first predict: the loop
    writes their probabilities ``softmax_rows(Z)`` into ``P``, the
    C-contiguous float64 ``K x n x C`` buffer of the :class:`_Workspace`
    it builds for the call, and calls ``score(i, P)``, which may read
    ``P`` and must not write into it.  Then for each model ``k``
    ``plugins[k].batch_eval(Z[k], P[k])`` turns its logits and
    probabilities into the ``n x C`` matrix of per-sample loss gradients
    with respect to the logits (gradients only: nothing here reads a loss
    value), and one :func:`sgd_step` with ``cfgs[k]`` moves ``theta[k]``.

    The K-model contract: the forward pass, the row softmax, the
    finiteness checks and the backward pass run once per batch for the
    whole stack, on buffers with a leading axis of ``K``, and give each
    model the bits its own one-model run gives.  ``plugins[k].batch_eval``
    and ``sgd_step`` run once per model and batch, in model order, each
    model with its own :class:`SgdConfig` and a fresh :class:`SgdState`
    per call.  A model whose plugin is ``None`` is carried along and
    takes neither.

    The hook gets the same ``P`` for every batch, and the batch's own
    backward pass overwrites it, so the hook copies what it needs of a
    batch before it returns.  ``X``, ``theta``, ``plugins`` and ``cfgs``
    are validated once, before the first step (``ValueError``); a strided ``theta`` is
    refused, since its rows' views, and the steps on them, could be
    copies.

    The plugin contract: ``P[k]`` and ``Z[k]`` are workspace buffers that
    the batch's backward pass (``P``) or the next batch (``Z``)
    overwrites, so a plugin reads them during ``batch_eval`` and neither
    keeps nor writes into them.

    Each live model's views of the workspace and of ``theta``, its bound
    ``batch_eval``, its :class:`SgdConfig` and its :class:`SgdState` are
    built once per call; the per-batch loops walk that list, with the
    finiteness flags as Python lists, and drop a model from it once it
    diverges.

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
    _validated_input(model, X.reshape(-1, X.shape[2]))
    width = model.theta.size
    if not (isinstance(theta, np.ndarray) and theta.dtype == np.float64 and theta.ndim == 2
            and theta.shape[1] == width and theta.flags.c_contiguous and theta.flags.writeable):
        raise ValueError(f"theta must be a writeable C-contiguous float64 (K, {width}) array")
    K, n = len(theta), X.shape[1]
    plugins, cfgs = list(plugins), list(cfgs)
    if len(plugins) != K:
        raise ValueError(f"need one plugin per stacked model, {K}, got {len(plugins)}")
    if len(cfgs) != K:
        raise ValueError(f"need one SgdConfig per stacked model, {K}, got {len(cfgs)}")
    ws = _Workspace(model, n, theta)
    # Per live model, built once: its index, its views of the step's
    # buffers and of theta, its loss, its SgdConfig and its SgdState.
    live = [
        (k, ws.Z[k], ws.P[k], ws.G[k], plugins[k].batch_eval,
         theta[k], ws.g[k], cfgs[k], SgdState())
        for k in range(K) if plugins[k] is not None
    ]
    errors = [None] * K
    with np.errstate(over="ignore", invalid="ignore"):
        for i, Xi in enumerate(X):
            if not live:
                break
            Z = _forward(Xi, ws)
            score(i, _softmax_rows(Z, ws.P))
            finite = np.isfinite(Z).all(axis=(1, 2)).tolist()
            for k, Zk, Pk, Gk, batch_eval, *_ in live:
                if finite[k]:
                    Gk[...] = batch_eval(Zk, Pk)
                else:
                    errors[k] = DivergenceError("logits", i)
            finite = np.isfinite(ws.G).all(axis=(1, 2)).tolist()
            for k, *_ in live:
                if errors[k] is None and not finite[k]:
                    errors[k] = DivergenceError("loss gradients", i)
            live = [m for m in live if errors[m[0]] is None]
            if live:
                _backward(Xi, ws.G, ws)
                for *_, row, g, cfg, state in live:
                    sgd_step(row, g, cfg, state)
    return errors
