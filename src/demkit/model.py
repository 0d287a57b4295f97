"""Tiny differentiable classifiers, and the one step loop that trains and
adapts them.

Experiments run a one-hidden-layer rectifier MLP; a linear softmax head
remains for ``gradcheck`` and the tests.  Backpropagation is written out
by hand: every loss in this package exposes exact per-sample gradients
with respect to the logits, and ``backward`` chains them into parameter
gradients with mean reduction over the batch, so the learning-rate scale
is batch-size invariant.

Each model stores its parameters in one float64 vector ``theta``, whose
views are its weight matrices and biases; gradients and SGD velocity are
laid out like it.  ``K`` models of one architecture stack as the rows of
a ``(K, P)`` array.  ``_step_loop`` is the one step loop: per batch the
forward pass, a writer of the logit gradients, the backward pass and one
``sgd_step`` per model.  ``train_source`` runs it with the cross-entropy
kernel ``_ce_rows`` through the stack trainer ``_train_stack``, which
can also fit ``K`` sources on their own data at once; ``adapt_stream``
runs it over one shift of unlabeled batches, where the caller's hook
scores the predictions and each model's loss plugin (classical EM,
decoupled EM, or AdaDEM, whose calibrator state lives through the
stream) writes its gradients.

Validation follows :mod:`demkit.numkit`: the public functions validate
their input once and hand it to the private kernels ``_forward`` and
``_backward``, the only forward and backward pass, which check nothing
and write into a :class:`_Workspace` instead of allocating.  On a stack
they run each step once for all ``K`` models with the operations, and so
the bits, of ``K`` one-model steps (``step_bytes``: its bytes per model).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import adadem as _adadem
from . import em_losses as _em
from .numkit import _classes, _count, _logsumexp, _logsumexp_rows, _nonnegative, _softmax_rows, as_matrix, validated_labels

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
    """Logits = W x + b with W of shape C x d; ``theta`` holds ``W`` then
    ``b``, both views of it."""

    _names = ("W", "b")

    def __init__(self, W, b):
        self.theta, (self.W, self.b) = _pack(W, b)

    def copy(self) -> "LinearSoftmax":
        return LinearSoftmax(self.W, self.b)

    @property
    def C(self) -> int:
        return self.W.shape[0]


class Mlp:
    """Logits = W2 relu(W1 x + b1) + b2; ``theta`` holds ``W1``, ``b1``,
    ``W2``, ``b2`` in that order, each a view of it."""

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


def _check_init(C: int, d: int, scale: float) -> None:
    """``ValueError`` unless ``C`` passes ``numkit._classes``, the input
    width ``d`` is an integer of at least 1 (``numkit._count``) and the
    weight ``scale`` is finite and non-negative (``numkit._nonnegative``)."""
    _classes(C)
    _count(d, "d", 1)
    _nonnegative(scale, "scale")


def init_linear(C: int, d: int, rng=None, scale: float = 0.0) -> LinearSoftmax:
    """Linear model; zero-initialized by default (uniform predictions).
    ``C``, ``d`` and ``scale`` must pass :func:`_check_init`."""
    _check_init(C, d, scale)
    if rng is not None and scale > 0.0:
        W = scale * rng.normals(C * d).reshape(C, d)
    else:
        W = np.zeros((C, d))
    return LinearSoftmax(W, np.zeros(C))


def init_mlp(C: int, d: int, hidden: int, rng, scale: float) -> Mlp:
    """MLP with normal-initialized weights and zero biases.

    The output layer is scaled down by sqrt(hidden) so initial logits
    stay O(1) regardless of width.  ``C``, ``d`` and ``scale`` must pass
    :func:`_check_init`, and ``hidden`` must be an integer of at least 1
    (``numkit._count``; ``ValueError`` otherwise).
    """
    _check_init(C, d, scale)
    _count(hidden, "hidden width", 1)
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
    vectors like it, which gives every buffer below a leading axis ``K``.

    Row buffers hold one batch: the logits ``Z`` (``n x C``), their
    probabilities ``P`` (``n x C``; :func:`adapt_stream` writes them),
    the MLP's hidden activations ``A`` (``n x hidden``; zero columns wide
    for the linear model), which the backward pass overwrites with the
    hidden gradient once it has read them, the scaled logit gradients
    ``G`` and the rectifier mask ``M``.  On a stack the backward pass sums
    the output-bias gradient over the rows in order, ``n`` passes of ``K
    x C``: it copies ``G_rows``, ``G`` with its row axis first, into
    ``P_rows``, ``P``'s memory as an ``n x K x C`` array, so ``P`` holds a
    batch's probabilities only until then.  A one-model workspace sums
    ``G`` itself and has neither view.  ``g`` is the parameter gradient
    laid out like ``theta``, and ``grads`` its views shaped like the
    model's arrays.  The kernels read each weight matrix transposed over
    its last two axes (``W1T``, ``W2T``) and each bias as a row (``b1``,
    ``b2``); the linear model is a head alone, ``W2`` and ``b2`` holding
    its ``W`` and ``b``.

    ``product`` is the kernels' matrix product: ``np.dot`` on one model
    of more than one row, with less dispatch than ``np.matmul`` on these
    small matrices; ``np.matmul``, which broadcasts over ``K``, on a
    stack, and on one row, where ``np.dot`` multiplies 1 x 1 operands as
    scalars and so keeps the sign of an exact zero product that
    ``np.matmul``'s sum from ``+0.0`` drops.  On C-contiguous rows the two
    gave the same bits on the tested BLAS (``TestStepKernels``).  Every
    ``out`` is a C-contiguous float64 buffer above.
    """

    def __init__(self, model, n: int, theta: np.ndarray):
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
        self.product = np.matmul if lead or n == 1 else np.dot


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
    may be ``ws.G`` itself.  On a stack ``X`` is one ``n x d`` batch, or
    ``K x n x d``, one per model.

    The head's gradients read the activations first; the hidden gradient
    then takes their buffer.  A stack's output-bias gradient is summed
    over a row-major copy of ``G`` in ``ws.P`` (see :class:`_Workspace`),
    each model's rows still added in sequence, so each model gets the
    bits of its one-model pass.  The rectifier mask is ``A > 0``, which is
    ``H > 0`` for the pre-activations ``H``, NaN included.  The products
    are ``ws.product``, as in :func:`_forward`.
    """
    product = ws.product
    G = np.divide(dlogits, X.shape[-2], out=ws.G)
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
    return _forward(X, _Workspace(model, X.shape[0], model.theta))


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
    ws = _Workspace(model, X.shape[0], model.theta)
    _forward(X, ws)
    return _backward(X, dlogits, ws)


def _ce_rows(Z: np.ndarray, hot: np.ndarray, G: np.ndarray, flat: np.ndarray) -> np.ndarray:
    """The one cross-entropy logit gradient, run by every source training
    step and checked by ``gradcheck``: ``softmax(Z)`` less 1 at each row's
    target, written into ``G`` (returned), whose flat view is ``flat``, with
    ``hot`` holding each row's target as its flat position in ``G``."""
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

    ``lr`` must be finite and non-negative (``numkit._nonnegative``);
    ``lr = 0`` leaves the model untouched, which gives the no-adapt baseline.
    """

    lr: float
    momentum: float = 0.0

    def __post_init__(self):
        _nonnegative(self.lr, "learning rate")
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
    across every batch it sees.  ``pi`` must lie in (0, 1] (``ValueError``
    when the plugin is built)."""

    def __init__(self, pi: float):
        self.pi = _adadem._momentum(pi)
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
        self.stage, self.batch, self.shift = stage, batch, shift


def _step_loop(batches, write) -> None:
    """The one step loop, which source training and adaptation run.  For
    the ``i``-th ``(X, ws, rest)`` of ``batches``: the forward pass of
    ``X`` into ``ws``; ``write(i, ws, rest)``, which writes the logit
    gradients into ``ws.G`` and returns the ``(theta, g, cfg, state)`` of
    each model to step, ``g`` its view of ``ws.g``; the backward pass;
    and one :func:`sgd_step` per model, in order.  It ends once ``write``
    returns no model."""
    for i, (X, ws, rest) in enumerate(batches):
        _forward(X, ws)
        live = write(i, ws, rest)
        if not live:
            return
        _backward(X, ws.G, ws)
        for theta, g, cfg, state in live:
            sgd_step(theta, g, cfg, state)


def _train_stack(model, theta, X, y, epochs: int, cfg: SgdConfig, rngs, batch_size: int) -> None:
    """Source training of the models whose parameters are ``theta``, in
    place: the unchecked kernel of :func:`train_source`.

    ``theta`` is one vector laid out like ``model.theta``, with ``X`` an
    ``n x d`` matrix, ``y`` its labels and one generator in ``rngs``; or
    a C-contiguous ``(K, P)`` stack, with ``X`` of shape ``(K, n, d)``,
    ``y`` of ``(K, n)`` and ``K`` generators.  Each epoch, each model
    shuffles its rows with its generator into one buffer, and each row's
    target into its flat position in its batch's ``ws.G`` (no ``n x C``
    array); then :func:`_step_loop` steps each model once per batch of
    ``batch_size`` rows, a short one last, with :func:`_ce_rows`, ``cfg``
    and the model's own :class:`SgdState`, giving each the bits of its
    own one-model call.  A non-finite parameter at an epoch's end raises
    ``FloatingPointError`` naming the epoch, and on a stack the model.
    """
    lead, n, C, K = theta.shape[:-1], X.shape[-2], model.C, len(rngs)
    size = min(batch_size, n)
    full = _Workspace(model, size, theta)
    last = _Workspace(model, n % size, theta) if n % size else full
    # Row i of an epoch's order sits at row i % size of its batch, whose
    # logits start at flat position (i % size) * C of the batch's G; on a
    # stack, model k's start k * rows * C later, rows being the batch's.
    slots = np.arange(n) % size * C
    if lead:
        rows = np.minimum(size, n - np.arange(n) // size * size)
        slots = slots + np.arange(K)[:, None] * rows * C
    Xo, hot = np.empty(X.shape), np.empty(slots.shape, np.intp)
    shuffles = list(zip(rngs, X.reshape(K, n, -1), Xo.reshape(K, n, -1),
                        y.reshape(K, n), slots.reshape(K, n), hot.reshape(K, n)))
    # Per workspace, its flat G and each model's step on it; per batch, its
    # rows of Xo, its workspace and its rows of hot.
    states = [SgdState() for _ in range(K)]
    per_ws = {ws: (ws.G.reshape(-1), list(zip(theta.reshape(K, -1), ws.g.reshape(K, -1),
                                             [cfg] * K, states))) for ws in (full, last)}
    batches = [(Xo[..., start : start + size, :], full if start + size <= n else last,
                hot[..., start : start + size]) for start in range(0, n, size)]

    def write(i, ws, targets):
        flat, steps = per_ws[ws]
        _ce_rows(ws.Z, targets, ws.G, flat)
        return steps

    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(epochs):
            for rng, Xk, Xo_k, yk, slots_k, hot_k in shuffles:
                order = rng.permutation(n)
                np.take(Xk, order, axis=0, out=Xo_k)
                np.add(slots_k, yk[order], out=hot_k)
            _step_loop(batches, write)
            finite = np.isfinite(theta).all(axis=-1)
            if not finite.all():
                model_k = f" of model {np.argmin(finite)}" if lead else ""
                raise FloatingPointError(f"source training diverged in epoch {epoch}{model_k}")


def train_source(model, X, y, epochs: int, cfg: SgdConfig, rng, batch_size: int):
    """Mini-batch supervised training on labeled data; returns the model.

    Shuffles with the supplied generator each epoch, so a fixed seed
    yields bit-identical parameters; ``epochs = 0`` leaves the model
    unchanged.  ``X``, ``y`` (an integer label in ``[0, C)`` per row) and
    the integer counts ``batch_size >= 1`` and ``epochs >= 0``
    (``numkit._count``) are validated once (``ValueError``); then
    :func:`_train_stack` steps ``model.theta``.
    """
    _count(batch_size, "batch_size", 1)
    _count(epochs, "epochs", 0)
    X = _validated_input(model, X)
    if X.shape[0] == 0:
        raise ValueError("empty training set")
    y = validated_labels(y, X.shape[:1], model.C)
    _train_stack(model, model.theta, X, y, epochs, cfg, [rng], batch_size)
    return model


def adapt_stream(model, theta: np.ndarray, X, plugins, cfgs, score) -> list:
    """Online adaptation of ``K`` stacked models over one shift: predict,
    score, update, repeat, as :func:`_step_loop` steps.

    ``model`` gives the architecture (its parameters are not read); row
    ``k`` of ``theta``, a C-contiguous float64 ``(K, P)`` array laid out
    like ``model.theta``, is model ``k``'s parameters, stepped in place.
    ``X`` is the shift's unlabeled inputs, ``B`` batches of ``n`` rows
    (``B x n x d``).  For batch ``X[i]`` the loop writes the stack's
    probabilities ``softmax_rows(Z)`` into ``P``, its workspace's
    C-contiguous ``K x n x C`` buffer, the same array for every batch,
    which the batch's backward pass overwrites, and calls ``score(i, P)``,
    which copies what it needs and writes nothing into it.  Then each
    model ``k`` whose plugin is not ``None`` writes its gradients
    ``plugins[k].batch_eval(Z[k], P[k])``, an ``n x C`` matrix (no loss
    values; a plugin neither keeps nor writes into ``Z[k]`` or ``P[k]``),
    and takes one :func:`sgd_step` with ``cfgs[k]`` and a
    :class:`SgdState` fresh for the call, so momentum never carries over
    from one shift to the next.  The forward pass, the softmax, the
    finiteness checks and the backward pass run once per batch for the
    whole stack, and each model gets the bits of its own one-model run.
    ``X``, ``theta``, ``plugins`` and ``cfgs`` are validated before the
    first step (``ValueError``); a strided ``theta`` is refused, since
    steps on its rows' views could land in copies.

    Returns one entry per model: ``None``, or the :class:`DivergenceError`
    naming the stage and batch of its first non-finite logits or loss
    gradients.  A diverged model takes no further plugin or SGD call, its
    later probabilities mean nothing, and the loop ends once every model
    has diverged.  Those checks are the only report of a diverging step:
    numpy's overflow and invalid-value warnings are silenced for the
    loop, scoring hook included.
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
    # Per live model, built once: its index, its views of Z, P and G, its
    # loss, and its step: its theta row, gradient view, config and state.
    live = [
        (k, ws.Z[k], ws.P[k], ws.G[k], plugins[k].batch_eval,
         (theta[k], ws.g[k], cfgs[k], SgdState()))
        for k in range(K) if plugins[k] is not None
    ]
    errors, steps = [None] * K, [m[-1] for m in live]

    def write(i, ws, _):
        Z = ws.Z
        score(i, _softmax_rows(Z, ws.P))
        finite = np.isfinite(Z).all(axis=(1, 2)).tolist()
        for k, Zk, Pk, Gk, batch_eval, _ in live:
            if finite[k]:
                Gk[...] = batch_eval(Zk, Pk)
            else:
                errors[k] = DivergenceError("logits", i)
        finite = np.isfinite(ws.G).all(axis=(1, 2)).tolist()
        for k, *_ in live:
            if errors[k] is None and not finite[k]:
                errors[k] = DivergenceError("loss gradients", i)
        kept = [m for m in live if errors[m[0]] is None]
        if len(kept) < len(live):
            live[:], steps[:] = kept, [m[-1] for m in kept]
        return steps

    with np.errstate(over="ignore", invalid="ignore"):
        if live:
            _step_loop(((Xi, ws, None) for Xi in X), write)
    return errors
