"""Synthetic distribution-shift benchmark and diagnostic metrics.

The test bed is a C-class isotropic Gaussian mixture in the plane
(:class:`MixtureSpec`: class means evenly spaced on a circle of a given
radius, one shared sigma), small enough that a full adaptation
experiment runs in seconds yet rich enough to show the qualitative
failure modes of entropy minimization: reward collapse on confident
predictions, easy-class bias under shift, and learning-rate fragility.

A *shift* transforms the inputs (translation, rotation, added noise or
scaling) with a severity level 1-5 that multiplies its base magnitude.
A *stream* is an ordered list of shifts, each producing ``B`` batches of
``n`` rows, handed over as inputs ``B x n x d`` and labels ``B x n``; the
protocols validate a shift once and step through its batches.  Labels
follow ``long_tail_priors(C, label_rho)`` (:class:`StreamSpec`): uniform
at ``label_rho = 1``, a head-to-tail ratio of ``label_rho`` above it.  Two
protocols mirror test-time-adaptation practice:

* ``single_domain``: a fresh copy of the source model adapts to each
  shift independently,
* ``continual``: one model (and one loss state) is threaded through the
  whole shift sequence.

Metrics are computed online (each batch is predicted before the update
that consumes it) and aggregated into :class:`MetricsReport`; the
no-adapt baseline, the frozen source model's accuracy on the same
batches, is :func:`run_protocol` at ``lr = 0``.  A protocol keeps
confusion counts and one float per row of its predictions, not
probability matrices, and its reports keep the bits :func:`metrics`
gives on the matrices (see :class:`ProtocolResult`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import DivergenceError, SgdConfig, _validated_labels, adapt_stream
from .numkit import as_matrix, as_vector, Rng

__all__ = [
    "MixtureSpec",
    "ShiftSpec",
    "StreamSpec",
    "MetricsReport",
    "ProtocolResult",
    "LEVEL_MULTIPLIERS",
    "SHIFT_KINDS",
    "circle_means",
    "default_mixture",
    "default_single_domain",
    "default_continual",
    "long_tail_priors",
    "sample_batch",
    "apply_shift",
    "make_stream",
    "metrics",
    "kl_divergence",
    "run_protocol",
]

SHIFT_KINDS = ("translate", "rotate2d", "feature_noise", "feature_scale")

LEVEL_MULTIPLIERS = {1: 0.5, 2: 1.0, 3: 1.5, 4: 2.0, 5: 2.5}


@dataclass(frozen=True)
class MixtureSpec:
    """Isotropic Gaussian mixture in the plane: ``C`` class means evenly
    spaced on a circle of the given ``radius``, one shared ``sigma``."""

    C: int
    radius: float
    sigma: float
    d = 2  # the plane; a constant, not a field

    def __post_init__(self):
        if self.C < 2:
            raise ValueError(f"need at least two classes, got {self.C}")
        if not (self.radius > 0 and self.sigma > 0):
            raise ValueError(f"radius and sigma must be positive, got {self.radius}, {self.sigma}")

    @cached_property
    def means(self) -> np.ndarray:
        return circle_means(self.C, self.radius)


@dataclass(frozen=True)
class ShiftSpec:
    """One input transformation with a base magnitude and severity level.

    The effective magnitude is ``magnitude * LEVEL_MULTIPLIERS[level]``,
    so with the default base of 1.0 the level acts as the severity knob
    (level 2 is the base magnitude itself).
    """

    kind: str
    magnitude: float = 1.0
    level: int = 2

    def __post_init__(self):
        if self.kind not in SHIFT_KINDS:
            raise ValueError(f"unknown shift kind {self.kind!r}")
        if self.level not in LEVEL_MULTIPLIERS:
            raise ValueError(f"level must be 1-5, got {self.level}")

    @property
    def effective_magnitude(self) -> float:
        return self.magnitude * LEVEL_MULTIPLIERS[self.level]

    def key(self, occurrence: int = 0) -> str:
        """Content key used to derive this shift's data stream."""
        return f"{self.kind}|{self.magnitude:.17g}|{self.level}|{occurrence}"


@dataclass(frozen=True)
class StreamSpec:
    """An ordered shift sequence, how many batches each contributes, and
    the label distribution: ``long_tail_priors(C, label_rho)``, uniform
    at the default ``label_rho = 1``."""

    mode: str
    shifts: tuple
    batches_per_shift: int
    batch_size: int = 64
    label_rho: float = 1.0

    def __post_init__(self):
        if self.mode not in ("single_domain", "continual"):
            raise ValueError(f"unknown mode {self.mode!r}")
        shifts = tuple(self.shifts)
        if not shifts:
            raise ValueError("stream needs at least one shift")
        if self.mode == "continual" and len(shifts) < 2:
            raise ValueError("continual mode needs at least two shifts")
        if self.batches_per_shift < 1 or self.batch_size < 1:
            raise ValueError("batches_per_shift and batch_size must be positive")
        if not self.label_rho >= 1:
            raise ValueError(f"label_rho must be >= 1, got {self.label_rho}")
        object.__setattr__(self, "shifts", shifts)


@dataclass
class MetricsReport:
    """Aggregate diagnostics for a block of online predictions."""

    accuracy: float
    macro_f1: float
    per_class_f1: np.ndarray
    marginal_entropy: float
    kl_output_vs_label: float
    sorted_class_proportions: np.ndarray
    avg_max_prob: float


@dataclass
class ProtocolResult:
    """A protocol's online predictions as summaries, scored on first
    access.

    Per shift, in stream order, it keeps what :func:`metrics` reads of
    the shift's pre-update probabilities ``P`` and labels ``y``, and
    not ``P`` itself:

    * ``confusion``: the ``C x C`` counts of (label, argmax prediction)
      pairs, ``confusion[y_i, pred_i]``;
    * ``row_max``: each row's largest probability, ``P[i, pred_i]``,
      which has the bits of ``np.max(P, axis=1)``;
    * ``col_sums``: ``np.add.reduce(P, axis=0)``, the column sums whose
      mean is the shift's output marginal.

    ``total`` is the column sum over every shift's rows, carried from
    shift to shift as ``np.add.reduce`` over the previous total stacked
    on the shift's rows.  A reduction over axis 0 adds rows strictly in
    sequence (for two or more classes), so ``total`` has the bits of the
    concatenated matrix's column sum; the per-shift sums, added to one
    another, would not.  So each kept row costs one float, besides
    ``C * C`` counts and ``C`` sums per shift.

    ``per_shift`` (one :class:`MetricsReport` per shift) and ``overall``
    (one over every batch) are built from these summaries the first time
    each is read and kept; each field has the bits :func:`metrics` gives
    on the probabilities themselves.  ``accuracy``, the overall accuracy
    with the bits of ``overall.accuracy``, is kept the same way and
    builds no report, so a sweep that scores protocols by accuracy alone
    pays for no report.  The frozen source model's baseline on the same
    data is the protocol's result at ``lr = 0``.
    """

    confusion: list
    row_max: list
    col_sums: list
    total: np.ndarray

    @cached_property
    def accuracy(self) -> float:
        counts = sum(self.confusion)
        return float(np.trace(counts) / np.add.reduce(counts, axis=None))

    @cached_property
    def per_shift(self) -> list:
        return [_report(*shift) for shift in zip(self.confusion, self.row_max, self.col_sums)]

    @cached_property
    def overall(self) -> MetricsReport:
        return _report(sum(self.confusion), np.concatenate(self.row_max), self.total)


def circle_means(C: int, radius: float) -> np.ndarray:
    """C class means evenly spaced on a circle of the given radius."""
    angles = 2.0 * math.pi * np.arange(C) / C
    return radius * np.stack([np.cos(angles), np.sin(angles)], axis=1)


def default_mixture() -> MixtureSpec:
    """The standard 10-class task: unit-sigma clusters on a radius-4 circle."""
    return MixtureSpec(C=10, radius=4.0, sigma=1.0)


def default_single_domain() -> StreamSpec:
    """The standard single-domain benchmark: three independent streams
    rotated half a radian past the source geometry.

    A 0.5 rad rotation carries every cluster past the midpoint between
    neighbouring class means (pi/10 rad for ten classes), so a frozen
    source model sees a plurality-flipped labelling.  Methods that lock
    onto the initial confident-but-wrong assignment stay below the
    no-adapt baseline; methods that keep the output marginal spread can
    recover.  Three replicates of the same severity keep the per-seed
    variance of stream-level metrics manageable.
    """
    shift = ShiftSpec("rotate2d", 0.5, 2)
    return StreamSpec("single_domain", (shift, shift, shift), 60, 64)


def default_continual() -> StreamSpec:
    """The standard continual benchmark: a rotation severity ladder.

    One model is threaded through rotations of 0.45, 0.50 and 0.55 rad.
    Consecutive segments are nearly identical, so an adapter that locks
    onto a wrong labelling early is never shaken loose by the
    environment, while the drift still makes the task genuinely
    non-stationary.
    """
    shifts = (
        ShiftSpec("rotate2d", 0.45, 2),
        ShiftSpec("rotate2d", 0.50, 2),
        ShiftSpec("rotate2d", 0.55, 2),
    )
    return StreamSpec("continual", shifts, 60, 64)


def long_tail_priors(C: int, rho: float) -> np.ndarray:
    """Exponential long-tail priors with ``prior_0 / prior_{C-1} = rho``.

    ``prior_k`` is proportional to ``rho ** (-k / (C - 1))``, so the
    ratio of consecutive priors is constant.
    """
    if rho < 1:
        raise ValueError(f"rho must be >= 1, got {rho}")
    if C < 2:
        raise ValueError(f"need at least two classes, got {C}")
    raw = rho ** (-np.arange(C) / (C - 1))
    return raw / np.sum(raw)


def sample_batch(mix: MixtureSpec, priors, n: int, rng: Rng):
    """Draw ``n`` labeled points: label from ``priors``, feature from the
    label's Gaussian."""
    if n < 1:
        raise ValueError(f"need a positive sample count, got {n}")
    priors = as_vector(priors)
    y = rng.categorical(priors, n)
    X = mix.means[y] + mix.sigma * rng.normals(n * mix.d).reshape(n, mix.d)
    return X, y


def apply_shift(X, spec: ShiftSpec, rng: Rng) -> np.ndarray:
    """Transform a batch of inputs according to the shift."""
    X = as_matrix(X)
    m = spec.effective_magnitude
    if spec.kind == "translate":
        u = np.ones(X.shape[1]) / math.sqrt(X.shape[1])
        return X + m * u
    if spec.kind == "rotate2d":
        if X.shape[1] != 2:
            raise ValueError("rotate2d requires two-dimensional inputs")
        c, s = math.cos(m), math.sin(m)
        R = np.array([[c, -s], [s, c]])
        return X @ R.T
    if spec.kind == "feature_noise":
        return X + m * rng.normals(X.size).reshape(X.shape)
    if spec.kind == "feature_scale":
        return X * (1.0 + m)
    raise ValueError(f"unknown shift kind {spec.kind!r}")


def make_stream(mix: MixtureSpec, spec: StreamSpec, rng: Rng):
    """Materialize the stream: per shift, inputs ``X`` (``B x n x d``
    float64) and labels ``y`` (``B x n`` int64) of ``B`` batches of
    ``n`` rows.  Batch ``i`` is drawn by :func:`sample_batch`, then
    :func:`apply_shift`, and written into ``X[i]`` and ``y[i]``.

    Every batch draws its labels from ``long_tail_priors(mix.C,
    spec.label_rho)``.  Each shift's batches come from a generator derived
    from the shift's *content* (kind, magnitude, level, occurrence
    number), not its position, so reordering shifts permutes the
    per-shift data without changing it; repeated identical shifts still
    get fresh data.
    """
    priors = long_tail_priors(mix.C, spec.label_rho)
    B, n = spec.batches_per_shift, spec.batch_size
    seen: dict[str, int] = {}
    out = []
    for shift in spec.shifts:
        base = shift.key(0)
        occurrence = seen.get(base, 0)
        seen[base] = occurrence + 1
        srng = rng.derive(shift.key(occurrence))
        X, y = np.empty((B, n, mix.d)), np.empty((B, n), dtype=np.int64)
        for i in range(B):
            Xi, y[i] = sample_batch(mix, priors, n, srng)
            X[i] = apply_shift(Xi, shift, srng)
        out.append((X, y))
    return out


def kl_divergence(p, q) -> float:
    """KL(p || q) with ``1e-12`` added to both arguments, then renormalized."""
    p = as_vector(p) + 1e-12
    q = as_vector(q) + 1e-12
    p = p / np.sum(p)
    q = q / np.sum(q)
    return float(np.sum(p * np.log(p / q)))


def _summaries(P: np.ndarray, y: np.ndarray):
    """``(confusion, row_max)`` of ``n x C`` probabilities and their
    validated labels: the ``C x C`` counts of (label, argmax prediction)
    pairs and each row's largest probability.

    Gathering ``P`` at its argmax gives the bits of ``np.max(P, axis=1)``
    for a fraction of its cost: one index per row, no second scan.  The
    counts come from one ``bincount`` of ``label * C + prediction``.
    """
    C = P.shape[1]
    codes = np.argmax(P, axis=1)
    row_max = P[np.arange(P.shape[0]), codes]
    codes += np.multiply(y, C, dtype=np.intp)
    return np.bincount(codes, minlength=C * C).reshape(C, C), row_max


def metrics(probs, labels) -> MetricsReport:
    """Diagnostics for a block of probability rows and true labels.

    ``labels`` must hold one integer in ``[0, C)`` per row
    (``ValueError`` otherwise).
    """
    P = as_matrix(probs)
    if P.shape[0] == 0:
        raise ValueError("probs and labels must be nonempty")
    y = _validated_labels(labels, P.shape[:1], P.shape[1])
    return _report(*_summaries(P, y), np.add.reduce(P, axis=0))


def _report(confusion, row_max, col_sum) -> MetricsReport:
    """The kernel of :func:`metrics`: a report from summaries.

    ``confusion`` holds the ``C x C`` (label, prediction) counts,
    ``row_max`` each row's largest probability and ``col_sum`` is
    ``np.add.reduce(P, axis=0)``; ``col_sum / n`` is ``P.mean(axis=0)``
    to the bit, and ``np.mean(row_max)`` is ``np.mean(np.max(P, axis=1))``.
    The accuracy, ``trace / n``, is an exact integer sum and one
    correctly rounded divide, the bits of ``np.mean(preds == y)``.
    """
    n = row_max.shape[0]
    pred_counts = np.add.reduce(confusion, axis=0)
    label_counts = np.add.reduce(confusion, axis=1)
    tp = np.diagonal(confusion)
    denom = 2.0 * tp + (pred_counts - tp) + (label_counts - tp)
    # denom = 0 implies tp = 0, so the clamp leaves those classes at 0.0
    per_class_f1 = 2.0 * tp / np.maximum(denom, 1.0)

    marginal = col_sum / n
    safe = np.maximum(marginal, 1e-300)
    marginal_entropy = float(-np.sum(np.where(marginal > 0, marginal * np.log(safe), 0.0)))
    label_marginal = label_counts / n
    proportions = np.sort(pred_counts / n)[::-1]

    return MetricsReport(
        accuracy=float(np.trace(confusion) / n),
        macro_f1=float(np.mean(per_class_f1)),
        per_class_f1=per_class_f1,
        marginal_entropy=marginal_entropy,
        kl_output_vs_label=kl_divergence(marginal, label_marginal),
        sorted_class_proportions=proportions,
        avg_max_prob=float(np.mean(row_max)),
    )


def run_protocol(source_model, shift_data, mode: str, plugin_factory, cfg: SgdConfig) -> ProtocolResult:
    """Run one adaptation protocol over materialized stream data.

    ``shift_data`` is the output of :func:`make_stream`;
    ``plugin_factory`` builds a fresh loss plugin (single-domain mode
    calls it once per shift, continual mode once for the whole stream,
    so stateful losses persist across shifts exactly when the model
    does).  Optimizer momentum does not persist in either mode: every
    shift is one :func:`adapt_stream` call, which starts from zero
    velocity and sees the inputs only.  Metrics are online: every batch
    is scored, against its labels, on the probabilities predicted before
    the update it triggers.

    The protocol holds one ``(R + 1) x C`` matrix for shifts of ``R``
    rows, reused from shift to shift (a shift of another size gets a
    new one): :func:`adapt_stream` writes the shift's probabilities into
    rows 1 to ``R``, and row 0 holds the running column sum of the
    shifts before (zeros at first; ``0 + p`` is ``p`` for probabilities,
    which are never ``-0``).  Once the call returns, the shift is reduced
    to the summaries of :class:`ProtocolResult`, and its rows are
    overwritten by the next shift's; the result scores the summaries
    when its metrics are first read.

    Each shift's labels must be integers in ``[0, C)``, ``B x n`` like
    its inputs.  A shift with no rows raises ``ValueError`` naming it,
    and a stream with no shifts raises ``ValueError``.  A diverging update
    raises :class:`DivergenceError` naming the shift and the batch.
    """
    if mode not in ("single_domain", "continual"):
        raise ValueError(f"unknown mode {mode!r}")
    C = source_model.C
    confusion, row_max, col_sums = [], [], []
    buf, total = None, np.zeros(C)
    model = plugin = None
    for s, (X, y) in enumerate(shift_data):
        R = np.size(y)
        if R == 0:
            raise ValueError(f"shift {s} has no rows to score")
        y = _validated_labels(y, np.shape(X)[:2], C).reshape(R)
        if buf is None or buf.shape[0] != R + 1:
            buf = np.empty((R + 1, C))
        buf[0] = total
        P = buf[1:]
        if model is None or mode == "single_domain":
            model, plugin = source_model.copy(), plugin_factory()
        try:
            adapt_stream(model, X, plugin, cfg, P)
        except DivergenceError as exc:
            raise DivergenceError(exc.stage, exc.batch, s) from exc
        shift_confusion, shift_max = _summaries(P, y)
        confusion.append(shift_confusion)
        row_max.append(shift_max)
        col_sums.append(np.add.reduce(P, axis=0))
        # continue row by row, as the concatenated matrix's sum does
        total = np.add.reduce(buf, axis=0)
    if not confusion:
        raise ValueError("the stream has no shifts to score")
    return ProtocolResult(confusion, row_max, col_sums, total)
