"""Synthetic distribution-shift benchmark and diagnostic metrics.

The test bed is a C-class isotropic Gaussian mixture in the plane
(:class:`MixtureSpec`: class means evenly spaced on a circle of a given
radius, one shared sigma), small enough that a full adaptation
experiment runs in seconds yet rich enough to show the qualitative
failure modes of entropy minimization: reward collapse on confident
predictions, easy-class bias under shift, and learning-rate fragility.

A *shift* transforms the inputs (translation, rotation, added noise or
scaling) with a severity level, a key of ``LEVEL_MULTIPLIERS``, whose
multiplier scales its base magnitude.
A *stream* is an ordered list of shifts, each producing ``B`` batches of
``n`` rows, drawn when a protocol reaches the shift and handed over as
inputs ``B x n x d`` and labels ``B x n`` (:class:`Stream`, which refuses
inputs that can overflow); the protocols validate a shift once and step
through its batches.  Labels
follow ``long_tail_priors(C, label_rho)`` (:class:`StreamSpec`): uniform
at ``label_rho = 1``, a head-to-tail ratio of ``label_rho`` above it.  Two
protocols mirror test-time-adaptation practice:

* ``single_domain``: a fresh copy of the source model adapts to each
  shift independently,
* ``continual``: one model (and one loss state) is threaded through the
  whole shift sequence.

Metrics are computed online (each batch is predicted before the update
that consumes it, and scored as soon as it is predicted) and aggregated
into :class:`MetricsReport`; the no-adapt baseline, the frozen source
model's accuracy on the same batches, is the protocol at ``lr = 0``.  A
protocol keeps, per shift, confusion counts and running sums of its
probability columns and row maxima, never a row of its predictions; its
reports keep the bits that the tests' oracle ``metrics`` gives on the
matrices themselves (see :class:`ProtocolResult`).

:func:`run_protocols` runs ``K`` protocols stacked in one pass, and
:func:`stack_size` bounds ``K`` by a memory budget.  :func:`run_chunked`
runs any number of protocols in chunks of that size, one chunk at a time
as its caller reads the entries, and :func:`succeeded` raises an entry
that is a :class:`DivergenceError`; every command and both sweeps of
``search`` run their protocols through them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .model import DivergenceError, SgdConfig, adapt_stream, step_bytes
from .numkit import NORMAL_BOUND, Rng, _classes, _count, _integer, _positive, as_matrix, as_vector, validated_labels

__all__ = [
    "MixtureSpec",
    "ShiftSpec",
    "StreamSpec",
    "MetricsReport",
    "ProtocolResult",
    "LEVEL_MULTIPLIERS",
    "MODES",
    "SHIFT_KINDS",
    "circle_means",
    "long_tail_priors",
    "sample_batch",
    "apply_shift",
    "Stream",
    "kl_divergence",
    "STACK_BYTES",
    "stack_size",
    "run_protocols",
    "run_chunked",
    "succeeded",
    "named_results",
    "run_protocol",
]

SHIFT_KINDS = ("translate", "rotate2d", "feature_noise", "feature_scale")

MODES = ("single_domain", "continual")

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
        _classes(self.C)
        _positive(self.radius, "radius")
        _positive(self.sigma, "sigma")

    @cached_property
    def means(self) -> np.ndarray:
        return circle_means(self.C, self.radius)


@dataclass(frozen=True)
class ShiftSpec:
    """One input transformation with a base magnitude and severity level.

    The effective magnitude is ``magnitude * LEVEL_MULTIPLIERS[level]``,
    so with the default base of 1.0 the level acts as the severity knob
    (level 2 is the base magnitude itself); it must be finite.  A level
    that is not an integer (a bool, a float) raises ``ValueError``, so
    equal specs have one content key.
    """

    kind: str
    magnitude: float = 1.0
    level: int = 2

    def __post_init__(self):
        if self.kind not in SHIFT_KINDS:
            raise ValueError(f"unknown shift kind {self.kind!r}")
        if _integer(self.level, "level") not in LEVEL_MULTIPLIERS:
            levels = f"{min(LEVEL_MULTIPLIERS)}-{max(LEVEL_MULTIPLIERS)}"
            raise ValueError(f"level must be {levels}, got {self.level}")
        if not math.isfinite(self.effective_magnitude):
            raise ValueError(
                f"{self.kind} at magnitude {self.magnitude:g}, level {self.level}: "
                "the effective magnitude is not finite"
            )

    @property
    def effective_magnitude(self) -> float:
        return self.magnitude * LEVEL_MULTIPLIERS[self.level]

    def key(self, occurrence: int = 0) -> str:
        """Content key used to derive this shift's data stream."""
        return f"{self.kind}|{self.magnitude:.17g}|{self.level}|{occurrence}"


@dataclass(frozen=True)
class StreamSpec:
    """An ordered shift sequence, how many batches of ``batch_size`` rows
    each contributes, and the label distribution:
    ``long_tail_priors(C, label_rho)``, uniform at ``label_rho = 1``.
    ``batches_per_shift`` and ``batch_size`` are integers of at least 1
    (``numkit._count``; ``ValueError`` otherwise)."""

    mode: str
    shifts: tuple
    batches_per_shift: int
    batch_size: int
    label_rho: float

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        shifts = tuple(self.shifts)
        if not shifts:
            raise ValueError("stream needs at least one shift")
        if self.mode == "continual" and len(shifts) < 2:
            raise ValueError("continual mode needs at least two shifts")
        _count(self.batches_per_shift, "batches_per_shift", 1)
        _count(self.batch_size, "batch_size", 1)
        _label_ratio(self.label_rho)
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

    Per shift, in stream order, it keeps what a report reads of the
    shift's pre-update probabilities ``P`` and labels ``y``, and not
    ``P`` itself:

    * ``confusion``: the ``C x C`` counts of (label, argmax prediction)
      pairs, ``confusion[y_i, pred_i]``;
    * ``sums``: ``C + 1`` sums over the rows, the ``C`` columns of ``P``
      and then each row's largest probability ``P[i, pred_i]``, which has
      the bits of ``np.max(P, axis=1)``.

    The protocol builds them batch by batch.  Counts are integers, so
    their sum is exact.  The sums are carried from batch to batch as
    ``np.add.reduce`` over the running sums stacked on the batch's rows,
    and ``total``, the sums over every shift's rows, is carried the same
    way across shifts.  A reduction over axis 0 adds rows strictly in
    sequence, so each sum has the bits of one reduction over the
    concatenated rows; the per-shift sums, added to one another, would
    not give ``total``'s.  So a protocol keeps ``C * C`` counts and
    ``C + 1`` sums per shift, and no float per row.

    ``per_shift`` (one :class:`MetricsReport` per shift) and ``overall``
    (one over every batch) are built from these summaries the first time
    each is read and kept; each field has the bits that the tests'
    oracle ``metrics`` gives on the probabilities themselves.
    ``accuracy``, the overall accuracy with the bits of
    ``overall.accuracy``, is kept the same way and builds no report, so a
    sweep that scores protocols by accuracy alone pays for no report.
    The frozen source model's baseline on the same data is the protocol's
    result at ``lr = 0``.
    """

    confusion: list
    sums: list
    total: np.ndarray

    @cached_property
    def accuracy(self) -> float:
        counts = sum(self.confusion)
        return float(np.trace(counts) / np.add.reduce(counts, axis=None))

    @cached_property
    def per_shift(self) -> list:
        return [_report(*shift) for shift in zip(self.confusion, self.sums)]

    @cached_property
    def overall(self) -> MetricsReport:
        return _report(sum(self.confusion), self.total)


def _label_ratio(rho: float) -> None:
    """``ValueError`` unless the label ratio ``rho`` is finite and at least 1."""
    if not 1 <= rho < math.inf:
        raise ValueError(f"label_rho must be finite and >= 1, got {rho}")


def circle_means(C: int, radius: float) -> np.ndarray:
    """C class means evenly spaced on a circle of the given radius; ``C``
    and ``radius`` must pass :class:`MixtureSpec`'s checks (``ValueError``)."""
    _classes(C)
    _positive(radius, "radius")
    angles = 2.0 * math.pi * np.arange(C) / C
    return radius * np.stack([np.cos(angles), np.sin(angles)], axis=1)


def long_tail_priors(C: int, rho: float) -> np.ndarray:
    """Exponential long-tail priors with ``prior_0 / prior_{C-1} = rho``.

    ``prior_k`` is proportional to ``rho ** (-k / (C - 1))``, so the
    ratio of consecutive priors is constant.  ``C`` and ``rho`` must pass
    the checks of :class:`MixtureSpec` and :class:`StreamSpec` (``ValueError``).
    """
    _label_ratio(rho)
    _classes(C)
    raw = rho ** (-np.arange(C) / (C - 1))
    return raw / np.sum(raw)


def sample_batch(mix: MixtureSpec, priors, n: int, rng: Rng):
    """Draw ``n`` labeled points: label from ``priors``, feature from the
    label's Gaussian.  ``n`` must be an integer of at least 1
    (``numkit._count``; ``ValueError`` otherwise)."""
    _count(n, "n", 1)
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


@dataclass(frozen=True)
class Stream:
    """The data of the stream ``spec`` over ``mix``, drawn from ``rng``
    shift by shift as it is read.

    Iterating gives, per shift, inputs ``X`` (``B x n x d`` float64) and
    labels ``y`` (``B x n`` int64) of ``B`` batches of ``n`` rows, drawn
    when the loop reaches that shift.  Batch ``i`` is drawn by
    :func:`sample_batch`, then :func:`apply_shift`, and written into
    ``X[i]`` and ``y[i]``.  Every pass draws afresh and gives the same
    bits, so a pass that lets go of a shift before it asks for the next
    holds one shift; a caller that indexes the shifts or reads them many
    times takes ``list(stream)``.  ``len(stream)`` is the number of
    shifts.

    Every batch draws its labels from ``long_tail_priors(mix.C,
    spec.label_rho)``.  Each shift's batches come from a generator derived
    from the shift's *content* (kind, magnitude, level, occurrence
    number), not its position, so reordering shifts permutes the
    per-shift data without changing it; repeated identical shifts still
    get fresh data.

    Building a stream refuses (``ValueError``) a mixture or shift whose
    inputs can overflow, even where the draws would stay finite: a source
    coordinate is at most ``radius + NORMAL_BOUND * sigma``, which
    ``feature_scale`` multiplies by ``|1 + m|`` and ``feature_noise``
    grows by ``NORMAL_BOUND * |m|``, ``m`` the effective magnitude.
    """

    mix: MixtureSpec
    spec: StreamSpec
    rng: Rng

    def __post_init__(self):
        source = self.mix.radius + NORMAL_BOUND * self.mix.sigma
        bounds = {f"mixture at radius {self.mix.radius:g}, sigma {self.mix.sigma:g}": source}
        for sh in self.spec.shifts:
            m = sh.effective_magnitude
            name = f"{sh.kind} at magnitude {sh.magnitude:g}, level {sh.level}"
            if sh.kind == "feature_scale":
                bounds[name] = source * abs(1.0 + m)
            elif sh.kind == "feature_noise":
                bounds[name] = source + NORMAL_BOUND * abs(m)
        for name, bound in bounds.items():
            if not math.isfinite(bound):
                raise ValueError(f"{name}: the inputs can overflow")

    def __len__(self) -> int:
        return len(self.spec.shifts)

    def __iter__(self):
        priors = long_tail_priors(self.mix.C, self.spec.label_rho)
        seen: dict[str, int] = {}
        for shift in self.spec.shifts:
            base = shift.key(0)
            occurrence = seen.get(base, 0)
            seen[base] = occurrence + 1
            # drawn in a call, so this frame keeps no shift between yields
            yield self._draw(shift, priors, self.rng.derive(shift.key(occurrence)))

    def _draw(self, shift: ShiftSpec, priors: np.ndarray, srng: Rng):
        B, n, mix = self.spec.batches_per_shift, self.spec.batch_size, self.mix
        X, y = np.empty((B, n, mix.d)), np.empty((B, n), dtype=np.int64)
        for i in range(B):
            Xi, y[i] = sample_batch(mix, priors, n, srng)
            X[i] = apply_shift(Xi, shift, srng)
        return X, y

    def leading(self, k: int) -> "Stream":
        """The stream of each shift's first ``k`` batches, ``1 <= k <= B``.
        A shift draws its batches in order, so they have the bits of this
        stream's, and nothing past them is drawn."""
        if not 1 <= k <= self.spec.batches_per_shift:
            raise ValueError(f"need 1 to {self.spec.batches_per_shift} leading batches, got {k}")
        return replace(self, spec=replace(self.spec, batches_per_shift=k))


def kl_divergence(p, q) -> float:
    """KL(p || q) with ``1e-12`` added to both arguments, then renormalized."""
    p = as_vector(p) + 1e-12
    q = as_vector(q) + 1e-12
    p = p / np.sum(p)
    q = q / np.sum(q)
    return float(np.sum(p * np.log(p / q)))


def _confusion(codes: np.ndarray, y: np.ndarray, C: int) -> np.ndarray:
    """The ``... x C x C`` counts of (label, prediction) pairs, per row of
    the ``... x n`` argmax predictions ``codes``, whose ``n`` columns
    share the validated labels ``y``: one ``bincount`` of ``label * C +
    prediction``, offset by ``C * C`` per row of ``codes``.  Writes into
    ``codes``."""
    *lead, _ = codes.shape
    blocks = math.prod(lead)
    codes += np.multiply(y, C, dtype=np.intp)
    codes += np.arange(0, blocks * C * C, C * C).reshape(*lead, 1)
    return np.bincount(codes.ravel(), minlength=blocks * C * C).reshape(*lead, C, C)


def _report(confusion, sums) -> MetricsReport:
    """A report from summaries, with the bits of scoring ``P`` itself.

    ``confusion`` holds the ``C x C`` (label, prediction) counts and
    ``sums`` is ``np.add.reduce`` over the rows of ``P`` with each row's
    largest probability appended, an in-order sum per column: ``sums[:C]
    / n`` is ``P.mean(axis=0)`` to the bit, and ``sums[C] / n`` the mean
    row maximum.  The accuracy, ``trace / n``, is an exact integer sum
    and one correctly rounded divide, the bits of ``np.mean(preds ==
    y)``.
    """
    n, C = np.add.reduce(confusion, axis=None), len(confusion)
    pred_counts = np.add.reduce(confusion, axis=0)
    label_counts = np.add.reduce(confusion, axis=1)
    tp = np.diagonal(confusion)
    denom = 2.0 * tp + (pred_counts - tp) + (label_counts - tp)
    # denom = 0 implies tp = 0, so the clamp leaves those classes at 0.0
    per_class_f1 = 2.0 * tp / np.maximum(denom, 1.0)

    marginal = sums[:C] / n
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
        avg_max_prob=float(sums[C] / n),
    )


STACK_BYTES = 640 << 10
"""The budget for the per-protocol memory of one :func:`run_protocols`
call; :func:`stack_size` divides it by one protocol's share.  At 640 KiB
eleven protocols of the shipped model (10 classes, 32 hidden units,
64-row batches) stack on streams of up to five shifts, so ``lr-sweep``
runs its baseline and ten rates as one stack."""


def stack_size(source_model, spec: StreamSpec) -> int:
    """How many protocols of ``source_model`` over a stream of ``spec``
    (or its leading batches) one :func:`run_protocols` call stacks within
    ``STACK_BYTES``; at least one.  It reads the spec's batch rows and
    shift count alone, and draws no data.

    A stacked protocol holds one batch of ``n`` rows, never a shift: its
    step's ``model.step_bytes(source_model, n)`` and its scoring's
    ``(n + 1) x (C + 1)`` probabilities and row maxima under running sums,
    ``n`` argmax predictions, ``C + 1`` running total and, per shift,
    ``C x C`` counts and ``C + 1`` sums.  Not counted: the scoring hook's
    two arrays of ``n`` flat indices and numpy's iterator buffers, 64 KiB
    at most each.
    """
    C, n, shifts = source_model.C, spec.batch_size, len(spec.shifts)
    scoring = (n + 1) * (C + 1) + n + shifts * (C * C + C + 1) + C + 1
    return max(1, STACK_BYTES // (step_bytes(source_model, n) + 8 * scoring))


class _Tally:
    """The running summaries of ``K`` stacked protocols, scored batch by
    batch as :func:`adapt_stream` predicts (see :class:`ProtocolResult`).

    :meth:`shift` starts a shift of labels ``y`` (``B x n``) and returns
    the scoring hook for that shift's :func:`adapt_stream` call, which
    hands it each batch's ``K x n x C`` probabilities.  The hook adds
    each batch's argmax predictions to the shift's counts, exactly.  It
    writes the batch into rows 1 to ``n`` of an ``(n + 1) x K x (C + 1)``
    array, each row's largest probability, gathered at its argmax, in the
    last column; it puts a running sum of each protocol in row 0 and
    reduces over the rows: once with the shift's sums (zeros at first;
    ``0 + p`` is ``p`` for probabilities, which are never ``-0``), once
    with the total over every batch before.  Each column still adds its
    rows in sequence, so each protocol's sums keep the bits of its own
    one-protocol reduction.
    """

    def __init__(self, K: int, C: int):
        self.K, self.C = K, C
        self.confusion, self.sums = [], []
        self.total = np.zeros((K, C + 1))

    def shift(self, y: np.ndarray):
        (_, n), K, C = y.shape, self.K, self.C
        rows = np.empty((n + 1, K, C + 1))
        counts, sums = np.zeros((K, C, C), np.intp), np.zeros((K, C + 1))
        self.confusion.append(counts)
        self.sums.append(sums)
        flat = rows.reshape(n + 1, K * (C + 1))
        batch, peaks = rows[1:, :, :C].transpose(1, 0, 2), rows[1:, :, C].T
        # each row's offset in the flattened K x n x C batch, and its argmax's
        offsets = np.arange(0, K * n * C, C).reshape(K, n)
        index = np.empty_like(offsets)

        def score(i: int, P: np.ndarray) -> None:
            codes = np.argmax(P, axis=-1)
            # gathered at the argmax: the bits of np.max(P, axis=-1)
            np.take(P.reshape(-1), np.add(codes, offsets, out=index), out=peaks, mode="clip")
            np.add(counts, _confusion(codes, y[i], C), out=counts)
            np.copyto(batch, P)
            # continue row by row, as the concatenated matrix's sums do
            for running in (sums, self.total):
                rows[0] = running
                np.add.reduce(flat, axis=0, out=running.reshape(K * (C + 1)))

        return score

    def result(self, k: int) -> "ProtocolResult":
        """Protocol ``k``'s summaries, as views of the stacked arrays."""
        return ProtocolResult(
            [c[k] for c in self.confusion], [s[k] for s in self.sums], self.total[k]
        )


def run_protocols(source_model, shift_data, mode: str, plugin_factories, cfgs) -> list:
    """Run one adaptation protocol per plugin factory, stacked, in one
    pass over a stream; returns, per protocol, its
    :class:`ProtocolResult` or the :class:`DivergenceError` that ended it.

    ``shift_data`` yields each shift's ``(X, y)``, as a :class:`Stream`
    or a list of its shifts does, and is read once; the call lets go of a
    shift before it reads the next, so over a :class:`Stream` it holds
    one shift of the stream at a time.  Each of the
    ``K`` ``plugin_factories`` builds a fresh loss plugin (single-domain
    mode calls it once per shift, continual mode once for the whole
    stream, so stateful losses persist across shifts exactly when the
    model does), and ``cfgs`` holds each protocol's :class:`SgdConfig`,
    one per factory.  Protocol ``k`` adapts its own copy of
    ``source_model``, row ``k`` of one ``(K, P)`` parameter array (reset
    to the source at every shift in single-domain mode), with factory
    ``k``'s plugins and ``cfgs[k]``, and gives the bits, and makes the
    plugin and SGD calls, that it gives alone.  Optimizer momentum does
    not persist in either mode: every shift is one :func:`adapt_stream`
    call over that array, which starts each model from zero velocity and
    sees the inputs only.  Metrics are online: every batch is scored,
    against its labels, on the probabilities predicted before the update
    it triggers.

    Scoring is :func:`adapt_stream`'s per-batch hook, so the call holds
    one batch of probabilities per protocol, never a shift's: each batch,
    in the buffer that :func:`adapt_stream` owns, is added to the
    protocol's confusion counts and running sums of its columns and row
    maxima as soon as it is predicted, and the next batch overwrites it;
    every result gives ``per_shift``, ``overall`` and ``accuracy``.
    :func:`stack_size` bounds ``K`` by what the call holds per
    protocol.

    Each shift's labels must be integers in ``[0, C)``, ``B x n`` like
    its inputs.  A shift with no rows raises ``ValueError`` naming it,
    and so do a stream with no shifts, an empty list of factories and a
    ``cfgs`` of another length.  A protocol whose update diverges takes
    no further plugin or SGD call, and its entry is its
    :class:`DivergenceError`, naming its shift and batch; the other
    protocols keep their bits.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    factories, cfgs = list(plugin_factories), list(cfgs)
    if not factories:
        raise ValueError("need at least one plugin factory")
    if len(cfgs) != len(factories):
        raise ValueError(
            f"need one SgdConfig per plugin factory, {len(factories)}, got {len(cfgs)}"
        )
    K, C = len(factories), source_model.C
    tally, errors = _Tally(K, C), [None] * K
    theta, plugins = np.stack([source_model.theta] * K), None
    s = -1
    # not enumerate: its reused result tuple would hold a shift while the next is drawn
    for X, y in shift_data:
        s += 1
        if np.size(y) == 0:
            raise ValueError(f"shift {s} has no rows to score")
        y = validated_labels(y, np.shape(X)[:2], C)
        if plugins is None or mode == "single_domain":
            theta[...] = source_model.theta
            plugins = [f() if e is None else None for f, e in zip(factories, errors)]
        score = tally.shift(y)
        for k, exc in enumerate(adapt_stream(source_model, theta, X, plugins, cfgs, score)):
            if exc is not None:
                errors[k], plugins[k] = DivergenceError(exc.stage, exc.batch, s), None
        del X, y, score  # score holds the labels; let the shift go before the next is drawn
        if all(e is not None for e in errors):
            break
    if plugins is None:
        raise ValueError("the stream has no shifts to score")
    return [tally.result(k) if exc is None else exc for k, exc in enumerate(errors)]


def run_chunked(source_model, spec: StreamSpec, shift_data, plugin_factories: list, cfgs: list):
    """Yield :func:`run_protocols`'s entry for each protocol of
    ``plugin_factories`` and ``cfgs``, in order, over ``shift_data``: the
    stream of ``spec``, in its mode, or its leading batches.  The
    protocols run in chunks of :func:`stack_size` protocols, each chunk
    one :func:`run_protocols` call and one pass over ``shift_data``, and
    a chunk runs only once the caller reaches it, so a caller that raises
    on an entry (:func:`succeeded`) runs no later chunk."""
    K = stack_size(source_model, spec)
    for start in range(0, len(plugin_factories), K):
        chunk = slice(start, start + K)
        yield from run_protocols(
            source_model, shift_data, spec.mode, plugin_factories[chunk], cfgs[chunk]
        )


def succeeded(run) -> ProtocolResult:
    """``run``, an entry of :func:`run_protocols`, if it is a result; the
    :class:`DivergenceError` it holds otherwise, raised."""
    if isinstance(run, DivergenceError):
        raise run
    return run


def named_results(runs, names):
    """:func:`succeeded` on each of ``runs`` as the caller reads them, a
    :class:`DivergenceError`'s message ending with its name in ``names``."""
    for run, name in zip(runs, names):
        if isinstance(run, DivergenceError):
            run.args = (f"{run} ({name})",)
        yield succeeded(run)


def run_protocol(source_model, shift_data, mode: str, plugin_factory, cfg: SgdConfig) -> ProtocolResult:
    """One adaptation protocol: :func:`run_protocols` with the one factory
    ``plugin_factory`` and the optimizer ``cfg``, the ``K = 1`` call of
    the stacked engine, whose contract it keeps.  A diverging update
    raises :class:`DivergenceError` naming the shift and the batch."""
    (run,) = run_protocols(source_model, shift_data, mode, [plugin_factory], [cfg])
    return succeeded(run)
