"""AdaDEM: self-normalized entropy minimization with a marginal calibrator.

AdaDEM removes the two hyperparameters of the decoupled loss by

* dividing each sample's gradient by ``delta``, the norm of that sample's
  CADF reward vector, which keeps the update magnitude alive even where
  the classical EM reward collapses (confident predictions), and
* replacing the GMC penalty with the MEC (marginal entropy calibrator):
  a per-pseudo-class exponential moving average of past predictions that
  penalizes classes in proportion to how strongly they have recently
  dominated, counteracting drift toward dominant and easy classes.

The loss for one sample with logits ``z``, probabilities ``p`` and
pseudo-label ``k = argmax p`` is

    L(z) = -(1/delta) * sum_i (p_i - c_i) z_i

where ``c`` is row ``k`` of the calibrator table (scaled by
``mec_alpha``), and both ``c`` and ``delta`` are treated as constants
under differentiation.  Variants: ``norm_only`` replaces ``c`` by a
constant copy of ``p`` (pure rescaling, exactly the classical EM gradient
divided by ``delta``); ``mec_only`` fixes ``delta = 1``.

State updates happen before the loss is evaluated on a batch, so the
calibrator always reflects the batch it is about to judge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .em_losses import LossEval
from .numkit import _softmax, as_matrix, as_vector, softmax_rows

__all__ = [
    "MecState",
    "AdaDemVariant",
    "NORM_KINDS",
    "DELTA_SOURCES",
    "VARIANT_KINDS",
    "delta",
    "mec_init",
    "mec_update",
    "adadem_eval",
    "adadem_rows",
    "DELTA_FLOOR",
]

NORM_KINDS = ("L1", "L2", "Linf")
DELTA_SOURCES = ("cadf", "full_entropy")
VARIANT_KINDS = ("full", "norm_only", "mec_only")

# Lower clamp applied before dividing by delta.  The full-entropy source
# vanishes at exactly uniform logits; the clamp turns that into a finite
# (if large) gradient instead of an Inf.
DELTA_FLOOR = 1e-8


@dataclass
class MecState:
    """Per-pseudo-class EMA of prediction vectors.

    ``table`` is C x C; row k is the running average of softmax outputs
    over samples pseudo-labeled k, updated with momentum ``pi`` (new
    observations weighted ``pi``, history ``1 - pi``).  Rows start at the
    uniform distribution and remain on the simplex because every update
    is a convex combination of simplex vectors.
    """

    table: np.ndarray
    pi: float = 0.1

    @property
    def C(self) -> int:
        return self.table.shape[0]

    def copy(self) -> "MecState":
        return MecState(self.table.copy(), self.pi)


@dataclass(frozen=True)
class AdaDemVariant:
    """Which pieces of AdaDEM are active.

    ``kind``: "full" (delta scaling and MEC), "norm_only" (delta scaling
    with the calibrator replaced by a constant copy of p) or "mec_only"
    (MEC with delta fixed to 1).  ``mec_alpha`` scales the calibrator row;
    ``delta_source`` picks the reward vector whose ``norm``-norm defines
    delta ("cadf" is the default; "full_entropy" is the ablation that
    uses the classical EM gradient instead).
    """

    kind: str = "full"
    mec_alpha: float = 1.0
    delta_source: str = "cadf"
    norm: str = "L1"

    def __post_init__(self):
        if self.kind not in VARIANT_KINDS:
            raise ValueError(f"unknown variant kind {self.kind!r}")
        if self.delta_source not in DELTA_SOURCES:
            raise ValueError(f"unknown delta source {self.delta_source!r}")
        if self.norm not in NORM_KINDS:
            raise ValueError(f"unknown norm {self.norm!r}")
        if self.mec_alpha < 0:
            raise ValueError(f"mec_alpha must be non-negative, got {self.mec_alpha}")


def _reward_vector(z: np.ndarray, source: str) -> np.ndarray:
    p = _softmax(z)
    s = float(np.dot(p, z))
    if source == "cadf":
        return p * (z + 1.0 - s)
    if source == "full_entropy":
        return p * (z - s)
    raise ValueError(f"unknown delta source {source!r}")


def delta(z, kind: str = "L1", source: str = "cadf") -> float:
    """Norm of a sample's reward vector, the AdaDEM gradient scale.

    The L1 norm is accumulated with ``math.fsum`` so that the uniform-
    logits case comes out as exactly 1.0 whenever the rounding of 1/C
    permits it.  The returned value is not clamped; callers dividing by
    it apply ``DELTA_FLOOR``.
    """
    if kind not in NORM_KINDS:
        raise ValueError(f"unknown norm {kind!r}")
    r = _reward_vector(as_vector(z, min_len=2), source)
    if kind == "L1":
        return math.fsum(abs(x) for x in r.tolist())
    if kind == "L2":
        return math.sqrt(math.fsum(x * x for x in r.tolist()))
    return float(np.max(np.abs(r)))


def mec_init(C: int, pi: float = 0.1) -> MecState:
    """Fresh calibrator: a C x C table with every entry 1/C."""
    if C < 2:
        raise ValueError(f"need at least two classes, got {C}")
    if not 0.0 < pi <= 1.0:
        raise ValueError(f"momentum pi must lie in (0, 1], got {pi}")
    return MecState(np.full((C, C), 1.0 / C), pi=pi)


def mec_update(state: MecState, probs, pseudo_labels) -> MecState:
    """One EMA step: each class present in the batch pulls its row
    toward the mean prediction of its samples; absent classes keep their
    rows.  Mutates ``state`` in place and returns it.

    The per-class sums are scattered in one pass with ``np.add.at``,
    which adds rows strictly in batch order, as the per-class
    ``P[labels == k].mean(axis=0)`` does, so the table keeps the same
    bits.  ``np.add.reduceat`` and a ones-vector matmul sum in another
    order and do not.

    The input is validated here, then handed to the kernel
    ``_mec_update``; ``adadem_rows``, which builds ``P`` and its argmax
    labels itself, calls the kernel directly.
    """
    P = np.atleast_2d(np.asarray(probs, dtype=np.float64))
    labels = np.asarray(pseudo_labels, dtype=np.int64).ravel()
    if P.shape[0] != labels.shape[0]:
        raise ValueError("probs and pseudo_labels disagree on batch size")
    C = state.C
    if P.shape[1] != C:
        raise ValueError(f"expected {C} classes, got {P.shape[1]}")
    if labels.size and (labels.min() < 0 or labels.max() >= C):
        raise ValueError("pseudo-label out of range")
    return _mec_update(state, P, labels)


def _mec_update(state: MecState, P: np.ndarray, labels: np.ndarray) -> MecState:
    """Kernel of :func:`mec_update` for an ``n x C`` float64 ``P`` and
    ``n`` int64 labels in ``[0, C)``; checks nothing."""
    C = state.C
    sums = np.zeros((C, C))
    np.add.at(sums, labels, P)
    counts = np.bincount(labels, minlength=C)
    present = counts > 0
    means = sums[present] / counts[present][:, None]
    state.table[present] = (1.0 - state.pi) * state.table[present] + state.pi * means
    return state


def _deltas_rows(
    Z: np.ndarray, P: np.ndarray, S: np.ndarray, Rc: np.ndarray, variant: AdaDemVariant
) -> np.ndarray:
    """Per-row delta values: the scalar ``delta``'s formulas, not its bits.

    ``S`` is the row-wise ``np.sum(P * Z)`` and ``Rc = P * (Z + 1 - S)``
    the CADF reward rows, both built once by ``adadem_rows``; the
    ``"full_entropy"`` source builds its own ``P * (Z - S)``.  ``delta``
    takes ``np.dot(p, z)`` on a single-row softmax, so the two can round
    differently in the last places; they agree to about 1e-14 under
    ``rel_err``.
    """
    n = Z.shape[0]
    if variant.kind == "mec_only":
        return np.ones(n)
    R = Rc if variant.delta_source == "cadf" else P * (Z - S)
    if variant.norm == "L1":
        return np.fromiter(map(math.fsum, np.abs(R).tolist()), dtype=np.float64, count=n)
    if variant.norm == "L2":
        return np.fromiter(
            (math.sqrt(math.fsum(r)) for r in (R * R).tolist()), dtype=np.float64, count=n
        )
    return np.max(np.abs(R), axis=1)


def adadem_rows(
    Z: np.ndarray,
    P: np.ndarray,
    state: MecState,
    variant: AdaDemVariant = AdaDemVariant(),
) -> tuple[np.ndarray, np.ndarray]:
    """Batched AdaDEM: updates ``state``, returns per-row values and grads.

    The values are the losses ``L(z)`` of the module docstring, to be
    minimized; the grads are their gradients w.r.t. the logits.

    ``P`` must be ``softmax_rows(Z)``; it is read, never written, so a
    caller that scores it keeps its bits.  Ordering contract: the
    calibrator absorbs this batch first, then the loss is evaluated
    against the updated rows.
    """
    Z = np.atleast_2d(np.asarray(Z, dtype=np.float64))
    if Z.shape[1] != state.C:
        raise ValueError(f"expected {state.C} classes, got {Z.shape[1]}")
    if P.shape != Z.shape:
        raise ValueError(f"probabilities of shape {P.shape} for logits of shape {Z.shape}")
    labels = np.argmax(P, axis=1)
    _mec_update(state, P, labels)

    if variant.kind == "norm_only":
        Cmat = P
    else:
        Cmat = variant.mec_alpha * state.table[labels]
    S = np.sum(P * Z, axis=1, keepdims=True)
    Rc = P * (Z + 1.0 - S)
    d = np.maximum(_deltas_rows(Z, P, S, Rc, variant), DELTA_FLOOR)[:, None]
    values = -np.sum((P - Cmat) * Z, axis=1, keepdims=True) / d
    grads = -(Rc - Cmat) / d
    return values[:, 0], grads


def adadem_eval(
    z_batch, state: MecState, variant: AdaDemVariant = AdaDemVariant()
) -> list[LossEval]:
    """Per-sample AdaDEM evaluations for a batch of logit vectors.

    ``z_batch`` is an ``n x C`` matrix, or a list of ``n`` equal-length
    vectors, which ``np.asarray`` turns into the same matrix; it must be
    finite with at least two classes (``ValueError`` otherwise, with
    ``state`` untouched).  Updates ``state`` (one EMA step for the
    whole batch) before evaluating, and treats the calibrator rows and
    delta as constants in the gradients.
    """
    Z = as_matrix(z_batch)
    if Z.shape[1] < 2:
        raise ValueError(f"logit rows need at least 2 entries, got {Z.shape[1]}")
    values, grads = adadem_rows(Z, softmax_rows(Z), state, variant)
    return [LossEval(float(v), g) for v, g in zip(values, grads.copy())]
