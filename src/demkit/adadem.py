"""AdaDEM: self-normalized entropy minimization with a marginal calibrator.

AdaDEM removes the two hyperparameters of the decoupled loss by

* dividing each sample's gradient by ``delta``, the L1 norm of that
  sample's CADF reward vector ``p * (z + 1 - p.z)``, which keeps the
  update magnitude alive even where the classical EM reward collapses
  (confident predictions), and
* replacing the GMC penalty with the MEC (marginal entropy calibrator):
  a per-pseudo-class exponential moving average of past predictions that
  penalizes classes in proportion to how strongly they have recently
  dominated, counteracting drift toward dominant and easy classes.

The loss for one sample with logits ``z``, probabilities ``p`` and
pseudo-label ``k = argmax p`` is

    L(z) = -(1/delta) * sum_i (p_i - c_i) z_i

where ``c`` is row ``k`` of the calibrator table, and both ``c`` and
``delta`` are treated as constants under differentiation.  The one other
variant, ``norm_only``, replaces ``c`` by a constant copy of ``p`` (pure
rescaling, exactly the classical EM gradient divided by ``delta``).

State updates happen before the loss is evaluated on a batch, so the
calibrator always reflects the batch it is about to judge.

Each batched ``delta`` has the bits of ``math.fsum`` over its row on
every platform.  ``numkit._row_fsums`` sums a batch of 24 rows or more in
one longdouble pass where numpy's longdouble is x87 extended precision,
and calls ``fsum`` only for the rows whose sum it cannot certify as
correctly rounded; elsewhere, and for shorter batches, every row calls
``fsum``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numkit import _classes, _row_fsums, _softmax, as_matrix, as_vector, validated_labels

__all__ = [
    "MecState",
    "AdaDemVariant",
    "VARIANT_KINDS",
    "delta",
    "mec_init",
    "mec_update",
    "adadem_rows",
    "adadem_row_values",
    "DELTA_FLOOR",
]

VARIANT_KINDS = ("full", "norm_only")

# Lower clamp applied before dividing by delta.  In exact arithmetic the
# CADF reward's entries sum to 1, so delta >= 1.  In floating point
# ``z + 1 - s`` cancels to 0 once |z| reaches about 1e16
# (``delta([1e17, 0.0]) == 0.0``); the clamp turns that into a finite, if
# large, gradient instead of inf or NaN.
DELTA_FLOOR = 1e-8


@dataclass
class MecState:
    """Per-pseudo-class EMA of prediction vectors.

    ``table`` is C x C; row k is the running average of softmax outputs
    over samples pseudo-labeled k, updated with momentum ``pi`` (new
    observations weighted ``pi``, history ``1 - pi``).  Rows start at the
    uniform distribution and remain on the simplex because every update
    is a convex combination of simplex vectors.  A table that is not
    square, or a ``pi`` outside (0, 1], raises ``ValueError``.
    """

    table: np.ndarray
    pi: float

    def __post_init__(self):
        _momentum(self.pi)
        shape = np.shape(self.table)
        if len(shape) != 2 or shape[0] != shape[1]:
            raise ValueError(f"the calibrator table must be C x C, got shape {shape}")

    @property
    def C(self) -> int:
        return self.table.shape[0]

    def copy(self) -> "MecState":
        return MecState(self.table.copy(), self.pi)


@dataclass(frozen=True)
class AdaDemVariant:
    """Which pieces of AdaDEM are active.

    ``kind``: "full" (delta scaling and MEC) or "norm_only" (delta
    scaling with the calibrator replaced by a constant copy of p).  Delta
    is always :func:`delta`, the L1 norm of the CADF reward.
    """

    kind: str = "full"

    def __post_init__(self):
        if self.kind not in VARIANT_KINDS:
            raise ValueError(f"unknown variant kind {self.kind!r}")


def delta(z) -> float:
    """L1 norm of a sample's CADF reward ``p * (z + 1 - p.z)``, the AdaDEM
    gradient scale; at least 1 up to rounding.

    The norm is accumulated with ``math.fsum`` so that the uniform-logits
    case comes out as exactly 1.0 whenever the rounding of 1/C permits
    it.  The returned value is not clamped; callers dividing by it apply
    ``DELTA_FLOOR``.  The batched deltas of ``adadem_rows`` take ``p.z``
    as a row-wise reduction instead of ``np.dot``, so the two can round
    differently in the last places; they agree to about 1e-14 under
    ``rel_err``.
    """
    z = as_vector(z, min_len=2)
    p = _softmax(z)
    s = float(np.dot(p, z))
    return math.fsum(abs(x) for x in (p * (z + 1.0 - s)).tolist())


def _momentum(pi: float) -> float:
    """The calibrator's momentum ``pi``, refused unless it lies in (0, 1]:
    the one check of the rule, for ``MecState`` and ``model.AdaDemPlugin``."""
    if not 0.0 < pi <= 1.0:
        raise ValueError(f"momentum pi must lie in (0, 1], got {pi}")
    return pi


def mec_init(C: int, pi: float) -> MecState:
    """Fresh calibrator: a C x C table with every entry 1/C."""
    _classes(C)
    return MecState(np.full((C, C), 1.0 / C), pi)


def mec_update(state: MecState, probs, pseudo_labels) -> MecState:
    """One EMA step: each class present in the batch pulls its row
    toward the mean prediction of its samples; absent classes keep their
    rows.  Mutates ``state`` in place and returns it.

    The per-class sums add rows strictly in batch order (see
    ``_mec_update``), as the per-class ``P[labels == k].mean(axis=0)``
    does, so the table keeps the same bits.  ``np.add.reduceat`` and a
    ones-vector matmul sum in another order and do not.

    The input is validated here (``ValueError``): ``probs`` must be a
    finite ``n x C`` matrix and ``pseudo_labels`` ``n`` integers in
    ``[0, C)``, so a float or bool label and a NaN probability are
    refused before they reach the table.  It is then handed to the kernel
    ``_mec_update``; ``adadem_rows``, which builds ``P`` and its argmax
    labels itself, calls the kernel directly.
    """
    P = as_matrix(probs)
    C = state.C
    if P.shape[1] != C:
        raise ValueError(f"expected {C} classes, got {P.shape[1]}")
    labels = validated_labels(pseudo_labels, P.shape[:1], C)
    return _mec_update(state, P, labels.astype(np.int64, copy=False))


def _mec_update(state: MecState, P: np.ndarray, labels: np.ndarray) -> MecState:
    """Kernel of :func:`mec_update` for an ``n x C`` float64 ``P`` and
    ``n`` int64 labels in ``[0, C)``; checks nothing.

    It updates the whole table at once and copies back only the rows of
    classes present in the batch; each copied row has the bits of the
    per-row update, and dividing an absent class's zero sums by 1 instead
    of 0 keeps the discarded rows finite.  The per-class sums are one
    weighted ``bincount`` over the flat cells ``label * C + column``,
    which adds each cell's rows from ``+0.0`` in batch order, as
    ``np.add.at`` into a zero table does.
    """
    C = state.C
    cells = labels[:, None] * C + np.arange(C)
    sums = np.bincount(cells.ravel(), weights=P.ravel(), minlength=C * C).reshape(C, C)
    counts = np.bincount(labels, minlength=C)
    means = sums / np.maximum(counts, 1)[:, None]
    new = (1.0 - state.pi) * state.table + state.pi * means
    np.copyto(state.table, new, where=(counts > 0)[:, None])
    return state


def _checked(Z, P, state: MecState) -> tuple:
    """``(Z, P)`` as float64 matrices of one shape, matching ``state``."""
    Z, P = (np.atleast_2d(np.asarray(A, dtype=np.float64)) for A in (Z, P))
    if Z.shape[1] != state.C:
        raise ValueError(f"expected {state.C} classes, got {Z.shape[1]}")
    if P.shape != Z.shape:
        raise ValueError(f"probabilities of shape {P.shape} for logits of shape {Z.shape}")
    return Z, P


def _loss_terms(Z, P, labels, state, variant):
    """The calibrator rows, CADF reward rows and floored deltas of a batch.

    ``Cmat`` holds each row's calibrator row (``P`` itself for
    ``norm_only``), read from ``state`` as it stands.  ``S`` is the
    row-wise ``np.add.reduce(P * Z)``, the bits of ``np.sum``, and the
    reward rows ``Rc = P * (Z + 1 - S)`` are built in one buffer in that
    operand order (the product commutes).  Each delta is the ``math.fsum``
    of its row of ``|Rc|``, the formula of the scalar ``delta`` but not
    its bits.  ``numkit._row_fsums`` gives those bits on every platform
    (module docstring): on x87 extended precision a batch of 24 rows or
    more calls ``math.fsum`` only for the rows it cannot certify, about
    0.5% of lr-sweep's; gradcheck's shorter batches call it per row.
    """
    Cmat = P if variant.kind == "norm_only" else state.table[labels]
    S = np.add.reduce(P * Z, axis=1, keepdims=True)
    Rc = Z + 1.0
    Rc -= S
    Rc *= P
    return Cmat, Rc, np.maximum(_row_fsums(np.abs(Rc)), DELTA_FLOOR)[:, None]


def adadem_rows(
    Z: np.ndarray,
    P: np.ndarray,
    state: MecState,
    variant: AdaDemVariant = AdaDemVariant(),
) -> np.ndarray:
    """Batched AdaDEM: updates ``state``, returns the per-row gradients.

    The gradients are those of the losses ``L(z)`` of the module
    docstring w.r.t. the logits.  The adaptation loop reads gradients
    only, so no loss values are built here; they are
    :func:`adadem_row_values`.

    ``P`` must be ``softmax_rows(Z)``; it is read, never written, so a
    caller that scores it keeps its bits.  Ordering contract: the
    calibrator absorbs this batch first, then the loss is evaluated
    against the updated rows.
    """
    Z, P = _checked(Z, P, state)
    labels = np.argmax(P, axis=1)
    _mec_update(state, P, labels)
    Cmat, grads, d = _loss_terms(Z, P, labels, state, variant)
    # -(Rc - Cmat) / d, one operation at a time in the same buffer.
    grads -= Cmat
    np.negative(grads, out=grads)
    grads /= d
    return grads


def adadem_row_values(
    Z: np.ndarray,
    P: np.ndarray,
    state: MecState,
    variant: AdaDemVariant = AdaDemVariant(),
) -> np.ndarray:
    """Batched AdaDEM: the per-row losses ``L(z)``, to be minimized.

    These are the values whose gradients :func:`adadem_rows` returns.
    ``state`` is read, not updated: call this after :func:`adadem_rows`
    has absorbed the batch, so the values use the same calibrator rows
    as the gradients.  ``P`` must be ``softmax_rows(Z)``.
    """
    Z, P = _checked(Z, P, state)
    Cmat, _, d = _loss_terms(Z, P, np.argmax(P, axis=1), state, variant)
    return (-np.sum((P - Cmat) * Z, axis=1, keepdims=True) / d)[:, 0]

