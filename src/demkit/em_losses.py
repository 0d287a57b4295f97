"""Entropy-minimization loss family with exact analytic gradients.

The classical entropy-minimization (EM) objective is the Shannon entropy
of the softmax prediction,

    H(z) = -sum_i p_i(z) log p_i(z),    p = softmax(z).

It decomposes exactly into two parts with opposite roles,

    H(z) = T(z) + Q(z),
    T(z) = -sum_i p_i z_i   (CADF, cluster aggregation driving factor),
    Q(z) = logsumexp(z)     (GMC, gradient mitigation calibrator),

and the whole family implemented here is built from them:

* ``em_eval``            - classical EM, value and gradient,
* ``detached_em_eval``   - gradient-equivalent surrogate whose value is 0,
* ``cadf_tempered_eval`` - CADF at temperature tau,
* ``dem_eval``           - decoupled EM, ``T_tau + alpha * Q``,
* ``reward_curve``       - the one-hot-direction reward profile of a config.

The *reward* of class i is the negative partial derivative of the loss
with respect to logit i; positive rewards drive that logit up under
gradient descent.  The CADF reward ``p_i (T + z_i + 1)`` is
``-cadf_tempered_eval(z, 1.0).grad`` and the GMC reward ``-p_i`` is
``-softmax(z)``.  ``validate_config`` and ``boundary_second_derivative``
implement the validity region of the (tau, alpha) plane: for alpha > 0
the decoupled loss keeps the argmax direction locally rewarded only while
tau <= 2/alpha.

Every gradient here is hand-derived and exact; the test suite checks each
one against a central finite-difference oracle.

Each public function validates its logits once (``_logits``) and then
works through the private kernels below, which take a validated float64
vector and never validate again.  Every scalar loss has one value kernel
that computes the value alone, with no gradient:

* ``_entropy(z)`` for ``em_eval`` and ``conditional_entropy``,
* ``_cadf_tempered_value(z, tau)`` for ``cadf_tempered_eval`` and ``cadf`` (tau = 1),
* ``_dem_value(z, cfg)`` for ``dem_eval``,
* ``model._cross_entropy_value(z, target)`` for source training's ``model._ce_rows``.

The public ``*_eval(...).value`` is that kernel's result, and the
gradient check (``demkit gradcheck``) differentiates the same kernel by
central differences, so the oracle checks each analytic gradient against
exactly the function whose value the public API returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numkit import _classes, _logsumexp, _logsumexp_rows, _positive, _scaled, _softmax, _softmax_rows, as_vector

__all__ = [
    "LossEval",
    "DemConfig",
    "ConfigError",
    "conditional_entropy",
    "cadf",
    "gmc",
    "em_eval",
    "detached_em_eval",
    "cadf_tempered_eval",
    "dem_eval",
    "validate_config",
    "boundary_second_derivative",
    "reward_curve",
    "em_rows",
    "em_row_values",
    "dem_rows",
    "dem_row_values",
]

VALIDITY_SLACK = 1e-12


@dataclass
class LossEval:
    """A scalar loss value together with its gradient w.r.t. the logits."""

    value: float
    grad: np.ndarray


class ConfigError(ValueError):
    """Raised when a (tau, alpha) pair violates the validity region."""


@dataclass(frozen=True)
class DemConfig:
    """Decoupled-EM configuration: temperature and GMC weight.

    Both must be finite and ``alpha`` non-negative.  ``alpha = 0`` (pure
    tempered CADF) is always admitted; for ``alpha > 0`` the pair must
    satisfy ``tau <= 2/alpha``.
    An invalid pair is rejected at construction with a ``ConfigError``
    naming the violated bound, so the losses taking a ``DemConfig`` never
    check it.
    """

    tau: float
    alpha: float

    def __post_init__(self):
        if validate_config(self.tau, self.alpha):
            return
        if not (math.isfinite(self.tau) and math.isfinite(self.alpha)):
            need = "requires finite tau and alpha"
        elif self.alpha < 0:
            need = "requires alpha >= 0"
        else:
            bound = 2.0 / self.alpha if self.alpha else float("inf")
            need = f"requires tau > 0 and, for alpha > 0, tau <= 2/alpha = {bound:.6g}"
        raise ConfigError(f"invalid hyperparameters tau={self.tau}, alpha={self.alpha}: {need}")


def _logits(z) -> np.ndarray:
    return as_vector(z, min_len=2)


def _entropy(z: np.ndarray) -> float:
    logp = z - _logsumexp(z)
    return -float(np.add.reduce(np.exp(logp) * logp))


def _em_grad(z: np.ndarray) -> np.ndarray:
    p = _softmax(z)
    t = -np.dot(p, z)
    return -p * (t + z)


def _tempered(z: np.ndarray, tau: float) -> tuple[np.ndarray, float]:
    """``p_tau = softmax(z / tau)`` and the tempered CADF ``t_tau = -p_tau . z``."""
    p_tau = _softmax(_scaled(z, tau))
    return p_tau, -np.dot(p_tau, z)


def _cadf_tempered_grad(z: np.ndarray, tau: float) -> np.ndarray:
    """Tempered-CADF gradient ``-(p_tau / tau) (t_tau + z + tau)``."""
    p_tau, t_tau = _tempered(z, tau)
    return -(p_tau / tau) * (t_tau + z + tau)


def _cadf_tempered_value(z: np.ndarray, tau: float) -> float:
    """Value kernel of :func:`cadf_tempered_eval`."""
    return _tempered(z, tau)[1]


def _dem_grad(z: np.ndarray, cfg: DemConfig) -> np.ndarray:
    """Gradient kernel of :func:`dem_eval` and :func:`reward_curve`."""
    return _cadf_tempered_grad(z, cfg.tau) + cfg.alpha * _softmax(z)


def _dem_value(z: np.ndarray, cfg: DemConfig) -> float:
    """Value kernel of :func:`dem_eval`: ``T_tau(z) + alpha * Q(z)``."""
    return _tempered(z, cfg.tau)[1] + cfg.alpha * _logsumexp(z)


def conditional_entropy(z) -> float:
    """Shannon entropy of softmax(z), computed from log-probabilities.

    Working with ``logp = z - logsumexp(z)`` instead of ``p * log(p)``
    keeps extreme logits from producing ``0 * -inf``.
    """
    return _entropy(_logits(z))


def cadf(z) -> float:
    """Cluster aggregation driving factor ``T(z) = -sum_i p_i z_i``, ``T_tau`` at tau = 1."""
    return float(_cadf_tempered_value(_logits(z), 1.0))


def gmc(z) -> float:
    """Gradient mitigation calibrator ``Q(z) = logsumexp(z)``."""
    return _logsumexp(_logits(z))


def em_eval(z) -> LossEval:
    """Classical EM: value ``H(z)``, gradient ``-p_i (T + z_i)``."""
    z = _logits(z)
    return LossEval(_entropy(z), _em_grad(z))


def detached_em_eval(z) -> LossEval:
    """Surrogate ``-sum_i (p_i - const(p_i)) z_i``.

    The constant copy cancels at the evaluation point, so the value is
    exactly 0 while the gradient equals the classical EM gradient.
    """
    z = _logits(z)
    return LossEval(0.0, _em_grad(z))


def cadf_tempered_eval(z, tau: float) -> LossEval:
    """Tempered CADF: value ``-sum_i p_{tau,i} z_i``.

    The gradient is ``-(1/tau) p_{tau,i} (T_tau + z_i + tau)`` where
    ``p_tau = softmax(z / tau)``; at ``tau = 1`` this reduces to the
    negated CADF reward.  ``tau`` must be finite and positive.
    """
    _positive(tau, "temperature tau")
    z = _logits(z)
    return LossEval(_cadf_tempered_value(z, tau), _cadf_tempered_grad(z, tau))


def validate_config(tau: float, alpha: float) -> bool:
    """Whether (tau, alpha) lies in the valid region.

    True iff the temperature ``tau`` is finite and positive, ``alpha`` is
    finite and non-negative, and either ``alpha = 0`` (the pure-CADF
    ablation, admitted) or ``tau <= 2/alpha`` with a 1e-12 slack so grids
    that land exactly on the boundary are kept.  A NaN or infinite tau or
    alpha is never valid: ``tau = inf`` at ``alpha = 0`` and ``alpha =
    inf`` at a tiny tau would otherwise pass and give NaN gradients.
    """
    try:
        _positive(tau, "temperature tau")
    except ValueError:
        return False
    return 0 <= alpha < math.inf and (alpha == 0 or tau <= 2.0 / alpha + VALIDITY_SLACK)


def boundary_second_derivative(tau: float, alpha: float, C: int) -> float:
    """Curvature of the decoupled loss along a logit at the uniform point.

    Returns ``(1 - 1/C) (alpha/C - 2/(tau C))``, which is non-positive
    exactly on the valid side ``tau <= 2/alpha``: negative curvature at
    the uniform point means a unique argmax stays locally rewarded.
    ``tau`` must be finite and positive and ``alpha`` finite (``ValueError``).
    """
    _positive(tau, "temperature tau")
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")
    _classes(C)
    return (1.0 - 1.0 / C) * (alpha / C - 2.0 / (tau * C))


def dem_eval(z, cfg: DemConfig) -> LossEval:
    """Decoupled EM: ``T_tau(z) + alpha * Q(z)``.

    At ``(tau=1, alpha=1)`` this is classical EM exactly.
    """
    z = _logits(z)
    return LossEval(_dem_value(z, cfg), _dem_grad(z, cfg))


def reward_curve(C: int, cfg: DemConfig, m_grid) -> list[tuple[float, float, float]]:
    """Reward of the leading class along the one-hot logit direction.

    For each margin ``m`` in ``m_grid`` the logits are
    ``z = (m, 0, ..., 0)`` with ``C`` entries; the row reports
    ``(m, p_max, reward)`` where ``p_max = softmax(z)_1`` and the reward
    is the negative gradient of the configured loss at that coordinate.
    Scanning m from below 0 to large values traces how the loss treats
    samples from maximally uncertain to fully confident.  Margins must
    be finite (``ValueError``).
    """
    _classes(C)
    rows = []
    for m in map(float, m_grid):
        if not math.isfinite(m):
            raise ValueError(f"margins must be finite, got {m}")
        z = np.zeros(C)
        z[0] = m
        reward = -float(_dem_grad(z, cfg)[0])
        p_max = float(_softmax(z)[0])
        rows.append((m, p_max, reward))
    return rows


def _em_probs(Z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``exp(Z - lse)`` and its log ``Z - lse``, row by row."""
    logp = Z - _logsumexp_rows(Z)[:, None]
    return np.exp(logp), logp


def em_rows(Z: np.ndarray) -> np.ndarray:
    """Batched classical EM: the per-row gradients for ``n x C`` logits.

    The adaptation loop reads gradients only, so no loss values are built
    here; they are :func:`em_row_values`.
    """
    P, _ = _em_probs(Z)
    S = np.sum(P * Z, axis=1, keepdims=True)
    return -P * (Z - S)


def em_row_values(Z: np.ndarray) -> np.ndarray:
    """Batched classical EM: the per-row entropies whose gradients
    :func:`em_rows` returns."""
    P, logp = _em_probs(Z)
    return -np.sum(P * logp, axis=1)


def dem_row_values(Z: np.ndarray, cfg: DemConfig) -> np.ndarray:
    """Batched decoupled EM: the per-row values ``T_tau(z) + alpha * Q(z)``.

    These are the values whose gradients :func:`dem_rows` returns; the
    adaptation loop never reads them, gradient checks and tests do.
    """
    T = Z / cfg.tau
    P_tau = _softmax_rows(T, T)
    S_tau = np.sum(P_tau * Z, axis=1, keepdims=True)
    return -S_tau[:, 0] + cfg.alpha * _logsumexp_rows(Z)


def dem_rows(Z: np.ndarray, P: np.ndarray, cfg: DemConfig) -> np.ndarray:
    """Batched decoupled EM: the per-row gradients w.r.t. the logits.

    ``P`` must be ``softmax_rows(Z)``, the untempered probabilities of
    the ``alpha`` term; it is read, never written.  The adaptation loop
    reads gradients only, so no loss values are built here; they are
    :func:`dem_row_values`.
    """
    T = np.divide(Z, cfg.tau)
    P_tau = _softmax_rows(T, T)  # in place: the quotient is dem_rows' own
    W = P_tau * Z
    S_tau = np.add.reduce(W, axis=1, keepdims=True)
    # alpha * P - (P_tau / tau) * (Z - S_tau + tau), built in place one
    # operation at a time in that order; the product commutes, so the
    # bits are those of -(P_tau / tau) * (Z - S_tau + tau) + alpha * P
    # (IEEE negation is exact and addition commutes).
    np.subtract(Z, S_tau, out=W)
    W += cfg.tau
    P_tau /= cfg.tau
    W *= P_tau
    G = cfg.alpha * P
    G -= W
    return G
