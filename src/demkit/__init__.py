"""demkit: decoupled entropy-minimization losses and desk-scale experiments.

The package splits into a numeric kernel (:mod:`demkit.numkit`), the loss
family with exact gradients (:mod:`demkit.em_losses`,
:mod:`demkit.adadem`), tiny manually-differentiated classifiers
(:mod:`demkit.model`), a synthetic distribution-shift benchmark
(:mod:`demkit.bench`), the (tau, alpha) grid search and the
learning-rate sweep, which run their protocols and rank them
(:mod:`demkit.search`), and a CLI that turns configs into those
experiments and their output files (:mod:`demkit.cli`).
"""

from .adadem import AdaDemVariant, MecState, delta, mec_init, mec_update
from .em_losses import (
    DemConfig,
    LossEval,
    boundary_second_derivative,
    cadf,
    cadf_reward,
    cadf_tempered_eval,
    conditional_entropy,
    dem_eval,
    detached_em_eval,
    em_eval,
    gmc,
    gmc_reward,
    reward_curve,
    validate_config,
)
from .numkit import Rng, finite_diff_grad, logsumexp, softmax

__version__ = "0.1.0"

__all__ = [
    "AdaDemVariant",
    "MecState",
    "delta",
    "mec_init",
    "mec_update",
    "DemConfig",
    "LossEval",
    "boundary_second_derivative",
    "cadf",
    "cadf_reward",
    "cadf_tempered_eval",
    "conditional_entropy",
    "dem_eval",
    "detached_em_eval",
    "em_eval",
    "gmc",
    "gmc_reward",
    "reward_curve",
    "validate_config",
    "Rng",
    "finite_diff_grad",
    "logsumexp",
    "softmax",
    "__version__",
]
