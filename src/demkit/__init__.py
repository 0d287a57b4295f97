"""demkit: decoupled entropy-minimization losses and desk-scale experiments.

The package splits into a numeric kernel (:mod:`demkit.numkit`), the loss
family with exact gradients (:mod:`demkit.em_losses`,
:mod:`demkit.adadem`), tiny manually-differentiated classifiers
(:mod:`demkit.model`), a synthetic distribution-shift benchmark
(:mod:`demkit.bench`), the (tau, alpha) grid search and the
learning-rate sweep, which run their protocols and rank them
(:mod:`demkit.search`), and a CLI that turns configs into those
experiments and their output files (:mod:`demkit.cli`).

The package itself binds no name of its modules: import each name from
the module that defines it, as in ``from demkit.em_losses import dem_eval``.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
