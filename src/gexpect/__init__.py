"""Numerical laboratory for sublinear-expectation calculus in R^N.

Layered modules, bottom up: ``operator_core`` (dense symmetric matrices),
``covariance_set`` (extreme-point sets and the induced sublinear functional),
``g_normal`` (moments, bands, per-measure sampling), ``control_sim``
(controlled Gaussian paths and policy optimization), ``stoch_integral``
(elementary integrals and inequality checks), ``g_pde`` (monotone
finite differences and the probabilistic representation, ``mc_values``),
and ``experiment_cli`` (reproducible experiment runner).
"""

from .operator_core import schatten_norm
from .covariance_set import (
    CovarianceSet,
    covset_conjugate,
    covset_contains,
    covset_scale,
    covset_sum,
    g_eval,
    l2sigma_norm,
)

__all__ = [
    "schatten_norm",
    "CovarianceSet",
    "g_eval",
    "l2sigma_norm",
    "covset_scale",
    "covset_sum",
    "covset_conjugate",
    "covset_contains",
]

__version__ = "0.1.0"
