"""Power-prior and bias-allowance readings of the heterogeneity prior.

At fixed heterogeneity tau, the predictive prior built from (y1, s1) is the
same normal as a power prior that raises the source likelihood to the
exponent

    a0 = (2 tau^2 / s1^2 + 1)^-1   in (0, 1],

so any prior on tau induces a prior on the borrowing exponent a0 via this
change of variables; ``a0_density`` evaluates it.

The same two-study model can be reparameterized as a bias-allowance
("reference") model: the target effect is a free parameter alpha, and the
source estimate is offset from alpha by a normal bias with standard
deviation beta = sqrt(2) tau.  Every heterogeneity family is a scale family,
so beta's prior is the tau prior's family at sqrt(2) times its scale.
``reference_model_posterior`` integrates alpha's posterior directly on that
formulation with the adaptive Gauss-Kronrod rule of
:func:`~mapprior.quadrature.adaptive_quad`, on the grid (not the density) of
:func:`~mapprior.shrink.shrinkage_posterior`; its agreement with the exact
shrinkage mixture is what makes it an independent oracle.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import as_real, as_reals
from .priors import HeterogeneityPrior
from .mixture import normal_pdf
from .shrink import ShrinkagePosterior, _mix_on_grid, _normalized, _posterior_grid
from .study import StudyEstimate

__all__ = [
    "a0_from_tau",
    "tau_from_a0",
    "a0_density",
    "beta_prior_from_tau_prior",
    "reference_model_posterior",
]


def a0_from_tau(tau, s1: float):
    """Borrowing exponent equivalent to heterogeneity ``tau`` at source
    standard error ``s1``; 1 at tau = 0 (full borrowing), decreasing in tau."""
    s1 = as_real(s1, "source standard error", 0.0)
    tau = as_reals(tau, "heterogeneity", 0.0, ends="[)")
    out = s1 ** 2 / (s1 ** 2 + 2.0 * np.square(tau))
    return float(out) if out.ndim == 0 else out


def tau_from_a0(a0, s1: float):
    """Inverse of :func:`a0_from_tau` on (0, 1]."""
    s1 = as_real(s1, "source standard error", 0.0)
    a0 = as_reals(a0, "borrowing exponent", 0.0, 1.0, ends="(]")
    out = s1 * np.sqrt((1.0 - a0) / (2.0 * a0))
    return float(out) if out.ndim == 0 else out


def a0_density(tau_prior: HeterogeneityPrior, s1: float, a0):
    """Density of the borrowing exponent induced by ``tau_prior``.

    Change of variables from the tau density through
    tau(a0) = s1 sqrt((1 - a0) / (2 a0)):

        p(a0) = s1/(2 sqrt(2)) * sqrt(a0/(1-a0)) / a0^2 * p_tau(tau(a0)).

    Defined on the open interval; the endpoints are returned as limits and
    may be infinite.  The density diverges integrably at a0 = 1.  At a0 = 0
    (tau -> inf) it tends to tau^3 p_tau(tau) / s1^2: infinite for a power
    tail p_tau ~ tau^-(k+1) with index k < 2 (half-Cauchy, half-Student-t
    with nu < 2, Lomax with alpha < 2), 2 scale^2 / s1^2 at k = 2 (the
    half-Student-t with nu = 2 and the Lomax with alpha = 2 alike), and 0
    for lighter tails and bounded support.
    """
    s1 = as_real(s1, "source standard error", 0.0)
    a0 = as_reals(a0, "borrowing exponent", 0.0, 1.0, ends="[]")
    k = tau_prior.tail_index
    zero_limit = (math.inf if k < 2.0 else 0.0 if k > 2.0
                  else 2.0 * (tau_prior.scale / s1) ** 2)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        tau = s1 * np.sqrt((1.0 - a0) / (2.0 * a0))
        jac = (s1 / (2.0 * math.sqrt(2.0))) * np.sqrt(a0 / (1.0 - a0)) / np.square(a0)
        out = jac * tau_prior.density(np.where(np.isfinite(tau), tau, 0.0))
        out = np.where(a0 == 0.0, zero_limit, out)
        out = np.where(a0 == 1.0, math.inf if tau_prior.density(0.0) > 0 else 0.0, out)
    return float(out) if out.ndim == 0 else out


def beta_prior_from_tau_prior(tau_prior: HeterogeneityPrior) -> HeterogeneityPrior:
    """Prior for the source-bias standard deviation beta = sqrt(2) tau: the
    same family at sqrt(2) times the scale."""
    return dataclasses.replace(tau_prior, scale=math.sqrt(2.0) * tau_prior.scale)


def reference_model_posterior(source: StudyEstimate, target: StudyEstimate,
                              tau_prior: HeterogeneityPrior) -> ShrinkagePosterior:
    """Posterior for the target effect under the bias-allowance model.

    With a uniform prior on the target effect alpha, the source estimate
    contributes the bias-marginalized likelihood
    integral of Normal(y1; alpha, s1^2 + beta^2) against the beta prior,
    and the target contributes its own normal likelihood.  Computed on the
    grid of :func:`shrinkage_posterior` and agrees with it up to quadrature
    error.
    """
    source_map, _, grid = _posterior_grid(source, target, tau_prior)
    y1, v1 = source.y, source.variance

    def source_factor(beta: np.ndarray):
        return y1, 1.0 / (v1 + np.square(beta)), 1.0

    marginal = _mix_on_grid(grid, source_factor, beta_prior_from_tau_prior(tau_prior),
                            0.5 * source.se, float(np.max(np.abs(grid - y1))) + source.se)
    values = marginal * normal_pdf(grid - target.y, 1.0 / target.variance)
    return _normalized(grid, values, source_map, target)
