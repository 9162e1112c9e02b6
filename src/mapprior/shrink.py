"""Two-study shrinkage: combine a predictive prior with a new likelihood.

Given tau, the predictive prior times the target's normal likelihood is a
normal, so on a tau mixing rule the target's posterior is a finite normal
mixture whose summaries need no grid.  Component by component,

    w N(y2; y1, s1^2 + s2^2 + 2 tau^2) N(theta; m, v)
        = N(y2; theta, s2^2) w N(theta; y1, s1^2 + 2 tau^2),

so on any rule the posterior is the likelihood times that rule's MAP
density, normalized.  It is built on the MAP prior's own rule, whose check
vouches for it unless the estimates conflict; a conflict keeps the
posterior's own check (see :func:`posterior_mixture`).
:func:`shrinkage_posterior` tabulates its density; the independent routes
read its grid but not that density, and evaluate their own on it,
:func:`mac_oracle` with its own algebra.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np
from scipy import special

from .errors import GridCoverageError, QuadratureError, as_reals
from .mixture import MapPrior, NormalMixture, normal_pdf
from .priors import HeterogeneityPrior
from .quadrature import RELATIVE_FLOOR, mix_against_prior, mixing_rule
from .study import StudyEstimate

__all__ = ["PosteriorSummary", "ShrinkagePosterior", "mac_oracle", "posterior_mixture",
           "posterior_summaries", "posterior_summary", "shrinkage_posterior", "width_ratio"]

#: grid points of a tabulated posterior density
GRID_POINTS = 4001


class PosteriorSummary(NamedTuple):
    median: float
    lower: float
    upper: float
    prob_below_zero: float


def posterior_mixture(source_map: MapPrior, target: StudyEstimate) -> NormalMixture:
    """The target effect's posterior under the predictive prior ``source_map``.

    Each tau node gives the conjugate normal of Normal(y1, s1^2 + 2 tau^2) and
    the likelihood Normal(y2; theta, s2^2), weighted by the node's weight times
    Normal(y2; y1, s1^2 + s2^2 + 2 tau^2); weights below 1e-16 of the total are
    dropped.  The nodes are those of ``source_map``'s rule, extended to the
    offset r = |y1 - y2| + 8 s2 past which the likelihood is below e^-32 of
    its peak: the posterior is the likelihood times that rule's MAP density,
    which its check holds to ``RULE_TOL`` out to r wherever it is above
    ``RELATIVE_FLOOR`` of its peak.  Where the density at r is below that (a
    conflict), the posterior builds and checks its own rule, with inner
    scale min(s1, s2), on both sides of y2 out to r."""
    y2, v2 = target.y, target.variance
    gap = source_map.location - y2
    reach = abs(gap) + 8.0 * target.se

    def mixture(tau, w):
        inv = source_map._mixture(tau, w).precisions   # the prior's; 0 at tau = inf
        share = inv / (inv + 1.0 / v2)
        return NormalMixture(y2, normal_pdf(gap, share / v2) * w, gap * share, inv + 1.0 / v2)

    rule = source_map._mixing_rule(reach)
    peak, edge = source_map._mixture(rule.nodes, rule.weights)._reduce(np.array([0.0, reach]))
    if not edge >= RELATIVE_FLOOR * peak:
        # the lower tail at y2 - d and the upper at y2 + d, with the density at each
        rule = mixing_rule(source_map.tau_prior, min(source_map.base_se, target.se), reach,
                           lambda tau, w, d: mixture(tau, w)._reduce(
                               np.concatenate([-d, d]), np.repeat([True, False], d.size)))
    mix = mixture(rule.nodes, rule.weights)
    keep = mix.weights > 1e-16 * np.sum(mix.weights)
    if not keep.any():
        raise QuadratureError("every posterior component weight underflows: the "
                              "estimates conflict beyond floating-point range")
    return NormalMixture(y2, mix.weights[keep] / np.sum(mix.weights[keep]), mix.offsets[keep],
                         mix.precisions[keep])


@dataclass(frozen=True)
class ShrinkagePosterior:
    """A posterior density on a grid, for plotting and comparing routes;
    summaries read the :attr:`mixture` of ``source_map`` and ``target``."""

    grid: np.ndarray
    density: np.ndarray
    source_map: MapPrior
    target: StudyEstimate
    _mixture: NormalMixture | None = field(default=None, init=False, repr=False,
                                           compare=False)

    def __post_init__(self):
        self.grid.setflags(write=False)
        self.density.setflags(write=False)

    @property
    def mixture(self) -> NormalMixture:
        if self._mixture is None:
            object.__setattr__(self, "_mixture",
                               posterior_mixture(self.source_map, self.target))
        return self._mixture


def _normalized(grid: np.ndarray, unnorm: np.ndarray, source_map: MapPrior,
                target: StudyEstimate) -> ShrinkagePosterior:
    mass = np.trapezoid(unnorm, grid)
    if not (math.isfinite(mass) and mass > 0.0):
        raise GridCoverageError("posterior mass vanished on the grid")
    return ShrinkagePosterior(grid=grid, density=unnorm / mass,
                              source_map=source_map, target=target)


@functools.lru_cache(maxsize=1)
def _posterior_grid(source, target, tau_prior) -> tuple[MapPrior, NormalMixture, np.ndarray]:
    """The predictive prior, the posterior mixture and the grid of
    :func:`shrinkage_posterior`, read-only and kept for the last inputs, so
    that the routes of one problem build one posterior."""
    source_map = MapPrior.from_study(source, tau_prior)
    mixture = posterior_mixture(source_map, target)
    grid = np.linspace(*mixture.quantiles([1e-12, 1.0 - 1e-12]), GRID_POINTS)
    for array in (grid, mixture.weights, mixture.offsets, mixture.precisions):
        array.setflags(write=False)
    return source_map, mixture, grid


def shrinkage_posterior(source: StudyEstimate, target: StudyEstimate,
                        tau_prior: HeterogeneityPrior) -> ShrinkagePosterior:
    """Posterior for the target effect: predictive prior times likelihood,
    its exact density tabulated at ``GRID_POINTS`` equally spaced values between
    its 1e-12 and 1 - 1e-12 quantiles."""
    source_map, mixture, grid = _posterior_grid(source, target, tau_prior)
    post = ShrinkagePosterior(grid, mixture.density(grid), source_map, target)
    object.__setattr__(post, "_mixture", mixture)
    return post


def _mix_on_grid(grid: np.ndarray, kernel, prior, inner_scale: float,
                 outer_scale: float) -> np.ndarray:
    """:func:`mix_against_prior` at every grid point at once, of
    weight * normal_pdf(theta - mean, precision) with ``(mean, precision,
    weight) = kernel(tau)`` on an array of tau, each broadcast to its
    shape; ``outer_scale`` is the integrand's widest feature."""

    def integrand(tau: np.ndarray) -> np.ndarray:
        mean, precision, weight = np.broadcast_arrays(*kernel(tau), tau)[:3]
        z = np.subtract.outer(mean, grid)       # (tau, grid): contiguous per tau
        z *= z
        z *= -0.5 * precision[:, None]
        np.exp(z, out=z)
        z *= (weight * np.sqrt(precision / (2.0 * math.pi)))[:, None]
        return z.T

    return mix_against_prior(integrand, prior, inner_scale=inner_scale,
                             outer_scale=outer_scale)


def mac_oracle(source: StudyEstimate, target: StudyEstimate,
               tau_prior: HeterogeneityPrior) -> ShrinkagePosterior:
    """Joint-model route to the same posterior, used as an oracle: given tau
    and a uniform prior on the overall mean, the target effect is normal,
    and tau has weight p(tau) Normal(y2; y1, s1^2 + s2^2 + 2 tau^2).
    :func:`~mapprior.quadrature.adaptive_quad` integrates over tau at every
    point of the grid of :func:`shrinkage_posterior` at once, on its own
    Gauss-Kronrod nodes, and the trapezoidal rule normalizes."""
    source_map, _, grid = _posterior_grid(source, target, tau_prior)
    v1, v2 = source.variance, target.variance
    y1, y2 = source.y, target.y

    def conditional_mixture(tau: np.ndarray):
        rho = np.square(tau)
        mean_mu = (y1 * (v2 + rho) + y2 * (v1 + rho)) / (v1 + v2 + 2.0 * rho)
        var_mu = (v1 + rho) * (v2 + rho) / (v1 + v2 + 2.0 * rho)
        blend = v2 / (rho + v2)
        mean_t = (rho * y2 + v2 * mean_mu) / (rho + v2)
        precision = 1.0 / (rho * v2 / (rho + v2) + np.square(blend) * var_mu)
        weight = normal_pdf(y2 - y1, 1.0 / (v1 + v2 + 2.0 * rho))
        return mean_t, precision, weight

    outer_scale = (max(float(np.max(np.abs(grid - y1))), abs(y1 - y2))
                   + source.se + target.se)
    values = _mix_on_grid(grid, conditional_mixture, tau_prior,
                          0.5 * min(source.se, target.se), outer_scale)
    return _normalized(grid, values, source_map, target)


def posterior_summaries(mixture: NormalMixture,
                        levels: Sequence[float]) -> list[PosteriorSummary]:
    """Median, central credible interval and P(effect < 0) at each level;
    the median and every bound are one quantile solve."""
    levels = as_reals(levels, "interval levels", 0.0, 1.0)
    tails = (1.0 - levels) / 2.0
    q = mixture.quantiles(np.concatenate([[0.5], tails, 1.0 - tails])).tolist()
    below = float(mixture.cdf(0.0))
    return [PosteriorSummary(q[0], lo, hi, below)
            for lo, hi in zip(q[1:1 + levels.size], q[1 + levels.size:])]


def posterior_summary(post: ShrinkagePosterior, level: float = 0.95) -> PosteriorSummary:
    """Median, central credible interval and P(effect < 0) of the mixture."""
    return posterior_summaries(post.mixture, [level])[0]


def interval_width_ratio(summary: PosteriorSummary, target: StudyEstimate,
                         level: float) -> float:
    """Interval width relative to the target-alone normal interval."""
    return (summary.upper - summary.lower) / (
        2.0 * float(special.ndtri((1.0 + level) / 2.0)) * target.se)


def width_ratio(post: ShrinkagePosterior, target: StudyEstimate,
                level: float = 0.95) -> float:
    """Posterior interval width relative to the target-alone normal interval."""
    return interval_width_ratio(posterior_summary(post, level), target, level)
