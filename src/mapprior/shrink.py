"""Two-study shrinkage: combine a predictive prior with a new likelihood.

Given tau, the predictive prior times the target's normal likelihood is a
normal, so on a tau mixing rule the target's posterior is a finite normal
mixture whose summaries need no grid.  :func:`shrinkage_posterior` tabulates
its density for the independent routes, which evaluate their own densities
on that grid; :func:`mac_oracle` keeps its own algebra on the adaptive engine.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np
from scipy import special

from .errors import GridCoverageError, InvalidParameterError, QuadratureError
from .mixture import _BLOCK, MapPrior, NormalMixture, normal_pdf
from .priors import HeterogeneityPrior
from .quadrature import mix_against_prior, mixing_rule
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
    dropped.  The rule is checked on both sides of y2 out to 8 target SEs
    beyond y1, past which no component reaches."""
    y2, v2 = target.y, target.variance
    gap = source_map.location - y2

    def mixture(tau, w):
        inv = source_map._mixture(tau, w).precisions   # the prior's; 0 at tau = inf
        share = inv / (inv + 1.0 / v2)
        return NormalMixture(y2, normal_pdf(gap, share / v2) * w, gap * share, inv + 1.0 / v2)

    # the lower tail at y2 - d and the upper at y2 + d, with the density at each
    rule = mixing_rule(source_map.tau_prior, min(source_map.base_se, target.se),
                       abs(gap) + 8.0 * target.se, lambda tau, w, d: mixture(tau, w)._reduce(
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


def shrinkage_posterior(source: StudyEstimate, target: StudyEstimate,
                        tau_prior: HeterogeneityPrior) -> ShrinkagePosterior:
    """Posterior for the target effect: predictive prior times likelihood,
    its exact density tabulated at ``GRID_POINTS`` equally spaced values between
    its 1e-12 and 1 - 1e-12 quantiles."""
    source_map = MapPrior.from_study(source, tau_prior)
    mixture = posterior_mixture(source_map, target)
    grid = np.linspace(*mixture.quantiles([1e-12, 1.0 - 1e-12]), GRID_POINTS)
    post = ShrinkagePosterior(grid, mixture.density(grid), source_map, target)
    object.__setattr__(post, "_mixture", mixture)
    return post


def _mix_by_block(grid: np.ndarray, integrand, prior, inner_scale: float,
                  outer_scale) -> np.ndarray:
    """:func:`mix_against_prior` of ``integrand(col, tau)`` at every grid
    point, 512 points a pass; ``outer_scale(col)`` is its widest feature."""
    out = np.empty(grid.size)
    for start in range(0, grid.size, _BLOCK):
        col = grid[start:start + _BLOCK][:, None]
        out[start:start + col.size] = mix_against_prior(
            functools.partial(integrand, col), prior, inner_scale=inner_scale,
            outer_scale=outer_scale(col))
    return out


def mac_oracle(source: StudyEstimate, target: StudyEstimate,
               tau_prior: HeterogeneityPrior) -> ShrinkagePosterior:
    """Joint-model route to the same posterior, used as an oracle: given tau
    and a uniform prior on the overall mean, the target effect is normal,
    and tau has weight p(tau) Normal(y2; y1, s1^2 + s2^2 + 2 tau^2).  The
    adaptive engine integrates over tau on the grid of
    :func:`shrinkage_posterior`, and the trapezoidal rule normalizes."""
    post = shrinkage_posterior(source, target, tau_prior)
    v1, v2 = source.variance, target.variance
    y1, y2 = source.y, target.y

    def conditional_mixture(col: np.ndarray, tau: np.ndarray) -> np.ndarray:
        rho = np.square(tau)
        mean_mu = (y1 * (v2 + rho) + y2 * (v1 + rho)) / (v1 + v2 + 2.0 * rho)
        var_mu = (v1 + rho) * (v2 + rho) / (v1 + v2 + 2.0 * rho)
        blend = v2 / (rho + v2)
        mean_t = (rho * y2 + v2 * mean_mu) / (rho + v2)
        var_t = rho * v2 / (rho + v2) + np.square(blend) * var_mu
        weight = normal_pdf(y2 - y1, 1.0 / (v1 + v2 + 2.0 * rho))
        return weight * normal_pdf(col - mean_t, 1.0 / var_t)

    def outer_scale(col: np.ndarray) -> float:
        return max(float(np.max(np.abs(col - y1))), abs(y1 - y2)) + source.se + target.se

    values = _mix_by_block(post.grid, conditional_mixture, tau_prior,
                           0.5 * min(source.se, target.se), outer_scale)
    return _normalized(post.grid, values, post.source_map, target)


def posterior_summaries(mixture: NormalMixture,
                        levels: Sequence[float]) -> list[PosteriorSummary]:
    """Median, central credible interval and P(effect < 0) at each level;
    the median and every bound are one quantile solve."""
    levels = np.asarray(levels, dtype=float)
    if np.any(~((levels > 0.0) & (levels < 1.0))):
        raise InvalidParameterError(f"interval level must be in (0, 1), got {levels}")
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
