"""Two-study shrinkage: combine a predictive prior with a new likelihood.

The target study's posterior is the scale-mixture prior contributed by the
source study multiplied by the target's normal likelihood, represented on a
dense grid and normalized by the trapezoidal rule.  :func:`shrinkage_posterior`
is the only place a posterior grid is built: it widens the covering grid
until the edges are negligible and then tightens it onto the support.  The
independent routes evaluate their own densities on that grid, so pointwise
comparisons between routes are meaningful.  The joint-model route
(:func:`mac_oracle`) conditions on the heterogeneity instead, weighting each
tau by its marginal likelihood and mixing the tau-conditional normal
posteriors, and must agree with the prior-times-likelihood route to
numerical precision; the two constructions are mathematically identical.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import special

from .errors import GridCoverageError, InvalidParameterError
from .mixture import _BLOCK, MapPrior
from .priors import HeterogeneityPrior
from .quadrature import mix_against_prior
from .study import StudyEstimate

__all__ = [
    "ShrinkagePosterior",
    "PosteriorSummary",
    "shrinkage_posterior",
    "posterior_summary",
    "mac_oracle",
    "width_ratio",
    "posterior_grid",
]

#: default number of grid points for posterior densities
GRID_POINTS = 4001

#: grid widenings attempted before giving up
_MAX_WIDENINGS = 8

#: edge density above this fraction of the peak triggers widening
_EDGE_FRACTION = 1e-12

#: density below this fraction of the peak counts as outside the support
#: during grid refinement (keeps well over the required 0.99999 mass)
_SUPPORT_FRACTION = 1e-14

#: refinement stops once the support fills this share of the grid
_SUPPORT_FILL = 0.5


@dataclass(frozen=True)
class ShrinkagePosterior:
    """Grid-represented posterior density for the target study's effect."""

    grid: np.ndarray
    density: np.ndarray
    source_map: MapPrior
    target: StudyEstimate

    def __post_init__(self):
        self.grid.setflags(write=False)
        self.density.setflags(write=False)

    def cdf_values(self) -> np.ndarray:
        """Trapezoidal cumulative distribution along the grid."""
        steps = np.diff(self.grid)
        increments = 0.5 * steps * (self.density[1:] + self.density[:-1])
        cdf = np.concatenate(([0.0], np.cumsum(increments)))
        return cdf / cdf[-1]

    def quantile(self, p: float) -> float:
        if not 0.0 < p < 1.0:
            raise InvalidParameterError("quantile needs probabilities in (0, 1)")
        cdf = self.cdf_values()
        return float(np.interp(p, cdf, self.grid))

    def mean(self) -> float:
        return float(np.trapezoid(self.grid * self.density, self.grid))


class PosteriorSummary(NamedTuple):
    median: float
    lower: float
    upper: float
    prob_below_zero: float


def posterior_grid(source: StudyEstimate, target: StudyEstimate,
                   tau_prior: HeterogeneityPrior,
                   points: int = GRID_POINTS) -> np.ndarray:
    """Evaluation grid shared by every posterior route.

    Spans the precision-weighted center of the two estimates by +/- 12 times
    the largest relevant scale (either standard error, the mixture standard
    deviation when finite, or three times the tau prior's 99% quantile, which
    keeps heavy-tailed priors covered).
    """
    w1, w2 = 1.0 / source.variance, 1.0 / target.variance
    center = (source.y * w1 + target.y * w2) / (w1 + w2)
    map_sd = MapPrior.from_study(source, tau_prior).sd()
    scales = [source.se, target.se, 3.0 * float(tau_prior.quantile(0.99))]
    if math.isfinite(map_sd):
        scales.append(map_sd)
    half = 12.0 * max(scales)
    return np.linspace(center - half, center + half, points)


def _normal_pdf(x: np.ndarray, mean, var) -> np.ndarray:
    return np.exp(-0.5 * np.square(x - mean) / var) / np.sqrt(2.0 * math.pi * var)


def _normalized(grid: np.ndarray, unnorm: np.ndarray, source_map: MapPrior,
                target: StudyEstimate) -> ShrinkagePosterior:
    mass = np.trapezoid(unnorm, grid)
    if not (math.isfinite(mass) and mass > 0.0):
        raise GridCoverageError("posterior mass vanished on the grid")
    return ShrinkagePosterior(grid=grid, density=unnorm / mass,
                              source_map=source_map, target=target)


def shrinkage_posterior(source: StudyEstimate, target: StudyEstimate,
                        tau_prior: HeterogeneityPrior,
                        points: int = GRID_POINTS) -> ShrinkagePosterior:
    """Posterior for the target effect: predictive prior times likelihood.

    The grid starts from :func:`posterior_grid`, widens while the edge
    density is non-negligible relative to the peak, then tightens onto the
    actual support: one fixed-size grid cannot otherwise resolve extreme
    scale ratios (a nearly flat likelihood leaves the posterior orders of
    magnitude narrower than the covering span).
    """
    source_map = MapPrior.from_study(source, tau_prior)

    def unnorm_fn(grid: np.ndarray) -> np.ndarray:
        return _normal_pdf(grid, target.y, target.variance) * source_map.density(grid)

    grid = posterior_grid(source, target, tau_prior, points)
    center = 0.5 * (grid[0] + grid[-1])
    half = grid[-1] - center
    unnorm = None
    for _ in range(_MAX_WIDENINGS):
        unnorm = unnorm_fn(grid)
        peak = float(np.max(unnorm))
        if peak > 0.0 and max(unnorm[0], unnorm[-1]) <= _EDGE_FRACTION * peak:
            break
        half *= 2.0
        grid = np.linspace(center - half, center + half, points)
    else:
        raise GridCoverageError(
            "posterior grid edges stayed non-negligible after maximum widening")

    for _ in range(3):
        inside = np.nonzero(unnorm > _SUPPORT_FRACTION * np.max(unnorm))[0]
        lo = max(int(inside[0]) - 3, 0)
        hi = min(int(inside[-1]) + 3, points - 1)
        if hi - lo >= _SUPPORT_FILL * (points - 1):
            break
        grid = np.linspace(grid[lo], grid[hi], points)
        unnorm = unnorm_fn(grid)
    return _normalized(grid, unnorm, source_map, target)


def _mix_by_block(grid: np.ndarray, integrand, prior, inner_scale: float,
                  outer_scale) -> np.ndarray:
    """:func:`mix_against_prior` at every grid point, 512 points per pass.

    ``integrand(col, tau)`` is the mixing integrand at a column of grid
    points, and ``outer_scale(col)`` the widest feature scale it declares.
    """
    out = np.empty(grid.size)
    for start in range(0, grid.size, _BLOCK):
        col = grid[start:start + _BLOCK][:, None]
        out[start:start + col.size] = mix_against_prior(
            functools.partial(integrand, col), prior, inner_scale=inner_scale,
            outer_scale=outer_scale(col))
    return out


def mac_oracle(source: StudyEstimate, target: StudyEstimate,
               tau_prior: HeterogeneityPrior,
               points: int = GRID_POINTS) -> ShrinkagePosterior:
    """Joint-model route to the same posterior, used as an oracle.

    Conditional on tau, with a uniform prior on the overall mean, the target
    effect's posterior is normal with precision-weighted moments; tau itself
    carries weight proportional to its prior density times the marginal
    likelihood Normal(y2; y1, s1^2 + s2^2 + 2 tau^2).  The posterior is the
    weighted mixture over tau, evaluated on the grid of
    :func:`shrinkage_posterior` and normalized the same way.
    """
    post = shrinkage_posterior(source, target, tau_prior, points)
    v1, v2 = source.variance, target.variance
    y1, y2 = source.y, target.y

    def conditional_mixture(col: np.ndarray, tau: np.ndarray) -> np.ndarray:
        rho = np.square(tau)
        mean_mu = (y1 * (v2 + rho) + y2 * (v1 + rho)) / (v1 + v2 + 2.0 * rho)
        var_mu = (v1 + rho) * (v2 + rho) / (v1 + v2 + 2.0 * rho)
        blend = v2 / (rho + v2)
        mean_t = (rho * y2 + v2 * mean_mu) / (rho + v2)
        var_t = rho * v2 / (rho + v2) + np.square(blend) * var_mu
        weight = _normal_pdf(y2, y1, v1 + v2 + 2.0 * rho)
        return weight * _normal_pdf(col, mean_t, var_t)

    def outer_scale(col: np.ndarray) -> float:
        span = max(float(np.max(np.abs(col - y1))), abs(y1 - y2))
        return span + source.se + target.se

    values = _mix_by_block(post.grid, conditional_mixture, tau_prior,
                           0.5 * min(source.se, target.se), outer_scale)
    return _normalized(post.grid, values, post.source_map, target)


def posterior_summary(post: ShrinkagePosterior, level: float = 0.95) -> PosteriorSummary:
    """Median, central credible interval and P(effect < 0) from the grid CDF."""
    if not 0.0 < level < 1.0:
        raise InvalidParameterError(f"interval level must be in (0, 1), got {level!r}")
    cdf = post.cdf_values()
    lower_p = (1.0 - level) / 2.0
    median, lower, upper = np.interp([0.5, lower_p, 1.0 - lower_p], cdf, post.grid)
    prob_below = np.interp(0.0, post.grid, cdf)
    return PosteriorSummary(float(median), float(lower), float(upper), float(prob_below))


def width_ratio(post: ShrinkagePosterior, target: StudyEstimate,
                level: float = 0.95) -> float:
    """Posterior interval width relative to the target-alone normal interval."""
    summary = posterior_summary(post, level)
    z = float(special.ndtri((1.0 + level) / 2.0))
    return (summary.upper - summary.lower) / (2.0 * z * target.se)
