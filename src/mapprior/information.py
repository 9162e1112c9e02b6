"""Unit-information standard deviations and prior effective sample sizes.

The effective sample size of a prior p is taken as the expected local
information it carries, expressed in patient units:

    ESS = sigma_u^2 * E_p[ -(log p)''(theta) ],

where sigma_u is the unit-information standard deviation (sqrt(n) times the
standard error, the per-patient uncertainty scale).  For an exact normal
prior this reduces to (sigma_u / sd)^2.  The expectation is integrated over
the central 1 - 1e-6 probability mass on equal-probability panels
(heavy-tailed priors keep their far tails, where local information
legitimately turns negative, at negligible weight).

For a :class:`MapPrior` the local information is the analytic curvature of
the log mixture density (Neuenschwander et al. 2020), read together with
the density from one evaluation, and the panel edges come from one quantile
inversion.  For any other density, :func:`ess_elir` estimates the curvature
by central finite differences with Richardson extrapolation.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .errors import EssInstabilityError, InvalidParameterError
from .mixture import MapPrior
from .quadrature import panel_nodes

__all__ = ["uisd", "ess_elir", "ess_for_map_prior", "ess_table"]

#: one-sided truncation probability for the expectation integral
_TAIL_PROB = 5e-7

#: nodes per expectation panel
_PANEL_ORDER = 24

#: negative local information is legitimate in scale-mixture shoulders and
#: tails (often over half the mass at tiny magnitude); the expectation is
#: declared unstable only when the negative contribution rivals the positive
_NEGATIVE_SHARE_LIMIT = 0.5


def uisd(n: int, se: float) -> float:
    """Unit-information standard deviation: sqrt(n) times the standard error."""
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise InvalidParameterError(f"patient count must be an integer >= 1, got {n!r}")
    if not (isinstance(se, (int, float)) and math.isfinite(se) and se > 0):
        raise InvalidParameterError(f"standard error must be > 0, got {se!r}")
    return math.sqrt(n) * se


def _probability_ladder() -> np.ndarray:
    tails = np.array([_TAIL_PROB, 1e-5, 1e-4, 1e-3, 5e-3, 0.01, 0.025])
    core = np.linspace(0.05, 0.95, 19)
    return np.concatenate([tails, core, 1.0 - tails[::-1]])


#: positions of the 0.025 and 0.975 quantiles on the ladder, which set the
#: finite-difference step
_Q025, _Q975 = 6, -7


def _edges_from_grid(density: Callable, lo: float, hi: float,
                     probs: np.ndarray) -> np.ndarray:
    """Quantiles by trapezoidal CDF inversion on a dense uniform grid."""
    grid = np.linspace(lo, hi, 4001)
    vals = np.asarray(density(grid), dtype=float)
    steps = np.diff(grid)
    cdf = np.concatenate(([0.0], np.cumsum(0.5 * steps * (vals[1:] + vals[:-1]))))
    cdf /= cdf[-1]
    # probabilities are re-expressed relative to the truncated range
    return np.interp(probs, cdf, grid)


def _expectation(weights: np.ndarray, p: np.ndarray, info: np.ndarray,
                 uisd_value: float) -> float:
    """uisd^2 times the p-weighted mean local information, refused when the
    negative part rivals the positive."""
    mass = float(weights @ p)
    expectation = float(weights @ (p * info)) / mass
    negative_part = -float(weights @ (p * np.minimum(info, 0.0))) / mass
    positive_part = float(weights @ (p * np.maximum(info, 0.0))) / mass
    negative_mass = float(weights @ (p * (info < 0.0))) / mass
    if expectation <= 0.0 or negative_part > _NEGATIVE_SHARE_LIMIT * positive_part:
        raise EssInstabilityError("local-information expectation unstable",
                                  negative_mass=negative_mass,
                                  expectation=expectation)
    return uisd_value ** 2 * expectation


def _panel_edges(ladder: np.ndarray) -> np.ndarray:
    """Strictly increasing panel edges from a (weakly increasing) quantile
    ladder."""
    edges = np.maximum.accumulate(ladder)
    keep = np.concatenate(([True], np.diff(edges) > 0.0))
    return edges[keep]


def ess_elir(density: Callable[[np.ndarray], np.ndarray],
             support: tuple[float, float],
             uisd_value: float,
             quantile: Callable[[np.ndarray], np.ndarray] | None = None) -> float:
    """Expected-local-information-ratio effective sample size of a density.

    Parameters
    ----------
    density : callable
        Normalized density; must accept an ndarray of points (any shape).
    support : (float, float)
        Range covering the central probability mass over which the
        expectation is taken (ideally the central 1 - 1e-6 quantile range).
    uisd_value : float
        Unit-information standard deviation setting the patient scale.
    quantile : callable, optional
        Vectorized inverse CDF.  When given, integration panels are placed
        at equal-probability quantiles (essential for heavy tails); when
        absent they are derived from a dense-grid CDF over ``support``.

    Raises
    ------
    EssInstabilityError
        If local information is negative over a non-negligible share of the
        probability mass, or the expectation itself is not positive.
    """
    if not (math.isfinite(uisd_value) and uisd_value > 0):
        raise InvalidParameterError(f"uisd must be > 0, got {uisd_value!r}")
    lo, hi = float(support[0]), float(support[1])
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise InvalidParameterError(f"support must be a finite range, got {support!r}")

    probs = _probability_ladder()
    if quantile is not None:
        ladder = np.asarray(quantile(probs), dtype=float)
    else:
        ladder = _edges_from_grid(density, lo, hi, probs)
    q025, q975 = ladder[_Q025], ladder[_Q975]
    nodes, weights = panel_nodes(_panel_edges(np.clip(ladder, lo, hi)),
                                 order=_PANEL_ORDER)

    step = 1e-3 * (q975 - q025) / 4.0
    offsets = np.array([0.0, -step, step, -step / 2.0, step / 2.0])
    stencil = nodes[None, :] + offsets[:, None]
    vals = np.asarray(density(stencil), dtype=float)
    logp = np.log(np.maximum(vals, 1e-300))

    coarse = (logp[1] - 2.0 * logp[0] + logp[2]) / step ** 2
    fine = (logp[3] - 2.0 * logp[0] + logp[4]) / (step / 2.0) ** 2
    info = -(4.0 * fine - coarse) / 3.0
    return _expectation(weights, vals[0], info, uisd_value)


def ess_for_map_prior(map_prior: MapPrior, uisd_value: float) -> float:
    """ESS of a scale-mixture prior: panels at its quantiles, local
    information from the analytic log-density curvature."""
    if not (math.isfinite(uisd_value) and uisd_value > 0):
        raise InvalidParameterError(f"uisd must be > 0, got {uisd_value!r}")
    edges = _panel_edges(map_prior.quantiles(_probability_ladder()))
    nodes, weights = panel_nodes(edges, order=_PANEL_ORDER)
    p, curvature = map_prior._density_and_curvature(nodes)
    return _expectation(weights, p, -curvature, uisd_value)


def ess_table(map_priors: Sequence[MapPrior], uisd_value: float) -> list[float]:
    """Per-prior effective sample sizes, in input order."""
    return [ess_for_map_prior(mp, uisd_value) for mp in map_priors]
