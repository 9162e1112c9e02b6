"""Predictive prior for a new study's effect, built from a single study.

Under the normal hierarchical model with an improper uniform prior on the
overall mean, a single estimate (y1, s1) leaves the heterogeneity posterior
equal to its prior, and the predictive distribution for a second study's
effect is the normal scale mixture

    theta_2 | tau  ~  Normal(y1, s1^2 + 2 tau^2),    tau ~ tau_prior.

:class:`MapPrior` represents that mixture exactly (location y1, base variance
s1^2, mixing prior on tau).  Density, CDF and log-density curvature are
mixing integrals over tau, evaluated with one tau mixing rule per
``MapPrior`` (see :mod:`mapprior.quadrature`): each becomes
``kernel(theta - y1, nodes) @ weights`` over blocks of 512 theta values.
The rule is built on the first evaluation, for the largest offset
|theta - y1| + s1 that evaluation needs, rounded up to s1 times a power of
two, and checked once against a refined copy of itself.  A later
evaluation that reaches further replaces it with a rule built and checked
for the larger reach; smaller reaches reuse it.  Quantiles invert the CDF
by bisection on the same rule.  Heavy-tailed mixing priors are fully
supported; only the variance becomes infinite for them, every other
evaluation stays finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from .errors import InvalidParameterError, QuadratureError
from .priors import HeterogeneityPrior
from .quadrature import MixingRule, mixing_rule
from .study import StudyEstimate

__all__ = ["MapPrior", "conditional_moments"]

#: theta values evaluated per block, bounds peak memory
_BLOCK = 512

#: CDF tails below this are indistinguishable from zero for every consumer
#: (the quantile tolerance is 1e-8), so the rule check holds them absolutely
_TAIL_FLOOR = 1e-13

#: probability tolerance for quantile inversion
_QUANTILE_TOL = 1e-8


def conditional_moments(study: StudyEstimate, tau: float) -> tuple[float, float]:
    """Predictive mean and variance for a new effect at fixed heterogeneity.

    The mean is the study's estimate; the variance adds the estimation
    variance and twice the squared heterogeneity (one tau^2 for the
    uncertainty about the underlying mean, one for the new study's own
    deviation from it).
    """
    if tau < 0:
        raise InvalidParameterError(f"heterogeneity must be >= 0, got {tau!r}")
    return study.y, study.variance + 2.0 * tau ** 2


@dataclass(frozen=True)
class MapPrior:
    """Normal scale mixture prior for a new study's effect.

    Immutable; all evaluations are pure functions, safe for concurrent use.
    The tau mixing rule is a private cache built on first use: concurrent
    first evaluations may each build one, and the last one stored is kept.
    """

    location: float
    base_variance: float
    tau_prior: HeterogeneityPrior
    _rule: MixingRule | None = field(default=None, init=False, repr=False,
                                     compare=False)

    def __post_init__(self):
        if not (math.isfinite(self.location)):
            raise InvalidParameterError(f"location must be finite, got {self.location!r}")
        if not (math.isfinite(self.base_variance) and self.base_variance > 0):
            raise InvalidParameterError(
                f"base variance must be > 0, got {self.base_variance!r}")

    @classmethod
    def from_study(cls, study: StudyEstimate, tau_prior: HeterogeneityPrior) -> "MapPrior":
        """Predictive prior contributed by ``study`` under ``tau_prior``."""
        return cls(location=study.y, base_variance=study.variance, tau_prior=tau_prior)

    @property
    def base_se(self) -> float:
        return math.sqrt(self.base_variance)

    def _mixture_variances(self, tau: np.ndarray) -> np.ndarray:
        return self.base_variance + 2.0 * np.square(tau)

    def _inverse_variances(self, tau: np.ndarray) -> np.ndarray:
        # 0 where tau is so large (or infinite) that the variance overflows
        with np.errstate(over="ignore"):
            return 1.0 / self._mixture_variances(tau)

    def _normal_kernel(self, d: np.ndarray, tau: np.ndarray) -> np.ndarray:
        inv = self._inverse_variances(tau)
        return np.exp(-0.5 * np.square(d) * inv) * np.sqrt(inv / (2.0 * math.pi))

    def _tail_kernel(self, d: np.ndarray, tau: np.ndarray) -> np.ndarray:
        return special.ndtr(-np.abs(d) * np.sqrt(self._inverse_variances(tau)))

    # -- pointwise evaluations -------------------------------------------

    def _mixing_rule(self, reach: float) -> MixingRule:
        """The tau rule, built or extended to serve offsets up to ``reach``."""
        rule = self._rule
        if rule is None or rule.reach < reach:
            unit = self.base_se
            reach = unit * 2.0 ** math.ceil(math.log2(reach / unit))
            rule = mixing_rule(self.tau_prior, unit, reach,
                               ((self._normal_kernel, 0.0),
                                (self._tail_kernel, _TAIL_FLOOR)))
            object.__setattr__(self, "_rule", rule)
        return rule

    def _map_blocks(self, reduce, theta):
        """Apply ``reduce(d, rule)`` to the offsets of theta from the
        location, in blocks of at most ``_BLOCK`` rows.

        ``d`` is a (k, 1) array of offsets; ``reduce`` returns an array
        whose first axis has length k.  The result keeps theta's shape in
        front of any trailing axes ``reduce`` adds.
        """
        theta = np.asarray(theta, dtype=float)
        offsets = np.atleast_1d(theta).ravel() - self.location
        finite = np.abs(offsets[np.isfinite(offsets)])
        rule = self._mixing_rule(float(np.max(finite, initial=0.0)) + self.base_se)
        pieces = [reduce(offsets[start:start + _BLOCK, None], rule)
                  for start in range(0, max(offsets.size, 1), _BLOCK)]
        out = np.concatenate(pieces)
        return out.reshape(theta.shape + out.shape[1:])

    def density(self, theta):
        """Mixture density, symmetric about the location; vectorized."""
        result = self._map_blocks(
            lambda d, rule: self._normal_kernel(d, rule.nodes) @ rule.weights, theta)
        return float(result) if result.ndim == 0 else result

    def cdf(self, theta):
        """Mixture CDF; evaluated through the nearer tail for accuracy."""
        theta = np.asarray(theta, dtype=float)
        tail = self._map_blocks(
            lambda d, rule: self._tail_kernel(d, rule.nodes) @ rule.weights, theta)
        result = np.where(theta <= self.location, tail, 1.0 - tail)
        return float(result) if result.ndim == 0 else result

    def _density_and_curvature(self, theta) -> tuple[np.ndarray, np.ndarray]:
        """Density and second derivative of the log density, from one pass
        over the rule: the density and its first two theta derivatives are
        three contractions of the same exponential matrix."""
        def reduce(d, rule):
            inv = self._inverse_variances(rule.nodes)
            scaled = rule.weights * np.sqrt(inv / (2.0 * math.pi))
            moments = np.exp(-0.5 * np.square(d) * inv) @ np.stack(
                [scaled, scaled * inv, scaled * np.square(inv)], axis=1)
            p, m1, m2 = moments.T
            offset = d[:, 0]
            return np.stack([p, -offset * m1, np.square(offset) * m2 - m1], axis=1)

        values = self._map_blocks(reduce, theta)
        p, p1, p2 = np.moveaxis(values, -1, 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            curv = p2 / p - np.square(p1 / p)
        return p, curv

    def log_density_curvature(self, theta):
        """Second derivative of the log density, by differentiation under
        the integral; the analytic local information behind the ESS."""
        curv = self._density_and_curvature(theta)[1]
        return float(curv) if np.ndim(curv) == 0 else curv

    # -- quantiles --------------------------------------------------------

    def quantiles(self, p) -> np.ndarray:
        """Vectorized inverse CDF by bracketed bisection.

        Converges to 1e-8 in probability; the initial bracket is grown from
        the base standard error and the tau prior's matching tail quantile,
        then widened geometrically if needed (heavy-tailed mixing priors put
        extreme quantiles tens of units out).
        """
        p = np.asarray(p, dtype=float)
        if np.any((p <= 0.0) | (p >= 1.0)):
            raise InvalidParameterError("quantile needs probabilities in (0, 1)")
        flat = np.atleast_1d(p).ravel()

        tail_p = np.maximum(flat, 1.0 - flat)
        half = 10.0 * (self.base_se + 2.0 * np.asarray(self.tau_prior.quantile(tail_p)))
        lo = self.location - half
        hi = self.location + half
        for _ in range(60):
            too_high = self.cdf(lo) > flat
            too_low = self.cdf(hi) < flat
            if not (too_high.any() or too_low.any()):
                break
            lo = np.where(too_high, self.location - 2.0 * (self.location - lo), lo)
            hi = np.where(too_low, self.location + 2.0 * (hi - self.location), hi)
        else:
            raise QuadratureError("could not bracket mixture quantiles")

        mid = 0.5 * (lo + hi)
        err = np.inf
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            c = self.cdf(mid)
            err = float(np.max(np.abs(c - flat)))
            if err <= _QUANTILE_TOL:
                break
            go_up = c < flat
            lo = np.where(go_up, mid, lo)
            hi = np.where(go_up, hi, mid)
        else:
            raise QuadratureError("quantile bisection stalled", achieved=err)

        exact_median = flat == 0.5
        if exact_median.any():
            mid = np.where(exact_median, self.location, mid)
        return mid.reshape(p.shape) if p.ndim else mid[0]

    def quantile(self, p: float) -> float:
        return float(self.quantiles(p))

    # -- moments and sampling ---------------------------------------------

    def variance(self) -> float:
        """Marginal variance: base variance plus twice E[tau^2]; ``inf``
        when the mixing prior's second moment does not exist."""
        second = self.tau_prior.mean_sq()
        return self.base_variance + 2.0 * second if math.isfinite(second) else math.inf

    def sd(self) -> float:
        return math.sqrt(self.variance())

    def sample(self, count: int, seed: int) -> np.ndarray:
        """Deterministic draws: inverse-CDF tau, then a normal given tau."""
        if count < 1:
            raise InvalidParameterError(f"need count >= 1, got {count!r}")
        rng = np.random.default_rng(seed)
        u = np.maximum(rng.random(count), np.finfo(float).tiny)
        tau = np.asarray(self.tau_prior.quantile(u))
        sd = np.sqrt(self._mixture_variances(tau))
        return self.location + rng.standard_normal(count) * sd
