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
for the larger reach; smaller reaches reuse it.  Quantiles solve for the
upper-tail offset on the same rule, one solve per symmetric pair of levels,
by safeguarded Newton steps in log tail against log offset; each step reads
the tail and the density from one pass.  Heavy-tailed mixing priors are
fully supported; only the variance becomes infinite for them, every other
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

    def _tail_and_density(self, theta) -> tuple[np.ndarray, np.ndarray]:
        """Tail mass beyond |theta - location| and the density at theta, from
        one pass over the rule with the kernels of :meth:`cdf` and
        :meth:`density`."""
        def reduce(d, rule):
            return np.stack([self._tail_kernel(d, rule.nodes) @ rule.weights,
                             self._normal_kernel(d, rule.nodes) @ rule.weights], axis=1)

        values = self._map_blocks(reduce, theta)
        return values[..., 0], values[..., 1]

    def _tail_offsets(self, t: np.ndarray) -> np.ndarray:
        """Offsets x >= 0 whose upper tail S(x) = P(theta > location + x) is
        within ``_QUANTILE_TOL`` of each target t in (0, 1/2].

        Newton steps in log S against log x, exact for power tails, kept
        strictly inside a per-level bracket [lo, hi]; a step that leaves it
        is replaced by the bracket's midpoint (geometric once lo > 0).  The
        upper end is checked in the first pass and doubled while S(hi) > t.
        A converged level is frozen: a step taken at round-off lands on a
        bracket edge and the midpoint would throw the value away.
        """
        s1 = self.base_se
        tau_q = np.asarray(self.tau_prior.quantile(1.0 - t), dtype=float)
        lo = np.zeros_like(t)
        hi = 10.0 * (s1 + 2.0 * tau_q)
        x = -special.ndtri(t) * np.sqrt(s1 ** 2 + 2.0 * np.square(tau_q))
        x = np.where(x < hi, x, 0.5 * hi)
        unchecked = np.ones(t.size, dtype=bool)
        todo = np.arange(t.size)
        for passes in range(200):
            check = todo[unchecked[todo]]
            if passes >= 60 and check.size:
                raise QuadratureError("could not bracket mixture quantiles")
            tail, dens = self._tail_and_density(
                self.location + np.concatenate([x[todo], hi[check]]))
            s, f = tail[:todo.size], dens[:todo.size]
            beyond = tail[todo.size:] > t[check]
            lo[check[beyond]] = hi[check[beyond]]
            hi[check[beyond]] *= 2.0
            unchecked[check[~beyond]] = False

            target, xs = t[todo], x[todo]
            above = s > target
            lo[todo] = np.where(above, np.maximum(lo[todo], xs), lo[todo])
            hi[todo] = np.where(above, hi[todo], np.minimum(hi[todo], xs))
            unchecked[todo[~above]] = False
            err = np.abs(s - target)
            unsolved = err > _QUANTILE_TOL
            if not unsolved.any():
                return x
            todo, s, f, xs, target = (a[unsolved] for a in (todo, s, f, xs, target))
            a, b = lo[todo], hi[todo]
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                step = xs * np.exp(np.log(s / target) * s / (f * xs))
            mid = np.where(a > 0.0, np.sqrt(a * b), 0.5 * (a + b))
            x[todo] = np.where((step > a) & (step < b), step, mid)
        raise QuadratureError("mixture quantile iteration stalled",
                              achieved=float(np.max(err)))

    def quantiles(self, p) -> np.ndarray:
        """Vectorized inverse CDF, to 1e-8 in probability.

        The mixture is symmetric about its location, so each level is solved
        as an upper-tail offset for t = min(p, 1 - p), and a level and its
        mirror share one solve.  Offsets come from safeguarded Newton steps
        on the tail, starting from the normal quantile at the tau prior's
        matching tail quantile, inside a bracket grown from the base standard
        error and that tau quantile (heavy-tailed mixing priors put extreme
        quantiles tens of units out).
        """
        p = np.asarray(p, dtype=float)
        if np.any(~((p > 0.0) & (p < 1.0))):
            raise InvalidParameterError("quantile needs probabilities in (0, 1)")
        flat = p.ravel()
        if flat.size == 0:
            return np.empty(p.shape)
        t = np.minimum(flat, 1.0 - flat)
        # a level and its mirror rarely give equal targets (1 - 0.95 is not
        # 0.05 in floats); targets within the spacing of floats near 1 share
        # one solve
        order = np.argsort(t)
        ranked = t[order]
        first = np.concatenate(([True], np.diff(ranked) > np.finfo(float).eps))
        level = np.empty(t.size, dtype=int)
        level[order] = np.cumsum(first) - 1
        x = self._tail_offsets(ranked[first])[level]
        q = np.where(flat > 0.5, self.location + x, self.location - x)
        q = np.where(flat == 0.5, self.location, q)
        return q.reshape(p.shape) if p.ndim else q[0]

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
