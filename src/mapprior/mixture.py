"""Predictive prior for a new study's effect, built from a single study.

Under the normal hierarchical model with an improper uniform prior on the
overall mean, a single estimate (y1, s1) leaves the heterogeneity posterior
equal to its prior, and the predictive distribution for a second study's
effect is the normal scale mixture

    theta_2 | tau  ~  Normal(y1, s1^2 + 2 tau^2),    tau ~ tau_prior.

:class:`MapPrior` represents that mixture exactly (location y1, base variance
s1^2, mixing prior on tau).  Density, CDF and log-density curvature are
mixing integrals over tau, evaluated on one tau mixing rule per ``MapPrior``
(see :mod:`mapprior.quadrature`), where the prior is a finite normal mixture,
:class:`NormalMixture` (the shrinkage posterior is one too).
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

__all__ = ["MapPrior", "NormalMixture", "conditional_moments", "normal_pdf"]

#: theta values evaluated per block, bounds peak memory
_BLOCK = 512

#: probability tolerance for quantile inversion
_QUANTILE_TOL = 1e-8


def normal_pdf(offset, precision):
    """Normal density at ``offset`` from the mean, for precision 1/variance;
    0 where the precision is 0 (an infinite variance)."""
    return np.exp(-0.5 * np.square(offset) * precision) * np.sqrt(precision / (2.0 * math.pi))


@dataclass(frozen=True)
class NormalMixture:
    """Finite normal mixture: component k has weight ``weights[k]``, mean
    ``center + offsets[k]`` (``offsets`` may be one number for all) and
    precision ``precisions[k]``.  Every evaluation is one pass over the
    components, ``_BLOCK`` rows at a time."""

    center: float
    weights: np.ndarray
    offsets: np.ndarray | float
    precisions: np.ndarray

    def _reduce(self, x: np.ndarray, lower=None) -> np.ndarray:
        """Density at offsets ``x`` from the center or, given ``lower``, the
        lower (where True) or upper tail and the density."""
        def block(i):
            z = x[i:i + _BLOCK, None] - self.offsets
            if lower is None:
                return normal_pdf(z, self.precisions) @ self.weights
            z *= np.where(lower[i:i + _BLOCK, None], 1.0, -1.0)
            return np.stack([special.ndtr(z * np.sqrt(self.precisions)) @ self.weights,
                             normal_pdf(z, self.precisions) @ self.weights], axis=1)

        return np.concatenate([block(i) for i in range(0, max(x.size, 1), _BLOCK)])

    def density(self, theta):
        theta = np.asarray(theta, dtype=float)
        return self._reduce(theta.ravel() - self.center).reshape(theta.shape)[()]

    def cdf(self, theta):
        """CDF, through the tail on the far side of the mean for accuracy."""
        theta = np.asarray(theta, dtype=float)
        lower = theta.ravel() <= self.mean()
        tail = self._reduce(theta.ravel() - self.center, lower)[:, 0]
        return np.where(lower, tail, 1.0 - tail).reshape(theta.shape)[()]

    def mean(self) -> float:
        return float(self.center + np.sum(self.weights * self.offsets))

    def quantiles(self, p) -> np.ndarray:
        """Inverse CDF, to ``_QUANTILE_TOL`` relative to each level's nearer
        tail t, by Newton steps in log tail from the normal approximation.
        No component mean lies outside the offsets' range, nor is any wider
        than the widest, so Phi^-1(1 - t) widest standard deviations beyond
        that range bracket the quantile; a step that leaves the bracket
        (narrowed as it goes) is replaced by its midpoint."""
        p = np.asarray(p, dtype=float).ravel()
        if np.any(~((p > 0.0) & (p < 1.0))):
            raise InvalidParameterError("quantile needs probabilities in (0, 1)")
        lower, t = p <= 0.5, np.minimum(p, 1.0 - p)
        spread = -special.ndtri(t) / math.sqrt(np.min(self.precisions))
        lo, hi = np.min(self.offsets) - spread, np.max(self.offsets) + spread
        mean = self.mean() - self.center
        var = self.weights @ (1.0 / self.precisions + np.square(self.offsets - mean))
        x = np.clip(mean + math.sqrt(var) * special.ndtri(p), lo, hi)
        todo = np.arange(p.size)
        for _ in range(200):
            xs, low, target = x[todo], lower[todo], t[todo]
            tail, dens = self._reduce(xs, low).T
            past = (tail > target) == low      # x lies beyond the quantile
            hi[todo], lo[todo] = np.where(past, xs, hi[todo]), np.where(past, lo[todo], xs)
            err = np.abs(tail / target - 1.0)
            if np.all(err <= _QUANTILE_TOL):
                return self.center + x
            todo, xs, low, target, tail, dens = (
                a[err > _QUANTILE_TOL] for a in (todo, xs, low, target, tail, dens))
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                step = xs + np.where(low, -1.0, 1.0) * np.log(tail / target) * tail / dens
            a, b = lo[todo], hi[todo]
            x[todo] = np.where((step > a) & (step < b), step, 0.5 * (a + b))
        raise QuadratureError("mixture quantile iteration stalled",
                              achieved=float(np.max(err)))


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

    # -- pointwise evaluations -------------------------------------------

    def _mixing_rule(self, reach: float) -> MixingRule:
        """The tau rule, built or extended to serve offsets up to ``reach``."""
        rule = self._rule
        if rule is None or rule.reach < reach:
            unit = self.base_se
            reach = unit * 2.0 ** math.ceil(math.log2(reach / unit))
            inv = self._inverse_variances
            rule = mixing_rule(self.tau_prior, unit, reach, (
                (lambda d, tau: normal_pdf(d, inv(tau)), 0.0),
                (lambda d, tau: special.ndtr(-np.abs(d) * np.sqrt(inv(tau))), 0.0)))
            object.__setattr__(self, "_rule", rule)
        return rule

    def _on_rule(self, theta) -> NormalMixture:
        """The mixture on the tau rule that serves every finite ``theta``."""
        reach = np.abs(np.asarray(theta, dtype=float) - self.location)
        rule = self._mixing_rule(float(np.max(reach[np.isfinite(reach)], initial=0.0))
                                 + self.base_se)
        return NormalMixture(self.location, rule.weights, 0.0,
                             self._inverse_variances(rule.nodes))

    def density(self, theta):
        """Mixture density, symmetric about the location; vectorized."""
        return self._on_rule(theta).density(theta)

    def cdf(self, theta):
        """Mixture CDF; evaluated through the nearer tail for accuracy."""
        return self._on_rule(theta).cdf(theta)

    def _density_and_curvature(self, theta) -> tuple[np.ndarray, np.ndarray]:
        """Density and second derivative of the log density, from one pass
        over the rule: the density and its first two theta derivatives are
        three contractions of the same exponential matrix."""
        theta = np.asarray(theta, dtype=float)
        mix = self._on_rule(theta)
        inv = mix.precisions
        scaled = mix.weights * np.sqrt(inv / (2.0 * math.pi))
        columns = np.stack([scaled, scaled * inv, scaled * np.square(inv)], axis=1)
        d = np.atleast_1d(theta).ravel() - self.location

        def block(i):
            e = -0.5 * np.square(d[i:i + _BLOCK, None]) * inv
            return np.exp(e, out=e) @ columns      # in place, to hold one matrix

        p, m1, m2 = np.concatenate([block(i) for i in range(0, max(d.size, 1), _BLOCK)]).T
        with np.errstate(divide="ignore", invalid="ignore"):     # p''/p - (p'/p)^2
            curv = (np.square(d) * m2 - m1) / p - np.square(-d * m1 / p)
        return p.reshape(theta.shape), curv.reshape(theta.shape)

    def log_density_curvature(self, theta):
        """Second derivative of the log density, by differentiation under
        the integral; the analytic local information behind the ESS."""
        return self._density_and_curvature(theta)[1][()]

    # -- quantiles --------------------------------------------------------

    def _tail_and_density(self, theta) -> tuple[np.ndarray, np.ndarray]:
        """Tail mass beyond |theta - location| and the density at theta, from
        one pass over the rule."""
        d = np.abs(np.asarray(theta, dtype=float) - self.location)
        return tuple(self._on_rule(theta)._reduce(d, np.zeros(d.size, dtype=bool)).T)

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
