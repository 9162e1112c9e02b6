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
for the larger reach; smaller reaches reuse it.  Every normal mixture's
quantiles come from one solver: safeguarded Newton steps in log tail
against log offset beyond the far-side component mean, inside a bracket set
by the components' weights, each step reading the tail and the density from
one pass, to 1e-8 relative to the level's nearer tail.  Heavy-tailed mixing
priors are fully supported; only the variance becomes infinite for them,
every other evaluation stays finite.
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

#: quantile tolerance, relative to the level's nearer tail
_QUANTILE_TOL = 1e-8

#: smallest tail a MapPrior quantile is solved for: the tau rule prunes
#: far-tail mass up to 1e-23 of the total, more than 1e-6 of a smaller tail
_TAIL_FLOOR = 1e-17

#: largest offset a MapPrior quantile is solved at: the kernels square it
_MAX_REACH = 1e150


def normal_pdf(offset, precision):
    """Normal density at ``offset`` from the mean, for precision 1/variance;
    0 where the precision is 0 (an infinite variance)."""
    return np.exp(-0.5 * np.square(offset) * precision) * np.sqrt(precision / (2.0 * math.pi))


@dataclass(frozen=True)
class NormalMixture:
    """Finite normal mixture: component k has weight ``weights[k]``, mean
    ``center + offsets[k]`` (``offsets`` may be one number for all) and
    precision ``precisions[k]``.  The only evaluator of the normal kernel
    over components: every evaluation is one :meth:`_reduce` pass."""

    center: float
    weights: np.ndarray
    offsets: np.ndarray | float
    precisions: np.ndarray

    def _reduce(self, x: np.ndarray, lower=None, moments: bool = False) -> np.ndarray:
        """Density at offsets ``x`` from the center or, given ``lower``, the
        lower (where True) or upper tail and the density; ``moments`` adds
        the density weights w sqrt(prec / 2 pi) times prec and prec^2."""
        scaled = self.weights * np.sqrt(self.precisions / (2.0 * math.pi))
        columns = np.stack([scaled, scaled * self.precisions,
                            scaled * np.square(self.precisions)], axis=1) if moments else scaled

        def block(i):
            z = x[i:i + _BLOCK, None] - self.offsets
            e = -0.5 * np.square(z) * self.precisions
            out = np.exp(e, out=e) @ columns        # in place: one matrix per block
            if lower is None:
                return out
            z *= np.where(lower[i:i + _BLOCK, None], 1.0, -1.0)
            e = special.ndtr(np.multiply(z, np.sqrt(self.precisions), out=e), out=e)
            return np.column_stack([e @ self.weights, out])

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
        """Inverse CDF, to ``_QUANTILE_TOL`` relative to the nearer tail."""
        p = np.asarray(p, dtype=float).ravel()
        if np.any(~((p > 0.0) & (p < 1.0))):
            raise InvalidParameterError("quantile needs probabilities in (0, 1)")
        return self._solve_tails(np.minimum(p, 1.0 - p), p <= 0.5)

    def _solve_tails(self, t: np.ndarray, lower: np.ndarray) -> np.ndarray:
        """The points whose lower (where ``lower``) or upper tail is t in
        (0, 1/2], each to ``_QUANTILE_TOL`` relative to t.

        The lower tail at the largest component mean is at least 1/2, and
        so is the upper tail at the smallest, so each point is that mean
        -/+ an offset x >= 0.  With sigma(q) the narrowest standard
        deviation such that the components wider than it hold at most q of
        the weight, x <= hi = (mean range) + Phi^-1(1 - t/2) sigma(t/2).
        Newton steps in log tail against log x (exact for power tails)
        start from the mixture mean + Phi^-1(1 - t) sigma(t) and stay
        strictly inside [lo, hi], narrowed as they go; a step that leaves
        it is replaced by its midpoint (geometric once lo > 0).  Each pass
        reads the tail and the density at the point it would return, as
        rounded, and a converged level is frozen.
        """
        with np.errstate(divide="ignore"):
            sd = 1.0 / np.sqrt(self.precisions)     # inf where the precision is 0
        order = np.argsort(-sd)
        wider = np.cumsum(self.weights[order]) / np.sum(self.weights)
        widths = sd[order][np.searchsorted(wider[:-1], np.stack([t, 0.5 * t]), side="right")]
        top, bottom = np.max(self.offsets), np.min(self.offsets)
        anchor, sign = np.where(lower, top, bottom), np.where(lower, -1.0, 1.0)
        lo, hi = np.zeros_like(t), (top - bottom) - special.ndtri(0.5 * t) * widths[1]
        x = sign * (self.mean() - self.center - anchor) - special.ndtri(t) * widths[0]
        out = np.empty_like(t)
        todo = np.arange(t.size)
        for _ in range(200):
            xs, target = x[todo], t[todo]
            out[todo] = self.center + (anchor[todo] + sign[todo] * xs)
            tail, dens = self._reduce(out[todo] - self.center, lower[todo]).T
            short = tail <= target              # x lies at or beyond the point
            hi[todo], lo[todo] = np.where(short, xs, hi[todo]), np.where(short, lo[todo], xs)
            err = np.abs(tail / target - 1.0)
            unsolved = ~(err <= _QUANTILE_TOL)      # a NaN tail stays unsolved
            if not unsolved.any():
                return out
            todo, xs, target, tail, dens = (a[unsolved] for a in (todo, xs, target, tail, dens))
            a, b = lo[todo], hi[todo]
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                step = xs * np.exp(np.log(tail / target) * tail / (dens * xs))
            mid = np.where(a > 0.0, np.sqrt(a * b), 0.5 * (a + b))
            x[todo] = np.where((step > a) & (step < b), step, mid)
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

    # -- pointwise evaluations -------------------------------------------

    def _mixture(self, tau: np.ndarray, weights: np.ndarray) -> NormalMixture:
        """The normal mixture on tau nodes with these weights; a precision is
        0 where tau is so large (or infinite) that the variance overflows."""
        with np.errstate(over="ignore"):
            return NormalMixture(self.location, weights, 0.0, 1.0 / self._mixture_variances(tau))

    def _mixing_rule(self, reach: float) -> MixingRule:
        """The tau rule, built or extended to serve offsets up to ``reach``."""
        rule = self._rule
        if rule is None or rule.reach < reach:
            unit = self.base_se
            reach = unit * 2.0 ** math.ceil(math.log2(reach / unit))
            # the mixture is symmetric: the upper tail and the density at d >= 0
            rule = mixing_rule(self.tau_prior, unit, reach, lambda tau, weights, d: self._mixture(
                tau, weights)._reduce(d, np.zeros(d.size, dtype=bool)))
            object.__setattr__(self, "_rule", rule)
        return rule

    def _on_rule(self, theta) -> NormalMixture:
        """The mixture on the tau rule that serves every finite ``theta``."""
        reach = np.abs(np.asarray(theta, dtype=float) - self.location)
        rule = self._mixing_rule(float(np.max(reach[np.isfinite(reach)], initial=0.0))
                                 + self.base_se)
        return self._mixture(rule.nodes, rule.weights)

    def density(self, theta):
        """Mixture density, symmetric about the location; vectorized."""
        return self._on_rule(theta).density(theta)

    def cdf(self, theta):
        """Mixture CDF; evaluated through the nearer tail for accuracy."""
        return self._on_rule(theta).cdf(theta)

    def _density_and_curvature(self, theta) -> tuple[np.ndarray, np.ndarray]:
        """Density and second derivative of the log density, from the
        moments pass of :meth:`NormalMixture._reduce` over the rule."""
        theta = np.asarray(theta, dtype=float)
        d = theta.ravel() - self.location
        p, m1, m2 = self._on_rule(theta)._reduce(d, moments=True).T
        with np.errstate(divide="ignore", invalid="ignore"):     # p''/p - (p'/p)^2
            curv = (np.square(d) * m2 - m1) / p - np.square(-d * m1 / p)
        return p.reshape(theta.shape), curv.reshape(theta.shape)

    def log_density_curvature(self, theta):
        """Second derivative of the log density, by differentiation under
        the integral; the analytic local information behind the ESS."""
        return self._density_and_curvature(theta)[1][()]

    # -- quantiles --------------------------------------------------------

    def quantiles(self, p) -> np.ndarray:
        """Vectorized inverse CDF, to 1e-8 relative to each level's nearer
        tail t = min(p, 1 - p).

        The mixture is symmetric about its location, so each level is solved
        as an upper tail by :meth:`NormalMixture._solve_tails`, and a level
        and its mirror share one solve.  The rule is built once, for the
        reach Phi^-1(1 - t/2) sqrt(s1^2 + 2 tau_h^2) of the smallest t,
        with tau_h the tau prior's upper t/2 quantile, beyond which the tail
        is below t.  A t below ``_TAIL_FLOOR``, or a reach beyond
        ``_MAX_REACH``, raises :class:`QuadratureError`.
        """
        p = np.asarray(p, dtype=float)
        if np.any(~((p > 0.0) & (p < 1.0))):
            raise InvalidParameterError("quantile needs probabilities in (0, 1)")
        flat = p.ravel()
        if flat.size == 0:
            return np.empty(p.shape)
        # a level and its mirror rarely give equal targets (1 - 0.95 is not
        # 0.05 in floats); targets within the spacing of floats near 1 share
        # one solve
        ranked, level = np.unique(np.minimum(flat, 1.0 - flat), return_inverse=True)
        first = np.diff(ranked, prepend=-1.0) > np.finfo(float).eps
        half = 0.5 * max(ranked[0], _TAIL_FLOOR)
        reach = -special.ndtri(half) * math.hypot(self.base_se,
                                                  math.sqrt(2.0) * self.tau_prior.isf(half))
        if not (ranked[0] >= _TAIL_FLOOR and reach <= _MAX_REACH):
            raise QuadratureError(f"quantile level {ranked[0]:.3g} is out of reach: the tau rule "
                                  f"resolves tails to {_TAIL_FLOOR:g} at offsets to {_MAX_REACH:g}")
        upper = self._on_rule(self.location + reach)._solve_tails(
            ranked[first], np.zeros(int(first.sum()), dtype=bool))[np.cumsum(first)[level] - 1]
        q = np.where(flat > 0.5, upper, self.location - (upper - self.location))
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
