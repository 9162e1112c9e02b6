"""Reference computations made apart from mapprior.

Every quantity the benchmark checks is recomputed here with
``scipy.integrate.quad`` (adaptive Gauss-Kronrod, QUADPACK) over the
heterogeneity tau.  Nothing here calls mapprior: the tau priors are written
out again from their definitions, and the mixing integrals use the
inverse-CDF substitution tau = Q(v), v the upper-tail probability, which
turns every family (heavy tails included) into an integral over (0, 1) of a
bounded integrand.  mapprior instead uses the substitution
u = tau / (tau + median) with composite Gauss-Legendre panels, so the two
routes share no numerical machinery.

A tau prior is given as a ``(family, scale, shape)`` tuple, the same form
the workloads generate their inputs in.
"""

from __future__ import annotations

import math

from scipy import special, stats
from scipy.integrate import quad

SQRT2 = math.sqrt(2.0)
SQRT2PI = math.sqrt(2.0 * math.pi)

#: quad settings for probabilities and densities (values of order 1e-3..1)
_EPSABS = 1e-14
_EPSREL = 1e-11
_LIMIT = 400


def _upper_quantile_standard(family: str, shape: float | None):
    """Scale-1 tau at upper-tail probability v, accurate as v -> 0."""
    if family == "half-normal":
        return lambda v: -special.ndtri(0.5 * v)
    if family == "half-student-t":
        return lambda v: -special.stdtrit(shape, 0.5 * v)
    if family == "half-cauchy":
        return lambda v: 1.0 / math.tan(0.5 * math.pi * v)
    if family == "half-logistic":
        return lambda v: math.log((2.0 - v) / v)
    if family == "exponential":
        return lambda v: -math.log(v)
    if family == "lomax":
        return lambda v: v ** (-1.0 / shape) - 1.0
    if family == "uniform":
        return lambda v: 1.0 - v
    raise ValueError(f"unknown family {family!r}")


def upper_quantile(spec):
    """tau as a function of its upper-tail probability v in (0, 1)."""
    family, scale, shape = spec
    q = _upper_quantile_standard(family, shape)
    return lambda v: scale * float(q(v))


def scipy_tau(spec):
    """The tau prior as a frozen ``scipy.stats`` distribution (vectorized)."""
    family, scale, shape = spec
    if family == "half-normal":
        return stats.halfnorm(scale=scale)
    if family == "half-student-t":
        return _HalfT(shape, scale)
    if family == "half-cauchy":
        return stats.halfcauchy(scale=scale)
    if family == "half-logistic":
        return stats.halflogistic(scale=scale)
    if family == "exponential":
        return stats.expon(scale=scale)
    if family == "lomax":
        return stats.lomax(shape, scale=scale)
    if family == "uniform":
        return stats.uniform(0.0, scale)
    raise ValueError(f"unknown family {family!r}")


class _HalfT:
    """|T| for T ~ scale * Student-t(nu), through ``scipy.stats.t``."""

    def __init__(self, nu: float, scale: float):
        self._t = stats.t(nu, scale=scale)

    def pdf(self, x):
        return 2.0 * self._t.pdf(x) * (x >= 0)

    def ppf(self, p):
        return self._t.ppf(0.5 * (1.0 + p))


def _integrate(g) -> float:
    value, _ = quad(g, 0.0, 1.0, epsabs=_EPSABS, epsrel=_EPSREL, limit=_LIMIT)
    return value


def _normal_sf(z: float) -> float:
    return 0.5 * math.erfc(z / SQRT2)


# -- the predictive mixture theta ~ Normal(y1, s1^2 + 2 tau^2) -----------


def mixture_sf(spec, s1: float, d: float) -> float:
    """P(theta - y1 > d) for d >= 0: the upper tail at offset d."""
    q = upper_quantile(spec)
    base = s1 * s1
    return _integrate(lambda v: _normal_sf(d / math.sqrt(base + 2.0 * q(v) ** 2)))


def mixture_cdf(spec, y1: float, s1: float, x: float) -> float:
    """Mixture CDF at x, evaluated through the nearer tail."""
    d = x - y1
    tail = mixture_sf(spec, s1, abs(d))
    return tail if d < 0.0 else 1.0 - tail


def mixture_density(spec, y1: float, s1: float, x: float) -> float:
    q = upper_quantile(spec)
    base = s1 * s1
    dsq = (x - y1) ** 2

    def g(v):
        var = base + 2.0 * q(v) ** 2
        return math.exp(-0.5 * dsq / var) / (SQRT2PI * math.sqrt(var))

    return _integrate(g)


def tau_second_moment(spec) -> float:
    """E[tau^2] as the integral of Q(v)^2 over (0, 1)."""
    q = upper_quantile(spec)
    value, _ = quad(lambda v: q(v) ** 2, 0.0, 1.0, epsabs=0.0, epsrel=1e-10,
                    limit=_LIMIT)
    return value


def tail_index(spec) -> float:
    """Power-law index k of P(tau > x) ~ x^-k, read off the far quantiles.

    E[tau^2] is finite exactly when k > 2.  Exponential-type tails (and the
    bounded uniform) give a very large k.
    """
    q = upper_quantile(spec)
    near, far = q(1e-12), q(1e-14)
    ratio = far / near
    if ratio <= 1.0:
        return math.inf
    return math.log(100.0) / math.log(ratio)


def mixture_sd(spec, s1: float) -> float | None:
    """sqrt(s1^2 + 2 E[tau^2]), or None when E[tau^2] diverges."""
    if tail_index(spec) <= 2.0:
        return None
    return math.sqrt(s1 * s1 + 2.0 * tau_second_moment(spec))


# -- the two-study joint model, conditioned on tau -----------------------


class JointPosterior:
    """Posterior of the target effect theta2 given (y1, s1), (y2, s2).

    Model: theta_i ~ Normal(mu, tau^2), y_i ~ Normal(theta_i, s_i^2), flat
    prior on mu.  Given tau, mu | y ~ Normal(m_mu, V_mu) with precision
    weights 1/(s_i^2 + tau^2), and theta2 | mu, y2 shrinks y2 towards mu by
    B = tau^2 / (tau^2 + s2^2).  tau is weighted by its prior times the
    marginal likelihood Normal(y2 - y1; 0, s1^2 + s2^2 + 2 tau^2).
    """

    def __init__(self, spec, y1: float, s1: float, y2: float, s2: float):
        self._q = upper_quantile(spec)
        self._y1, self._y2 = y1, y2
        self._v1, self._v2 = s1 * s1, s2 * s2
        self._norm = _integrate(lambda v: self._parts(v)[0])

    def _parts(self, v: float):
        t2 = self._q(v) ** 2
        v1, v2, y1, y2 = self._v1, self._v2, self._y1, self._y2
        marg = v1 + v2 + 2.0 * t2
        weight = math.exp(-0.5 * (y2 - y1) ** 2 / marg) / math.sqrt(marg)
        w1, w2 = 1.0 / (v1 + t2), 1.0 / (v2 + t2)
        m_mu = (w1 * y1 + w2 * y2) / (w1 + w2)
        var_mu = 1.0 / (w1 + w2)
        b = t2 / (t2 + v2)
        mean = b * y2 + (1.0 - b) * m_mu
        var = b * v2 + (1.0 - b) ** 2 * var_mu
        return weight, mean, var

    def cdf(self, x: float) -> float:
        def g(v):
            weight, mean, var = self._parts(v)
            return weight * _normal_sf((mean - x) / math.sqrt(var))

        return _integrate(g) / self._norm

    def density(self, x: float) -> float:
        def g(v):
            weight, mean, var = self._parts(v)
            return weight * math.exp(-0.5 * (x - mean) ** 2 / var) / (SQRT2PI * math.sqrt(var))

        return _integrate(g) / self._norm


# -- conversions --------------------------------------------------------


def log_ratio_ci(estimate: float, lower: float, upper: float,
                 level: float = 0.95) -> tuple[float, float]:
    """Log-scale estimate and standard error of a ratio-scale interval."""
    z = float(stats.norm.ppf(0.5 * (1.0 + level)))
    return math.log(estimate), (math.log(upper) - math.log(lower)) / (2.0 * z)


def a0_density(spec, s1: float, a0: float) -> float:
    """Density of the power-prior exponent a0 = s1^2 / (s1^2 + 2 tau^2).

    Change of variables: tau(a0) = s1 sqrt((1 - a0) / (2 a0)) is decreasing,
    so p(a0) = p_tau(tau(a0)) |dtau/da0| with
    |dtau/da0| = s1 / (2 sqrt(2) a0^(3/2) sqrt(1 - a0)).
    """
    tau = s1 * math.sqrt((1.0 - a0) / (2.0 * a0))
    jac = s1 / (2.0 * SQRT2 * a0 ** 1.5 * math.sqrt(1.0 - a0))
    return float(scipy_tau(spec).pdf(tau)) * jac
