"""Shared fixtures and independent numerical oracles.

The oracle helpers integrate with scipy's adaptive quadrature over
quantile-anchored panels, deliberately avoiding the package's own
Gauss-Legendre machinery so closed forms and quadrature stay independent
routes.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad, quad_vec
from scipy.special import ndtr

from mapprior import StudyEstimate, make_prior, parse_ratio_ci, scale_for_median

DATA_DIR = Path(__file__).parent / "data"

# Reference summary table: nine heterogeneity prior settings at a common
# source standard error of 0.451, scales median-matched where shown as
# "match" (the common median is the half-normal(0.5) prior's).
# Columns: family, shape, scale (or "match"), displayed scale, tau median,
# ess, sd (None = infinite), q95, q975, q995.
TABLE2_ROWS = [
    ("half-normal", None, 0.50, 0.50, 0.34, 26.6, 0.84, 1.32, 1.72, 2.72),
    ("half-normal", None, 0.25, 0.25, 0.17, 45.7, 0.57, 0.93, 1.13, 1.62),
    ("half-normal", None, 1.00, 1.00, 0.67, 12.8, 1.48, 2.35, 3.18, 5.19),
    ("half-student-t", 4.0, "match", 0.46, 0.34, 25.3, 1.02, 1.45, 1.98, 3.58),
    ("half-cauchy", None, "match", 0.34, 0.34, 23.4, None, 2.45, 4.85, 24.02),
    ("half-logistic", None, "match", 0.31, 0.34, 25.8, 0.91, 1.39, 1.85, 3.09),
    ("exponential", None, "match", 0.49, 0.34, 24.5, 1.07, 1.56, 2.19, 3.96),
    ("lomax", 6.0, "match", 2.75, 0.34, 24.0, 1.31, 1.70, 2.50, 5.05),
    ("lomax", 1.0, "match", 0.34, 0.34, 23.1, None, 3.29, 7.05, 37.17),
]

ALPORT_SOURCE_SE = 0.451


def common_median() -> float:
    """The shared prior median used for the comparison table rows."""
    return make_prior("half-normal", 0.5).median


def table2_priors():
    """The nine reference priors, median-matched where the table says so."""
    target = common_median()
    priors = []
    for family, shape, scale, *_ in TABLE2_ROWS:
        if scale == "match":
            scale = scale_for_median(family, target, shape)
        priors.append(make_prior(family, scale, shape))
    return priors


@pytest.fixture(scope="session")
def alport_source() -> StudyEstimate:
    y, se = parse_ratio_ci(0.53, 0.22, 1.29)
    return StudyEstimate(y=y, se=se, n=70, label="observational")


@pytest.fixture(scope="session")
def alport_target() -> StudyEstimate:
    y, se = parse_ratio_ci(0.51, 0.12, 2.20)
    return StudyEstimate(y=y, se=se, n=20, label="RCT")


@pytest.fixture(scope="session")
def topcat() -> StudyEstimate:
    y, se = parse_ratio_ci(0.89, 0.77, 1.04)
    return StudyEstimate(y=y, se=se, n=3445, label="TOPCAT")


@pytest.fixture(scope="session")
def hn05():
    return make_prior("half-normal", 0.5)


# -- independent quadrature oracles --------------------------------------


def _panel_edges(prior) -> list[float]:
    if math.isfinite(prior.support_upper):
        return [0.0, prior.support_upper]
    probs = [1e-12, 0.05, 0.25, 0.5, 0.75, 0.95, 0.999, 1 - 1e-6, 1 - 1e-12]
    edges = [0.0] + [float(prior.quantile(p)) for p in probs]
    return sorted(set(edges))


def _tail_integral(prior, power: int, start: float) -> float:
    """Integral of tau**power * density over [start, inf).

    Substituting tau = 1 / w**2 turns the polynomially decaying tails of the
    half-line families into integrands scipy's quadrature handles cleanly.
    """
    def g(w):
        tau = 1.0 / (w * w)
        return 2.0 * float(prior.density(tau)) * tau ** power / w ** 3

    val, _ = quad(g, 0.0, 1.0 / math.sqrt(start), limit=200)
    return val


def quad_mass(prior) -> float:
    """Integral of the density over the support, by scipy adaptive quad."""
    edges = _panel_edges(prior)
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        val, _ = quad(lambda x: float(prior.density(x)), a, b, limit=200)
        total += val
    if not math.isfinite(prior.support_upper):
        total += _tail_integral(prior, 0, edges[-1])
    return total


def quad_moment(prior, power: int) -> float:
    """E[tau**power] by scipy adaptive quad over quantile-anchored panels."""
    edges = _panel_edges(prior)
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        val, _ = quad(lambda x: x ** power * float(prior.density(x)), a, b, limit=200)
        total += val
    if not math.isfinite(prior.support_upper):
        total += _tail_integral(prior, power, edges[-1])
    return total


def partial_moment(prior, power: int, upper: float) -> float:
    """Truncated moment integral over [0, upper] (for divergence checks)."""
    edges = [e for e in _panel_edges(prior) if e < upper] + [upper]
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        val, _ = quad(lambda x: x ** power * float(prior.density(x)), a, b, limit=200)
        total += val
    return total


def mixture_cdf(prior, y1: float, s1: float, x: float) -> float:
    """CDF of the predictive mixture Normal(y1, s1^2 + 2 tau^2) at ``x``.

    Integrates the nearer tail with scipy's adaptive quadrature in log tau,
    over panels between the prior's quantiles from 1e-12 to 1 - 1e-12, with
    extra edges at |x - y1| / 8 and |x - y1|, where the kernel turns on.
    The tau mass left out is 2e-12, below what any caller compares.
    """
    d = abs(x - y1)

    def tail(tau):
        return float(ndtr(-d / math.sqrt(s1 * s1 + 2.0 * tau * tau)))

    probs = [1e-12, 0.05, 0.25, 0.5, 0.75, 0.95, 0.999, 1 - 1e-6, 1 - 1e-12]
    edges = [float(prior.quantile(p)) for p in probs]
    edges = sorted(set(edges + [t for t in (d / 8.0, d) if edges[0] < t < edges[-1]]))
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        val, _ = quad(lambda s: tail(math.exp(s)) * float(prior.density(math.exp(s)))
                      * math.exp(s), math.log(a), math.log(b),
                      epsabs=1e-15, epsrel=1e-12, limit=400)
        total += val
    return total if x <= y1 else 1.0 - total


def mixture_density_and_tail(prior, s1: float, d):
    """Density and lower tail P(theta < y1 - |d|) of the predictive mixture
    Normal(y1, s1^2 + 2 tau^2) at offsets ``d`` from y1, each to about
    1e-12 relative, down to values near 1e-300.

    scipy's ``quad_vec`` in log tau, from the prior's lowest positive
    quantile among 1e-16 and 1e-12 to the support's end or its upper 1e-30
    quantile, with breakpoints at the prior's quantiles, at s1 / 8 and s1,
    where the kernel stops being flat, and at the largest |d| / sqrt(2).
    Its max norm holds every value to 1e-12 of the largest, so it runs
    twice: the second run integrates the kernel divided by the first run's
    result, which holds each value relatively.
    """
    d = np.abs(np.asarray(d, dtype=float))

    def kernel(s):
        tau = math.exp(s)
        v = s1 * s1 + 2.0 * tau * tau
        values = np.concatenate([np.exp(-0.5 * d * d / v) / math.sqrt(2.0 * math.pi * v),
                                 ndtr(-d / math.sqrt(v))])
        return values * (float(prior.density(tau)) * tau)

    edges = [float(prior.quantile(p)) for p in (1e-16, 1e-12, 0.05, 0.25, 0.5, 0.75, 0.95, 0.999)]
    if math.isfinite(prior.support_upper):
        edges.append(float(prior.support_upper))
    else:
        edges += [float(prior.isf(10.0 ** -k)) for k in (6, 12, 18, 24, 30)]
    edges = np.log(sorted(e for e in set(edges) if e > 0.0))
    turns = [s1 / 8.0, s1, max(d.max(), s1) / math.sqrt(2.0)]
    points = np.concatenate([edges[1:-1], np.log(turns)])
    first = quad_vec(kernel, edges[0], edges[-1], epsrel=1e-12, norm="max", points=points)[0]
    scale = np.maximum(np.abs(first), 1e-300)
    values = scale * quad_vec(lambda s: kernel(s) / scale, edges[0], edges[-1], epsrel=1e-12,
                              norm="max", points=points)[0]
    return values[:d.size], values[d.size:]


def mixture_upper_tail(prior, s1: float, d: float, level: float) -> float:
    """P(theta > y1 + d) for d >= 0 under the predictive mixture, to about
    1e-11 relative for tails down to ``level``.  :func:`mixture_cdf` holds
    tails to 1e-15 absolutely and leaves out 2e-12 of the tau mass, so it
    cannot check tails this small.

    scipy's adaptive quadrature with a relative tolerance only: linearly in
    tau up to an eighth of the smaller of s1 and the prior's 5% quantile,
    then in log tau over panels at the prior's upper 10^-k quantiles and at
    d / 8 and d, where the kernel turns on, out to the support's end or to
    the upper 1e-12 * ``level`` quantile, past which the mass is left out
    (``prior.isf`` is checked against scipy.stats in ``test_priors.py``).
    """
    def kernel(tau):
        return float(ndtr(-d / math.sqrt(s1 * s1 + 2.0 * tau * tau))) * float(prior.density(tau))

    bounded = math.isfinite(prior.support_upper)
    lo = 0.125 * min(s1, float(prior.quantile(0.05)))
    hi = float(prior.support_upper if bounded else prior.isf(1e-12 * level))
    ladder = [] if bounded else [float(prior.isf(10.0 ** -k)) for k in range(1, 40)
                                 if 10.0 ** -k > 1e-12 * level]
    edges = np.unique(np.clip([lo, hi, prior.median, d / 8.0, d] + ladder, lo, hi))
    total = quad(kernel, 0.0, lo, epsabs=0.0, epsrel=1e-12, limit=400)[0]
    for a, b in zip(edges[:-1], edges[1:]):
        total += quad(lambda s: kernel(math.exp(s)) * math.exp(s), math.log(a), math.log(b),
                      epsabs=0.0, epsrel=1e-12, limit=400)[0]
    return total


def _posterior_weight_span(prior, source, target) -> tuple[float, float, float]:
    """(lo, mode, hi) in tau of the posterior's tau weight in log tau,
    tau p(tau) Normal(y2; y1, s1^2 + s2^2 + 2 tau^2): its mode, and where its
    log falls 80 below the mode's (e^-80 of the peak, past which the weight
    decays at least like tau^(-1) or tau).  Read off a log-tau scan over
    e^-200 to e^200 times the prior median, in steps of 0.02."""
    s = math.log(prior.median) + np.arange(-200.0, 200.0, 0.02)
    tau = np.exp(s)
    v = source.variance + target.variance + 2.0 * tau * tau
    with np.errstate(divide="ignore"):
        log_weight = (np.log(prior.density(tau)) + s - 0.5 * np.log(v)
                      - 0.5 * (target.y - source.y) ** 2 / v)
    top = int(np.argmax(log_weight))
    inside = np.flatnonzero(log_weight >= log_weight[top] - 80.0)
    return (float(np.exp(s[max(inside[0] - 1, 0)])), float(tau[top]),
            float(np.exp(s[min(inside[-1] + 1, s.size - 1)])))


def _posterior_integral(prior, source, target, x, kernel) -> float:
    """Integral over tau of prior density x normalized marginal weight x
    ``kernel(z)``, z = (x - m) / v the standardized offset of ``x`` from the
    conjugate normal posterior N(m, v^2) at that tau.

    scipy's adaptive quadrature in log tau, over panels between the prior's
    quantiles from 1e-15 to 1 - 1e-15, widened to where the tau weight is
    negligible (:func:`_posterior_weight_span`; under a conflict that weight
    lies in the prior's far tail), with extra edges at the weight's mode and
    where the weight and the conditional posterior turn (tau at s1, s2,
    |y1 - y2| and the offsets of ``x`` from both estimates, each over
    sqrt(2)).  The marginal weight Normal(y2; y1, s1^2 + s2^2 + 2 tau^2) is
    scaled to at most 1.
    """
    v1, v2 = source.variance, target.variance
    gap = target.y - source.y

    def integrand(s):
        tau = math.exp(s)
        a = v1 + 2.0 * tau * tau
        weight = math.exp(-0.5 * gap * gap / (a + v2)) * math.sqrt((v1 + v2) / (a + v2))
        mean = (source.y * v2 + target.y * a) / (a + v2)
        sd = math.sqrt(a * v2 / (a + v2))
        return float(prior.density(tau)) * tau * weight * kernel((x - mean) / sd, sd)

    probs = [1e-15, 1e-6, 0.05, 0.25, 0.5, 0.75, 0.95, 0.999, 1 - 1e-6, 1 - 1e-15]
    edges = [float(prior.quantile(p)) for p in probs]
    lo, mode, hi = _posterior_weight_span(prior, source, target)
    edges[0], edges[-1] = min(edges[0], lo), max(edges[-1], hi)
    if math.isfinite(prior.support_upper):
        edges[-1] = float(prior.support_upper)
    turns = [mode] + [f / math.sqrt(2.0) for f in (source.se, target.se, abs(gap),
                                                   abs(x - source.y), abs(x - target.y))]
    edges = sorted(set(edges + [t for t in turns if edges[0] < t < edges[-1]]))
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        val, _ = quad(integrand, math.log(a), math.log(b), epsabs=0.0, epsrel=1e-12,
                      limit=400)
        total += val
    return total


def posterior_cdf(prior, source, target, x: float) -> float:
    """CDF of the target effect's shrinkage posterior at ``x``: the lower
    tail over the total of both tails, each integrated over tau."""
    lower = _posterior_integral(prior, source, target, x, lambda z, sd: float(ndtr(z)))
    upper = _posterior_integral(prior, source, target, x, lambda z, sd: float(ndtr(-z)))
    return lower / (lower + upper)


def posterior_density(prior, source, target, x: float) -> float:
    """Density of the target effect's shrinkage posterior at ``x``."""
    mass = _posterior_integral(prior, source, target, x, lambda z, sd: 1.0)
    dens = _posterior_integral(
        prior, source, target, x,
        lambda z, sd: math.exp(-0.5 * z * z) / (sd * math.sqrt(2.0 * math.pi)))
    return dens / mass


def trapezoid_summary(post, level: float = 0.95):
    """(median, lower, upper, P(effect < 0), mean) read from a route's own
    grid and density by the trapezoidal rule, for checking the oracle
    routes on what they computed rather than on the shrinkage mixture."""
    grid, dens = np.asarray(post.grid), np.asarray(post.density)
    cdf = np.concatenate(([0.0], np.cumsum(0.5 * np.diff(grid) * (dens[1:] + dens[:-1]))))
    cdf /= cdf[-1]
    lower_p = (1.0 - level) / 2.0
    median, lower, upper = np.interp([0.5, lower_p, 1.0 - lower_p], cdf, grid)
    mean = np.trapezoid(grid * dens, grid) / np.trapezoid(dens, grid)
    return (float(median), float(lower), float(upper),
            float(np.interp(0.0, grid, cdf)), float(mean))


def normal_pdf(x, mean, sd):
    x = np.asarray(x, dtype=float)
    return np.exp(-0.5 * ((x - mean) / sd) ** 2) / (sd * math.sqrt(2.0 * math.pi))


# -- oracles for the borrowing-exponent density ---------------------------


def a0_mass(prior, s1) -> float:
    """Integral of the exponent density over (0, 1) by scipy quadrature,
    in variables that absorb the integrable endpoint singularities."""
    from mapprior import a0_density

    lo, _ = quad(lambda z: float(a0_density(prior, s1, z * z)) * 2.0 * z,
                 1e-7, math.sqrt(0.5), limit=200)
    hi, _ = quad(lambda w: float(a0_density(prior, s1, 1.0 - w * w)) * 2.0 * w,
                 1e-7, math.sqrt(0.5), limit=200)
    return lo + hi


def a0_numeric_cdf(prior, s1, n: int = 120001):
    """(grid, cdf) for the exponent distribution, built from a0_density."""
    from mapprior import a0_density

    eps = 1e-7
    z = np.linspace(eps, math.sqrt(0.5), n)
    f_lo = a0_density(prior, s1, z ** 2) * 2.0 * z
    w = np.linspace(math.sqrt(0.5), eps, n)
    f_hi = a0_density(prior, s1, 1.0 - w ** 2) * 2.0 * w
    cum_lo = np.concatenate([[0.0], np.cumsum(0.5 * np.diff(z) * (f_lo[1:] + f_lo[:-1]))])
    cum_hi = cum_lo[-1] + np.concatenate(
        [[0.0], np.cumsum(0.5 * (-np.diff(w)) * (f_hi[1:] + f_hi[:-1]))])
    grid = np.concatenate([z ** 2, (1.0 - w ** 2)[1:]])
    cdf = np.concatenate([cum_lo, cum_hi[1:]])
    return grid, cdf / cdf[-1]


def ks_distance(draws, grid, cdf) -> float:
    draws = np.sort(np.asarray(draws))
    model = np.interp(draws, grid, cdf)
    n = draws.size
    upper = np.max(np.abs(np.arange(1, n + 1) / n - model))
    lower = np.max(np.abs(np.arange(0, n) / n - model))
    return float(max(upper, lower))
