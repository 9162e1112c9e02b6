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
from scipy.integrate import quad
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
