"""Deterministic Gauss-Legendre quadrature for the mixing integrals.

Everything downstream (mixture densities, CDFs, shrinkage posteriors,
information integrals) reduces to integrals of smooth integrands against a
heterogeneity prior on [0, inf).  Two routes evaluate them.

Mixing rules
------------
:func:`mixing_rule` builds a fixed set of tau nodes whose weights are the
Gauss-Legendre weight times the prior density times the Jacobian, so that a
mixing integral of any kernel becomes ``kernel(nodes) @ weights``.  A
:class:`~mapprior.mixture.MapPrior` builds one lazily and reuses it for every
density, CDF, curvature, quantile and ESS evaluation; a shrinkage posterior
builds its own.  On either, :class:`~mapprior.mixture.NormalMixture` does
the evaluating.

Layout.  A first panel covers [0, t0], with t0 half the smaller of the
inner scale (the source SE, below which the normal kernel is flat in tau)
and the prior's 5% quantile (so the prior's own features near zero fall
outside it).  Beyond t0 the panels are laid in log tau, two octaves wide:
the mixing kernels change on the scale of tau itself, and heavy tails are
smooth in log tau.  A panel across which the prior's log density changes
by more than 16 is split further, which resolves light tails.  The panels
run out to where the prior mass beyond is negligible (below 1e-25, as
estimated by max(1 - F, tau p(tau)), the second standing in for the first
once the CDF rounds to 1), or to the support's upper end.  Laying the far
tail directly in tau octaves, rather than in u = tau / (tau + c), keeps a
Lomax tail with shape below about 1.2 in reach: its integrand behaves like
(1 - u)^(alpha - 1) at u = 1, beyond where dyadic u-panels can go.  The far
tail holding less than 1e-23 of the prior mass, and single nodes below
1e-26 of it, are pruned; the layout does not depend on the reach.

Check.  A rule is built for a reach: the largest offset |theta - y1| it
must serve.  It is checked once, when it is built, against the same layout
with every panel halved and nothing pruned, plus the prior mass beyond the
last panel placed at tau = inf (where every kernel takes its limit).  The
caller's check, the tail and the density of the mixture the rule serves,
is compared at probe offsets spanning [0, reach], each quantity with the
tolerances :func:`adaptive_quad` applies (1e-9 relative, and values below
1e-12 of its largest held absolutely).  A rule that fails raises
:class:`QuadratureError` with the achieved error.  A rule checked for a
reach serves every smaller one; an evaluation that reaches further makes
its owner build and check a rule for the larger reach.

Adaptive panel doubling
-----------------------
:func:`mix_against_prior` integrates one integrand by refining until two
successive estimates agree.  The half-line is mapped to the unit interval
with

    u = tau / (tau + c),    tau = c * u / (1 - u),

where the pivot c is the prior median.  A composite Gauss-Legendre rule
(3 panels of 67 nodes, a 201-node starting rule) is refined by doubling the
uniform panel count until two successive estimates agree to a relative
tolerance.  The uniform panels are augmented with dyadic panels toward both
endpoints, deep enough to straddle the caller-declared feature scales.
Priors with bounded support (uniform) are integrated directly on [0, s].
The independent posterior routes (``mac_oracle`` and
``reference_model_posterior``) use this route, so they share no rule with
the mixture they are compared against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import QuadratureError

#: nodes per Gauss-Legendre panel; 3 uniform panels = the 201-node start
PANEL_ORDER = 67

#: starting number of uniform panels for adaptive refinement
START_PANELS = 3

#: uniform-panel doublings tried before giving up
MAX_DOUBLINGS = 7

#: values below this fraction of the largest component are held to an
#: absolute rather than relative tolerance during refinement
RELATIVE_FLOOR = 1e-12

#: deepest dyadic endpoint refinement (2**-80 ~ 8e-25 of the interval)
_MAX_DEPTH = 80


@lru_cache(maxsize=32)
def _leggauss(order: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def panel_nodes(edges: np.ndarray, order: int = PANEL_ORDER) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre nodes and weights over consecutive panels.

    Parameters
    ----------
    edges : np.ndarray
        Strictly increasing panel boundaries, shape (m + 1,) for m panels.
    order : int
        Nodes per panel.

    Returns
    -------
    (nodes, weights)
        Flat arrays of length ``m * order``.
    """
    edges = np.asarray(edges, dtype=float)
    x, w = _leggauss(order)
    lo = edges[:-1]
    half = 0.5 * np.diff(edges)
    nodes = (lo + half)[:, None] + half[:, None] * x[None, :]
    weights = half[:, None] * w[None, :]
    return nodes.ravel(), weights.ravel()


def fixed_quad(f: Callable[[np.ndarray], np.ndarray],
               edges: np.ndarray, order: int = PANEL_ORDER) -> np.ndarray:
    """Integrate ``f`` over the panels given by ``edges`` (no refinement).

    ``f`` maps an array of abscissae to values whose *last* axis matches the
    abscissae; leading axes are integrated componentwise.
    """
    nodes, weights = panel_nodes(edges, order)
    return np.asarray(f(nodes)) @ weights


def _depth_for(fraction: float, minimum: int) -> int:
    """Dyadic depth needed to reach an endpoint sliver of relative width
    ``fraction``, with two octaves of margin."""
    if not (fraction > 0.0) or fraction >= 1.0:
        return minimum
    return int(min(_MAX_DEPTH, max(minimum, math.ceil(-math.log2(fraction)) + 2)))


def _dyadic_edges(a: float, b: float, panels: int,
                  lo_fraction: float, hi_fraction: float) -> np.ndarray:
    """Uniform panel edges on [a, b] plus dyadic refinement toward each end,
    deep enough to straddle features at the given relative distances."""
    width = b - a
    base = int(math.ceil(math.log2(max(panels, 2)))) + 1
    lo_depth = _depth_for(lo_fraction, base)
    hi_depth = _depth_for(hi_fraction, base)
    pieces = [np.linspace(a, b, panels + 1)]
    if lo_depth > base:
        pieces.append(a + width * 0.5 ** np.arange(base, lo_depth + 1))
    if hi_depth > base:
        pieces.append(b - width * 0.5 ** np.arange(base, hi_depth + 1))
    return np.unique(np.concatenate(pieces))


def _refinement_error(new: np.ndarray, old: np.ndarray, abs_floor: float) -> float:
    peak = float(np.max(np.abs(new), initial=0.0))
    if peak == 0.0:
        return 0.0
    scale = np.maximum(np.abs(new), max(RELATIVE_FLOOR * peak, abs_floor))
    return float(np.max(np.abs(new - old) / scale))


def adaptive_quad(f: Callable[[np.ndarray], np.ndarray],
                  a: float, b: float,
                  rel_tol: float = 1e-9,
                  abs_floor: float = 0.0,
                  lo_fraction: float = 0.0,
                  hi_fraction: float = 0.0,
                  start_panels: int = START_PANELS,
                  max_doublings: int = MAX_DOUBLINGS) -> np.ndarray:
    """Integrate ``f`` over [a, b], doubling uniform panels until convergence.

    ``f`` may be vector valued (last axis = abscissae); convergence requires
    every component to be reproduced to ``rel_tol`` relative.  Components
    smaller than 1e-12 of the largest (or smaller than ``abs_floor``, when
    given) are held to a matching absolute tolerance instead.
    ``lo_fraction`` / ``hi_fraction`` declare the relative width of the
    narrowest feature adjacent to each endpoint, controlling the dyadic
    panel refinement there.

    Raises
    ------
    QuadratureError
        If the tolerance is still unmet after ``max_doublings`` doublings;
        the achieved error is reported on the exception.
    """
    panels = start_panels
    previous = None
    err = np.inf
    for _ in range(max_doublings + 1):
        edges = _dyadic_edges(a, b, panels, lo_fraction, hi_fraction)
        estimate = fixed_quad(f, edges)
        if previous is not None:
            err = _refinement_error(estimate, previous, abs_floor)
            if err <= rel_tol:
                return estimate
        previous = estimate
        panels *= 2
    raise QuadratureError("integral did not converge under panel doubling",
                          achieved=err)


def mix_against_prior(f: Callable[[np.ndarray], np.ndarray],
                      prior,
                      rel_tol: float = 1e-9,
                      abs_floor: float = 0.0,
                      inner_scale: float | None = None,
                      outer_scale: float | None = None) -> np.ndarray:
    """Integrate ``f(tau) * prior.density(tau)`` over the prior's support.

    ``prior`` is duck-typed: it must provide ``density(tau_array)``,
    ``quantile(p)`` and ``support_upper`` (``inf`` for half-line families).
    ``f`` maps a tau array to values whose last axis matches tau.

    ``inner_scale`` and ``outer_scale`` are the smallest and largest tau
    values (in tau units) at which ``f`` still has structure; they steer the
    dyadic endpoint refinement.  Omit them for integrands whose features sit
    at the prior's own scale.
    """
    upper = prior.support_upper
    if np.isfinite(upper):
        upper = float(upper)
        lo_frac = inner_scale / upper if inner_scale else 0.0

        def g(tau: np.ndarray) -> np.ndarray:
            return np.asarray(f(tau)) * prior.density(tau)

        return adaptive_quad(g, 0.0, upper, rel_tol=rel_tol, abs_floor=abs_floor,
                             lo_fraction=lo_frac)

    pivot = float(prior.quantile(0.5))
    lo_frac = inner_scale / (inner_scale + pivot) if inner_scale else 0.0
    hi_frac = pivot / (pivot + outer_scale) if outer_scale else 0.0

    def g(u: np.ndarray) -> np.ndarray:
        tau = pivot * u / (1.0 - u)
        jacobian = pivot / (1.0 - u) ** 2
        return np.asarray(f(tau)) * (prior.density(tau) * jacobian)

    return adaptive_quad(g, 0.0, 1.0, rel_tol=rel_tol, abs_floor=abs_floor,
                         lo_fraction=lo_frac, hi_fraction=hi_frac)


# -- mixing rules ------------------------------------------------------------

#: nodes per mixing-rule panel
RULE_ORDER = 24

#: relative tolerance a mixing rule is checked to
RULE_TOL = 1e-9

#: log-tau width of a mixing-rule panel (two octaves)
_RULE_WIDTH = math.log(4.0)

#: largest change of the prior's log density across one panel, and the most
#: pieces a panel is split into to meet it
_RULE_LOG_STEP = 16.0
_RULE_MAX_SPLIT = 64

#: the layout ends where the prior mass beyond it is estimated below this
_RULE_END_MASS = 1e-25

#: pruning: far-tail mass and single-node weight, as fractions of the total
_RULE_TAIL_MASS = 1e-23
_RULE_NODE_WEIGHT = 1e-26

#: nonzero probe offsets a rule is checked at (plus offset 0)
_RULE_PROBES = 48

#: largest tau the layout may reach
_RULE_MAX_TAU = 1e300


@dataclass(frozen=True)
class MixingRule:
    """Tau nodes and weights for mixing integrals against one prior.

    ``weights`` already hold the prior density and the Jacobian, so the
    integral of ``kernel(tau)`` against the prior is
    ``kernel(nodes) @ weights``.  ``reach`` is the largest offset the rule
    was checked for; ``achieved`` is the error its check measured.
    """

    nodes: np.ndarray
    weights: np.ndarray
    reach: float
    achieved: float


def _rule_layout(prior, inner_scale: float) -> tuple[float, np.ndarray, float]:
    """First-panel end t0, log-tau panel edges beyond it, and the mass
    beyond the last edge."""
    t0 = 0.5 * min(inner_scale, float(prior.quantile(0.05)))
    upper = float(prior.support_upper)
    if math.isfinite(upper):
        top, beyond = upper, 0.0
    else:
        ladder = np.ldexp(t0, np.arange(1, math.floor(math.log2(_RULE_MAX_TAU / t0)) + 1))
        with np.errstate(over="ignore"):
            left = np.maximum(1.0 - np.asarray(prior.cdf(ladder)),
                              ladder * np.asarray(prior.density(ladder)))
        ends = np.flatnonzero(left <= _RULE_END_MASS)
        top = float(ladder[ends[0]] if ends.size else ladder[-1])
        beyond = float(1.0 - prior.cdf(top))
    lo, hi = math.log(t0), math.log(top)
    x = np.linspace(lo, hi, max(1, math.ceil((hi - lo) / _RULE_WIDTH)) + 1)

    with np.errstate(divide="ignore", over="ignore"):
        log_p = np.log(np.asarray(prior.density(np.exp(x))))
    with np.errstate(invalid="ignore"):
        change = np.abs(np.diff(log_p))
    pieces = np.where(np.isnan(change), 1.0, np.ceil(change / _RULE_LOG_STEP))
    pieces = np.clip(pieces, 1, _RULE_MAX_SPLIT).astype(int)
    panel = np.repeat(np.arange(pieces.size), pieces)
    step = np.arange(panel.size) - np.repeat(np.cumsum(pieces) - pieces, pieces)
    edges = np.append(x[panel] + np.diff(x)[panel] * step / pieces[panel], hi)
    return t0, edges, beyond


def _rule_nodes(prior, t0: float, edges: np.ndarray,
                halve: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and prior-weighted weights of the layout, every panel halved
    when ``halve`` is set."""
    first = np.array([0.0, 0.5 * t0, t0] if halve else [0.0, t0])
    if halve:
        edges = np.sort(np.concatenate([edges, 0.5 * (edges[:-1] + edges[1:])]))
    tau_lin, w_lin = panel_nodes(first, RULE_ORDER)
    x, w_log = panel_nodes(edges, RULE_ORDER)
    tau_log = np.exp(x)
    tau = np.concatenate([tau_lin, tau_log])
    weights = np.concatenate([w_lin, w_log * tau_log]) * np.asarray(prior.density(tau))
    return tau, weights


def mixing_rule(prior, inner_scale: float, reach: float,
                check: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]) -> MixingRule:
    """Build and check the tau mixing rule of ``prior`` for offsets up to
    ``reach``.

    ``prior`` is duck-typed like :func:`mix_against_prior`'s, plus ``cdf``.
    ``inner_scale`` is the smallest tau scale the rule resolves (the source
    standard error).  ``check(tau, weights, d)`` evaluates what the rule
    will serve, on tau nodes with these weights, at the probe offsets ``d``:
    a (d.size, q) array with one column per quantity, each held to
    ``RULE_TOL``.  It must accept ``tau = inf``.

    Raises
    ------
    QuadratureError
        If the rule disagrees with its refined copy beyond ``RULE_TOL``; the
        achieved error is reported on the exception.
    """
    t0, edges, beyond = _rule_layout(prior, inner_scale)
    tau, weights = _rule_nodes(prior, t0, edges)
    total = float(np.sum(weights))
    far_mass = np.cumsum(weights[::-1])[::-1]
    keep = (far_mass > _RULE_TAIL_MASS * total) & (weights > _RULE_NODE_WEIGHT * total)
    tau, weights = tau[keep], weights[keep]

    ref_tau, ref_w = _rule_nodes(prior, t0, edges, halve=True)
    ref_tau = np.append(ref_tau[ref_w > 0.0], math.inf)
    ref_w = np.append(ref_w[ref_w > 0.0], beyond)

    probes = np.geomspace(min(inner_scale / 16.0, reach), reach, _RULE_PROBES)
    d = np.concatenate(([0.0], probes))
    achieved = max(_refinement_error(new, old, 0.0) for new, old in
                   zip(check(tau, weights, d).T, check(ref_tau, ref_w, d).T))
    if not achieved <= RULE_TOL:
        raise QuadratureError(
            f"tau mixing rule ({tau.size} nodes, reach {reach:.3g}) disagrees "
            "with its refined copy", achieved=achieved)
    tau.setflags(write=False)
    weights.setflags(write=False)
    return MixingRule(nodes=tau, weights=weights, reach=float(reach), achieved=achieved)
