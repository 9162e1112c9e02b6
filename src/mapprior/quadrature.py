"""Quadrature for the mixing integrals: tau rules and an adaptive route.

Everything downstream (mixture densities, CDFs, shrinkage posteriors,
information integrals) reduces to integrals of smooth integrands against a
heterogeneity prior on [0, inf).  Two routes evaluate them.

Mixing rules
------------
:func:`mixing_rule` builds a fixed set of tau nodes whose weights are the
Gauss-Legendre weight times the prior density times the Jacobian, so that a
mixing integral of any kernel becomes ``kernel(nodes) @ weights``.  A
:class:`~mapprior.mixture.MapPrior` builds one lazily and reuses it for every
density, CDF, curvature, quantile and ESS evaluation, and for its shrinkage
posteriors: the posterior is the likelihood times the rule's MAP density,
so the prior's check vouches for it wherever that density at the target is
above ``RELATIVE_FLOOR`` of its peak.  Beyond, under a conflict, the
posterior builds and checks its own.  On either,
:class:`~mapprior.mixture.NormalMixture` does the evaluating.

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
must serve, at most ``MAX_REACH`` (1e150) and ``MAX_REACH_SCALES`` (1e153)
inner scales: the kernels still hold its square times their precisions.
It is checked once, when it is built, against the same layout with every
panel halved and nothing pruned, plus the prior mass beyond the last panel
placed at tau = inf (where every kernel takes its limit).  The caller's
check, the tail and the density of the mixture the rule serves, is
compared at probe offsets spanning [0, reach], each quantity to 1e-9
relative, with values below 1e-12 of its largest held absolutely.  A rule
that fails raises :class:`QuadratureError` with the achieved error.  A
rule checked for a reach serves every smaller one; an evaluation that
reaches further makes its owner build and check a rule for the larger
reach.

Adaptive quadrature
-------------------
:func:`adaptive_quad` is a global adaptive Gauss-Kronrod rule (G10/K21 with
QUADPACK's error estimate, as in scipy's ``quad_vec``) for integrands that
take an array of abscissae, as :func:`fixed_quad`'s do: it bisects the
interval with the largest error, evaluating both halves in one call, until
the error is below ``QUAD_TOL / 8`` of the largest component, within
``MAX_INTERVALS`` intervals.  :func:`mix_against_prior` integrates one
integrand against a prior with it, in

    u = tau / (tau + c),    tau = c * u / (1 - u),

where the pivot c is the prior median: over [0, 1) for the half-line, and
over [0, s / (s + c)] for a prior with bounded support [0, s] (uniform).
The caller-declared feature scales become breakpoints.  The independent
posterior routes (``mac_oracle`` and ``reference_model_posterior``) use
this route, so they share no node, layout or check with the mixture they
are compared against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import QuadratureError

#: most subintervals :func:`adaptive_quad` splits its interval into
MAX_INTERVALS = 200

#: relative error :func:`adaptive_quad` holds its integrals to, in the max norm
QUAD_TOL = 1e-9

#: values below this fraction of the largest component are held to an
#: absolute rather than relative tolerance by the rule check
RELATIVE_FLOOR = 1e-12


@lru_cache(maxsize=32)
def _leggauss(order: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def panel_nodes(edges: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
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
               edges: np.ndarray, order: int) -> np.ndarray:
    """Integrate ``f`` over the panels given by ``edges`` (no refinement).

    ``f`` maps an array of abscissae to values whose *last* axis matches the
    abscissae; leading axes are integrated componentwise.
    """
    nodes, weights = panel_nodes(edges, order)
    return np.asarray(f(nodes)) @ weights


def _refinement_error(new: np.ndarray, old: np.ndarray) -> float:
    peak = float(np.max(np.abs(new), initial=0.0))
    if peak == 0.0:
        return 0.0
    scale = np.maximum(np.abs(new), RELATIVE_FLOOR * peak)
    return float(np.max(np.abs(new - old) / scale))


#: QUADPACK's qk21 to double precision (as scipy's ``quad_vec`` has it, BSD-3):
#: the Kronrod abscissae and weights on [0, 1), and the Gauss weights of the
#: odd abscissae; mirrored below
_K21 = np.array([
    [0.9956571630258081, 0.9739065285171717, 0.9301574913557082, 0.8650633666889845,
     0.7808177265864169, 0.6794095682990244, 0.5627571346686047, 0.4333953941292472,
     0.2943928627014602, 0.14887433898163122],
    [0.011694638867371874, 0.032558162307964725, 0.054755896574351995, 0.07503967481091996,
     0.0931254545836976, 0.10938715880229764, 0.12349197626206584, 0.13470921731147334,
     0.14277593857706009, 0.14773910490133849]])
_G10 = [0.06667134430868814, 0.1494513491505806, 0.21908636251598204, 0.26926671930999635,
        0.29552422471475287]
_GK_NODES = np.concatenate([_K21[0], [0.0], -_K21[0, ::-1]])
#: columns: the K21 and the G10 weights of the 21 nodes
_GK_WEIGHTS = np.zeros((21, 2))
_GK_WEIGHTS[:, 0] = np.concatenate([_K21[1], [0.1494455540029169], _K21[1, ::-1]])
_GK_WEIGHTS[1::2, 1] = _G10 + _G10[::-1]


def _kronrod(f: Callable[[np.ndarray], np.ndarray], lo: np.ndarray,
             hi: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """K21 integrals of ``f`` over the intervals [lo, hi], interval first,
    from one call of ``f`` on all their nodes; their errors (QUADPACK's
    estimate from K21 - G10) and round-off bounds, in the max norm."""
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    fx = np.asarray(f((mid[:, None] + half[:, None] * _GK_NODES).ravel()), dtype=float)
    # (interval, node, component): a view when the abscissae axis is the
    # slowest in memory, as in the oracle integrands
    by_node = np.moveaxis(fx, -1, 0).reshape(lo.size, _GK_NODES.size, -1)
    sums = _GK_WEIGHTS.T @ by_node
    scratch = np.empty(by_node.shape[1:])
    norms = []      # of K21 - G10, of the K21 sums of |f - K21 / 2| and of |f|
    for values, (kronrod, gauss) in zip(by_node, sums):
        magnitude = _GK_WEIGHTS[:, 0] @ np.abs(values, out=scratch)
        np.abs(np.subtract(values, 0.5 * kronrod, out=scratch), out=scratch)
        norms.append([np.max(np.abs(kronrod - gauss)), np.max(_GK_WEIGHTS[:, 0] @ scratch),
                      np.max(magnitude)])
    err, spread, magnitude = half * np.transpose(norms)
    with np.errstate(divide="ignore", invalid="ignore"):
        err = np.where(spread > 0.0, spread * np.minimum(1.0, (200.0 * err / spread) ** 1.5), err)
    rounding = 50.0 * np.finfo(float).eps * magnitude
    integrals = half[:, None] * sums[:, 0]
    return integrals.reshape(lo.shape + fx.shape[:-1]), np.maximum(err, rounding), rounding


def adaptive_quad(f: Callable[[np.ndarray], np.ndarray], a: float, b: float,
                  points: Sequence[float] = ()) -> np.ndarray | float:
    """Integrate ``f`` over [a, b] by global adaptive Gauss-Kronrod (G10/K21).

    ``f`` maps an array of abscissae to values whose *last* axis matches
    them; leading axes are integrated componentwise, and the error is held
    to ``QUAD_TOL`` of the largest component (the max norm).  ``points`` are
    breakpoints where ``f`` changes scale; those outside (a, b) are
    ignored.  ``f`` is called once on the nodes of the starting intervals,
    then once per bisection, on the nodes of both halves.

    Raises
    ------
    QuadratureError
        If the error and round-off, within ``MAX_INTERVALS`` intervals,
        exceed ``QUAD_TOL`` of the largest component (or are NaN); the
        achieved error is reported on the exception.
    """
    edges = np.array([a, *sorted({float(p) for p in points if a < p < b}), b], dtype=float)
    values, errors, rounding = _kronrod(f, edges[:-1], edges[1:])
    total, rounding = values.sum(axis=0), float(np.sum(rounding))
    values, errors, intervals = list(values), list(errors), list(zip(edges[:-1], edges[1:]))
    while len(intervals) < MAX_INTERVALS:
        worst = int(np.argmax(errors))
        lo, hi = intervals[worst]
        mid = 0.5 * (lo + hi)
        halves, halves_err, halves_rounding = _kronrod(f, np.array([lo, mid]),
                                                       np.array([mid, hi]))
        total = total + (halves[0] + halves[1] - values[worst])
        rounding += float(np.sum(halves_rounding))
        values[worst:worst + 1], errors[worst:worst + 1] = halves, halves_err
        intervals[worst:worst + 1] = [(lo, mid), (mid, hi)]
        err = math.fsum(errors)
        if not QUAD_TOL * float(np.max(np.abs(total))) / 8.0 < err < math.inf or err < rounding:
            break       # converged, not finite, or down to round-off
    err = math.fsum(errors) + rounding
    peak = float(np.max(np.abs(total)))
    if not err <= QUAD_TOL * peak:
        raise QuadratureError(f"integral did not converge within {MAX_INTERVALS} intervals",
                              achieved=err / peak if peak else math.inf)
    return total


def mix_against_prior(f: Callable[[np.ndarray], np.ndarray], prior,
                      inner_scale: float | None = None,
                      outer_scale: float | None = None) -> np.ndarray | float:
    """Integrate ``f(tau) * prior.density(tau)`` over the prior's support
    with :func:`adaptive_quad`, in u = tau / (tau + c), c the prior median.

    ``prior`` is duck-typed: it must provide ``density(tau)``,
    ``quantile(p)`` and ``support_upper`` (``inf`` for half-line families).
    ``f`` maps an array of tau to a new float array whose last axis matches
    it, as :func:`adaptive_quad`'s integrand does; it is scaled in place by
    the prior density and the Jacobian, evaluated once per call.

    ``inner_scale`` and ``outer_scale`` are the smallest and largest tau
    values (in tau units) at which ``f`` still has structure; they become
    breakpoints.  Omit them for integrands whose features sit at the
    prior's own scale.
    """
    pivot = float(prior.quantile(0.5))

    def g(u: np.ndarray) -> np.ndarray:
        u = np.minimum(u, np.nextafter(1.0, 0.0))     # a node may round to u = 1
        tau = pivot * u / (1.0 - u)
        values = f(tau)
        # in place: a copy of 1-2 MB took ~950 page faults per integral
        values *= prior.density(tau) * pivot / np.square(1.0 - u)
        return values

    end = 1.0 / (1.0 + pivot / float(prior.support_upper))     # s / (s + c), or 1
    return adaptive_quad(g, 0.0, end, [s / (s + pivot) for s in (inner_scale, outer_scale) if s])


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

#: largest offset a rule is built for, absolute and in inner scales
MAX_REACH = 1e150
MAX_REACH_SCALES = 1e153


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
        octaves = math.floor(math.log2(_RULE_MAX_TAU) - math.log2(t0))     # no overflow at tiny t0
        ladder = np.ldexp(t0, np.arange(1, octaves + 1))
        with np.errstate(over="ignore"):
            left = np.maximum(1.0 - np.asarray(prior.cdf(ladder)),
                              ladder * np.asarray(prior.density(ladder)))
        ends = np.flatnonzero(left <= _RULE_END_MASS)
        top = float(ladder[ends[0]] if ends.size else ladder[-1])
        beyond = float(1.0 - prior.cdf(top))
    lo, hi = math.log(t0), math.log(top)
    x = np.linspace(lo, hi, max(1, math.ceil((hi - lo) / _RULE_WIDTH)) + 1)

    with np.errstate(divide="ignore", over="ignore"):     # exp(log(top)) may round above top
        log_p = np.log(np.asarray(prior.density(np.minimum(np.exp(x), top))))
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
        If ``reach`` exceeds ``MAX_REACH`` or ``MAX_REACH_SCALES`` inner
        scales, or the rule disagrees with its refined copy beyond
        ``RULE_TOL`` (or yields NaN); the achieved error is reported on the
        exception.
    """
    if not reach <= min(MAX_REACH, MAX_REACH_SCALES * inner_scale):
        raise QuadratureError(f"offset {reach:.3g} is out of reach: tau rules serve offsets "
                              f"to {MAX_REACH:g} and to {MAX_REACH_SCALES:g} inner scales")
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
    achieved = float(np.max([_refinement_error(new, old) for new, old in
                             zip(check(tau, weights, d).T, check(ref_tau, ref_w, d).T)]))
    if not achieved <= RULE_TOL:
        raise QuadratureError(
            f"tau mixing rule ({tau.size} nodes, reach {reach:.3g}) disagrees "
            "with its refined copy", achieved=achieved)
    tau.setflags(write=False)
    weights.setflags(write=False)
    return MixingRule(nodes=tau, weights=weights, reach=float(reach), achieved=achieved)
