"""Quadrature engine: exactness, refinement, failure reporting."""

import math
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad_vec

import mapprior
from conftest import posterior_density
from mapprior import (
    MapPrior,
    QuadratureError,
    ess_for_map_prior,
    mac_oracle,
    make_prior,
    parse_prior_spec,
    parse_ratio_ci,
    quadrature,
    reference_model_posterior,
)
from mapprior.quadrature import (
    _RULE_WIDTH,
    MAX_INTERVALS,
    MAX_REACH,
    QUAD_TOL,
    RULE_TOL,
    _collapse_far_tail,
    _rule_layout,
    adaptive_quad,
    fixed_quad,
    mix_against_prior,
    mixing_rule,
    panel_nodes,
)


class TestPanels:
    def test_weights_sum_to_length(self):
        nodes, weights = panel_nodes(np.array([0.0, 0.25, 1.0]), order=12)
        assert weights.sum() == pytest.approx(1.0, rel=1e-14)
        assert nodes.size == 24

    def test_polynomial_exactness(self):
        # order-8 Gauss-Legendre integrates degree-15 polynomials exactly
        exact = 2.0 ** 16 / 16.0
        val = fixed_quad(lambda x: x ** 15, np.array([0.0, 0.7, 2.0]), order=8)
        assert float(val) == pytest.approx(exact, rel=1e-13)


class TestAdaptive:
    def test_decaying_exponential(self):
        val = adaptive_quad(lambda x: np.exp(-x), 0.0, 60.0)
        assert float(val) == pytest.approx(1.0, rel=1e-9)

    def test_vector_valued(self):
        val = adaptive_quad(lambda x: np.stack([np.ones_like(x), x]), 0.0, 2.0)
        np.testing.assert_allclose(val, [2.0, 2.0], rtol=1e-12)

    def test_reports_achieved_error_on_failure(self):
        # oscillates without bound at 0: no count of intervals resolves it
        rough = lambda x: np.sin(1.0 / (x + 1e-14))
        with pytest.raises(QuadratureError) as exc:
            adaptive_quad(rough, 0.0, 1.0)
        assert exc.value.achieved > 1e-9
        assert "achieved relative error" in str(exc.value)

    def test_endpoint_refinement_resolves_slivers(self):
        # a bump of width 1e-7 next to the right endpoint, bracketed by
        # breakpoints: no node of the whole interval would see it
        center, width = 1.0 - 1e-6, 1e-7
        bump = lambda x: np.exp(-0.5 * ((x - center) / width) ** 2)
        val = adaptive_quad(bump, 0.0, 1.0, points=[center - 8 * width, center + 8 * width])
        assert float(val) == pytest.approx(width * math.sqrt(2 * math.pi), rel=1e-8)


    def test_integrand_is_called_once_per_bisection(self):
        # once on the nodes of the three starting intervals, then once on the
        # 42 nodes of both halves of each interval it bisects, never per node
        sizes = []

        def peaked(x):
            sizes.append(x.size)
            return np.stack([np.exp(-x), 1.0 / (1.0 + 1e4 * np.square(x - 2.0))])

        adaptive_quad(peaked, 0.0, 10.0, points=[1.0, 3.0])
        assert sizes[0] == 3 * 21
        assert len(sizes) > 1 and set(sizes[1:]) == {42}
        assert 3 + len(sizes) - 1 <= MAX_INTERVALS


#: the tau priors the oracle integrals are compared with quad_vec under
ORACLE_PRIORS = [("half-normal", 0.5, None), ("half-cauchy", 0.3, None),
                 ("lomax", 0.337, 1.0), ("uniform", 0.7, None)]


#: half the Alport source SE: the inner breakpoint of both oracle routes
_HALF_SOURCE_SE = 0.5 * parse_ratio_ci(0.53, 0.22, 1.29)[1]

#: uniform prior scales: the routes' breakpoints fall beyond, at (for the
#: bias prior, of scale sqrt(2) s, then for tau) and inside the support [0, s]
UNIFORM_SCALES = [1e-8, 1e-3, _HALF_SOURCE_SE / math.sqrt(2.0), _HALF_SOURCE_SE, 0.7, 3.0,
                  2e3]


class TestOracleIntegrals:
    @pytest.mark.parametrize("route", [mac_oracle, reference_model_posterior])
    @pytest.mark.parametrize("family,scale,shape", ORACLE_PRIORS)
    def test_match_quad_vec(self, monkeypatch, alport_source, alport_target, route,
                            family, scale, shape):
        # scipy's quad_vec runs the same G10/K21 rule, one abscissa per call
        pairs = []

        def both(f, a, b, points=()):
            ours = adaptive_quad(f, a, b, points)
            theirs = quad_vec(lambda x: f(np.array([x]))[..., 0], a, b, epsrel=QUAD_TOL,
                              norm="max", limit=MAX_INTERVALS, points=points)[0]
            pairs.append((ours, theirs))
            return ours

        monkeypatch.setattr(quadrature, "adaptive_quad", both)
        route(alport_source, alport_target, make_prior(family, scale, shape))
        [(ours, theirs)] = pairs
        assert ours.shape == theirs.shape == (4001,)
        assert np.max(np.abs(ours - theirs)) <= 1e-10 * np.max(np.abs(theirs))

    @pytest.mark.parametrize("route", [mac_oracle, reference_model_posterior])
    @pytest.mark.parametrize("scale", UNIFORM_SCALES)
    def test_bounded_prior_matches_quad_oracle(self, alport_source, alport_target, route,
                                               scale):
        prior = make_prior("uniform", scale)
        post = route(alport_source, alport_target, prior)
        for index in (500, 2000, 3500):
            assert post.density[index] == pytest.approx(
                posterior_density(prior, alport_source, alport_target, post.grid[index]),
                rel=1e-8)

    @pytest.mark.parametrize("route", [mac_oracle, reference_model_posterior])
    @pytest.mark.parametrize("family", ["lomax", "half-student-t"])
    @pytest.mark.parametrize("shape", [0.3, 0.64, 0.9, 1.5])
    def test_heavy_tails_match_quad_oracle(self, alport_source, alport_target, route,
                                           family, shape):
        # tail index below 2: the routes integrate in u with tau = c (u / (1 - u))^2
        prior = make_prior(family, 0.5, shape)
        post = route(alport_source, alport_target, prior)
        for index in (500, 2000, 3500):
            assert post.density[index] == pytest.approx(
                posterior_density(prior, alport_source, alport_target, post.grid[index]),
                rel=1e-8)

    def test_heavy_tail_takes_few_kronrod_calls(self, monkeypatch, alport_source,
                                                alport_target):
        # tail index 0.71, so k = 2; with k = 1 the two routes bisect toward
        # u = 1 and take 12 and 13 calls
        calls = []
        kronrod = quadrature._kronrod

        def counting(*args):
            calls.append(1)
            return kronrod(*args)

        monkeypatch.setattr(quadrature, "_kronrod", counting)
        prior = make_prior("lomax", 0.89, 0.71)
        for route in (mac_oracle, reference_model_posterior):
            route(alport_source, alport_target, prior)
        assert 2 <= len(calls) <= 10

    def test_routes_leave_scipy_integrate_unloaded(self):
        code = textwrap.dedent("""
            import sys
            import mapprior
            source = mapprior.StudyEstimate(*mapprior.parse_ratio_ci(0.53, 0.22, 1.29))
            target = mapprior.StudyEstimate(*mapprior.parse_ratio_ci(0.51, 0.12, 2.20))
            prior = mapprior.make_prior("half-normal", 0.5)
            mapprior.mac_oracle(source, target, prior)
            mapprior.reference_model_posterior(source, target, prior)
            print(sorted(m for m in sys.modules if m.startswith("scipy.integrate")))
            """)
        package_root = str(Path(mapprior.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [package_root, *filter(None, [os.environ.get("PYTHONPATH")])])}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120, check=False)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"


class TestMixAgainstPrior:
    @pytest.mark.parametrize("family,scale,shape", [
        ("half-normal", 0.5, None),
        ("half-cauchy", 0.34, None),
        ("lomax", 0.34, 1.0),
        ("uniform", 0.7, None),
    ])
    def test_unit_function_integrates_to_one(self, family, scale, shape):
        prior = make_prior(family, scale, shape)
        val = mix_against_prior(lambda tau: np.ones_like(tau), prior)
        assert float(val) == pytest.approx(1.0, rel=1e-9)

    def test_known_expectation(self):
        prior = make_prior("exponential", 0.49)
        val = mix_against_prior(lambda tau: tau, prior)
        assert float(val) == pytest.approx(0.49, rel=1e-9)

    @pytest.mark.parametrize("shape", [0.05, 0.3])
    def test_tail_nodes_near_one_raise_no_warning(self, shape):
        # the u-mapped integrand of so heavy a tail is refined up to u = 1,
        # where a node rounds to 1: at shape 0.05 a typed refusal, not a
        # numpy warning; at 0.3 the tail-matched map (k = 2) converges
        prior = make_prior("lomax", 1.0, shape)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if shape < 0.1:
                with pytest.raises(QuadratureError):
                    mix_against_prior(lambda tau: np.ones_like(tau), prior)
            else:
                val = mix_against_prior(lambda tau: np.ones_like(tau), prior)
                assert float(val) == pytest.approx(1.0, rel=1e-9)

    @pytest.mark.parametrize("family,shape,lost", [
        ("lomax", 0.2, 2.1e-7),
        ("lomax", 0.25, 5.4e-9),
        ("half-student-t", 0.2, 2.1e-7),
    ])
    def test_mass_beyond_the_clamped_node_is_refused(self, family, shape, lost):
        # nodes are clamped at u = nextafter(1, 0), and the prior mass beyond
        # that node's tau, dropped from the integral, exceeds QUAD_TOL here
        with pytest.raises(QuadratureError, match="beyond tau") as exc:
            mix_against_prior(lambda tau: np.ones_like(tau), make_prior(family, 1.0, shape))
        assert exc.value.achieved == pytest.approx(lost, rel=0.05)

    def test_mass_beyond_the_clamped_node_within_tolerance_is_served(self):
        prior = make_prior("lomax", 1.0, 0.3)
        val = float(mix_against_prior(lambda tau: np.ones_like(tau), prior))
        assert 0.0 < 1.0 - val < QUAD_TOL

    @pytest.mark.parametrize("family,scale", [("half-normal", 0.5), ("uniform", 0.7)])
    def test_integrand_returning_its_argument(self, family, scale):
        # the integrand may return tau itself, a float
        prior = make_prior(family, scale)
        val = mix_against_prior(lambda tau: tau, prior)
        assert float(val) == pytest.approx(prior.mean(), rel=1e-9)


def _mass(tau, weights, d):
    # one quantity, the same at every probe offset: the mass the rule carries
    return np.full((d.size, 1), np.sum(weights))


class TestMixingRule:
    @pytest.mark.parametrize("family,scale,shape", [
        ("half-normal", 0.5, None),
        ("half-cauchy", 0.34, None),
        ("lomax", 0.34, 1.0),
        ("lomax", 0.3, 0.2),
        ("uniform", 0.7, None),
    ])
    def test_weights_carry_the_prior_mass(self, family, scale, shape):
        rule = mixing_rule(make_prior(family, scale, shape), 0.45, 10.0, _mass)
        assert float(np.sum(rule.weights)) == pytest.approx(1.0, rel=1e-12)
        assert np.all(np.diff(rule.nodes) > 0.0) and rule.reach == 10.0
        assert rule.achieved <= 1e-9

    def test_known_expectation(self):
        rule = mixing_rule(make_prior("exponential", 0.49), 0.45, 10.0, _mass)
        assert float(rule.nodes @ rule.weights) == pytest.approx(0.49, rel=1e-12)

    def test_rule_is_read_only(self):
        rule = mixing_rule(make_prior("half-normal", 0.5), 0.45, 10.0, _mass)
        with pytest.raises(ValueError):
            rule.weights[0] = 0.0

    def test_failed_check_reports_achieved_error(self):
        # a kernel with a jump inside a panel defeats the refined copy
        def step(tau, weights, d):
            return np.full((d.size, 1), np.where(tau < 0.3137, 1.0, 0.0) @ weights)

        with pytest.raises(QuadratureError) as exc:
            mixing_rule(make_prior("half-normal", 0.5), 0.45, 10.0, step)
        assert exc.value.achieved > 1e-9
        assert "achieved relative error" in str(exc.value)

    def test_each_quantity_is_checked_on_its_own_scale(self):
        # the step column, 1e-20 of the mass column, would pass under the
        # mass column's scale
        probes = []

        def mass_and_step(tau, weights, d):
            probes.append(d)
            step = np.where(tau < 0.3137, 1e-20, 0.0) @ weights
            return np.column_stack([_mass(tau, weights, d)[:, 0], np.full(d.size, step)])

        with pytest.raises(QuadratureError):
            mixing_rule(make_prior("half-normal", 0.5), 0.45, 10.0, mass_and_step)
        assert probes[0].size == 49 and probes[0][0] == 0.0 and probes[0][-1] == 10.0

    @pytest.mark.parametrize("nan_first", [True, False])
    def test_nan_in_any_column_is_refused(self, nan_first):
        def mass_and_nan(tau, weights, d):
            columns = [_mass(tau, weights, d)[:, 0], np.full(d.size, math.nan)]
            return np.column_stack(columns[::-1] if nan_first else columns)

        with pytest.raises(QuadratureError):
            mixing_rule(make_prior("half-normal", 0.5), 0.45, 10.0, mass_and_nan)

    def test_reach_beyond_the_limit_is_refused(self):
        prior = make_prior("half-normal", 0.5)
        assert mixing_rule(prior, 0.45, MAX_REACH, _mass).reach == MAX_REACH
        with pytest.raises(QuadratureError, match="out of reach"):
            mixing_rule(prior, 0.45, 1e200, _mass)

    def test_unreachable_tail_mass_is_refused(self):
        # shape 0.01 leaves 0.1% of the mass beyond tau = 1e300
        with pytest.raises(QuadratureError) as exc:
            mixing_rule(make_prior("lomax", 1.0, 0.01), 0.45, 10.0, _mass)
        assert exc.value.achieved == pytest.approx(1e-3, rel=0.01)

    def test_uniform_layout_is_not_split_at_its_end(self):
        # exp(log(upper)) rounds above upper here, where the density is 0
        prior = make_prior("uniform", 0.24724083100815689)
        assert _rule_layout(prior, 0.15261871331641902)[1].size == 4
        for scale in np.geomspace(0.05, 2.0, 400):
            t0, edges, _ = _rule_layout(make_prior("uniform", scale), 0.15261871331641902)
            assert edges.size - 1 <= math.ceil(math.log(scale / t0) / _RULE_WIDTH)


def _report_rule(spec: str):
    """A MapPrior at the report's source SE and its rule, built for the reach
    the ESS ladder's quantile solve sets."""
    mp = MapPrior(0.0, 0.451 ** 2, parse_prior_spec(spec))
    ess_for_map_prior(mp, 3.77)
    return mp, mp._rule


#: heavy-tailed report priors and their node counts with no far-tail collapse
HEAVY_RULES = [("lomax(0.337,1)", 1017), ("half-cauchy(0.3)", 992)]


class TestFarTailCollapse:
    @pytest.mark.parametrize("spec,uncollapsed", HEAVY_RULES)
    def test_heavy_tailed_rules_keep_at_most_half_the_nodes(self, spec, uncollapsed):
        assert _report_rule(spec)[1].nodes.size <= uncollapsed // 2

    @pytest.mark.parametrize("spec,uncollapsed", HEAVY_RULES)
    def test_collapsed_rule_agrees_with_the_uncollapsed(self, monkeypatch, spec, uncollapsed):
        mp, rule = _report_rule(spec)
        monkeypatch.setattr(quadrature, "_RULE_FAR_REACHES", math.inf)
        full = MapPrior(0.0, 0.451 ** 2, mp.tau_prior)._mixing_rule(rule.reach)
        assert full.reach == rule.reach and full.nodes.size == uncollapsed
        d = np.concatenate([[0.0], np.geomspace(1e-3, rule.reach, 3999)])
        # the upper tail and the density at each offset
        new, old = (mp._mixture(r.nodes, r.weights)._reduce(d, np.zeros(d.size, dtype=bool))
                    for r in (rule, full))
        for a, b in zip(new.T, old.T):
            served = b >= 1e-12 * np.max(b)
            np.testing.assert_allclose(a[served], b[served], rtol=1e-13, atol=0.0)
        assert np.sum(rule.weights) == pytest.approx(np.sum(full.weights), rel=1e-14)
        assert np.all(np.diff(rule.nodes) > 0.0)

    @pytest.mark.parametrize("spec", [spec for spec, _ in HEAVY_RULES] + ["half-normal(0.5)"])
    def test_check_sees_a_coarse_collapse(self, monkeypatch, spec):
        # one Gauss node beyond one reach (four in the refined copy)
        mp, rule = _report_rule(spec)
        monkeypatch.setattr(quadrature, "_RULE_FAR_REACHES", 1.0)
        monkeypatch.setattr(quadrature, "_RULE_FAR_NODES", 1)
        fresh = MapPrior(0.0, 0.451 ** 2, mp.tau_prior)
        if spec.startswith("half-normal"):
            # its last node lies within the reach: nothing to collapse
            assert np.array_equal(fresh._mixing_rule(rule.reach).nodes, rule.nodes)
        else:
            with pytest.raises(QuadratureError) as exc:
                fresh._mixing_rule(rule.reach)
            assert exc.value.achieved > RULE_TOL

    def test_degenerate_far_tail_is_kept(self):
        # eight far nodes at one tau: no five-node rule, and no warning
        tau, weights = np.array([1.0, 2.0] + [1e3] * 8), np.full(10, 0.1)
        assert all(a is b for a, b in zip(_collapse_far_tail(tau, weights, 1.0, 5),
                                          (tau, weights)))
