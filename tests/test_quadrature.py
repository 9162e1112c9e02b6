"""Quadrature engine: exactness, refinement, failure reporting."""

import math

import numpy as np
import pytest

from mapprior import QuadratureError, make_prior
from mapprior.quadrature import (
    _RULE_WIDTH,
    MAX_REACH,
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
