"""Power-prior exponent mapping and the bias-allowance reference model."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import ndtri

from conftest import (a0_mass, a0_numeric_cdf, ks_distance, normal_pdf, table2_priors,
                      trapezoid_summary)
from mapprior import (
    InvalidParameterError,
    a0_density,
    a0_from_tau,
    beta_prior_from_tau_prior,
    make_prior,
    reference_model_posterior,
    shrinkage_posterior,
    tau_from_a0,
)

S1 = 0.451


class TestExponentMapping:
    def test_zero_heterogeneity_is_full_borrowing(self):
        assert a0_from_tau(0.0, S1) == 1.0

    def test_half_weight_point(self):
        assert a0_from_tau(S1 / math.sqrt(2.0), S1) == pytest.approx(0.5, rel=1e-14)

    def test_half_unit_heterogeneity(self):
        assert a0_from_tau(0.5, S1) == pytest.approx(0.289, abs=5e-4)

    def test_strictly_decreasing(self):
        tau = np.linspace(0.0, 5.0, 200)
        values = a0_from_tau(tau, S1)
        assert np.all(np.diff(values) < 0.0)

    def test_inverse_examples(self):
        assert tau_from_a0(1.0, S1) == 0.0
        assert tau_from_a0(0.5, S1) == pytest.approx(S1 / math.sqrt(2.0), rel=1e-14)
        assert tau_from_a0(a0_from_tau(0.5, S1), S1) == pytest.approx(0.5, rel=1e-12)

    def test_round_trip_grid(self):
        a = np.linspace(1e-9, 1.0, 501)
        back = a0_from_tau(tau_from_a0(a, S1), S1)
        np.testing.assert_allclose(back, a, atol=1e-12)

    @pytest.mark.parametrize("bad", [0.0, -0.1, 1.0001])
    def test_inverse_rejects_out_of_range(self, bad):
        with pytest.raises(InvalidParameterError):
            tau_from_a0(bad, S1)

    def test_rejects_bad_se(self):
        with pytest.raises(InvalidParameterError):
            a0_from_tau(0.5, 0.0)


@given(st.floats(1e-6, 1.0), st.floats(0.01, 3.0))
@settings(max_examples=100, deadline=None)
def test_round_trip_property(a0, s1):
    assert a0_from_tau(tau_from_a0(a0, s1), s1) == pytest.approx(a0, abs=1e-12)


class TestExponentDensity:
    @pytest.mark.parametrize("prior", table2_priors(),
                             ids=lambda p: p.spec_string())
    def test_normalizes_for_every_family(self, prior):
        assert a0_mass(prior, S1) == pytest.approx(1.0, abs=1e-5)

    def test_normalizes_for_bounded_support(self):
        assert a0_mass(make_prior("uniform", 0.7), S1) == pytest.approx(1.0, abs=1e-5)

    def test_monte_carlo_distribution_match(self):
        prior = make_prior("half-normal", 0.5)
        rng = np.random.default_rng(91)
        u = np.maximum(rng.random(200_000), np.finfo(float).tiny)
        draws = a0_from_tau(np.asarray(prior.quantile(u)), S1)
        grid, cdf = a0_numeric_cdf(prior, S1)
        assert ks_distance(draws, grid, cdf) < 0.004

    def test_substantial_mass_near_full_borrowing(self):
        # half-normal(0.25) against the Alport source standard error
        prior = make_prior("half-normal", 0.25)
        threshold = tau_from_a0(0.5, S1)
        share_above = float(prior.cdf(threshold))
        assert share_above == pytest.approx(0.798, abs=0.002)
        assert share_above > 0.5

    def test_mode_structure_grows_with_scale(self):
        # the density always diverges at a0 -> 1 (every family has positive
        # density at tau = 0), so that boundary spike counts as one mode;
        # interior modes appear as the prior scale grows
        counts = []
        grid = np.linspace(1e-6, 1.0 - 1e-6, 20001)
        for scale in (0.25, 0.5, 1.0):
            dens = a0_density(make_prior("half-normal", scale), S1, grid)
            interior = np.flatnonzero((dens[1:-1] > dens[:-2]) & (dens[1:-1] > dens[2:]))
            edge_spike = 1 if dens[-1] > dens[-2] else 0
            counts.append(interior.size + edge_spike)
        assert counts == sorted(counts)
        assert counts[-1] >= 2

    def test_interior_mode_location_matches_monte_carlo(self):
        prior = make_prior("half-normal", 1.0)
        grid = np.linspace(1e-6, 0.5, 10001)
        dens = a0_density(prior, S1, grid)
        mode = grid[np.argmax(dens)]
        rng = np.random.default_rng(17)
        draws = a0_from_tau(np.asarray(prior.quantile(rng.random(400_000) * (1 - 1e-12) + 1e-12)), S1)
        hist, edges = np.histogram(draws[draws < 0.5], bins=60, range=(0.0, 0.5))
        mc_mode = 0.5 * (edges[np.argmax(hist)] + edges[np.argmax(hist) + 1])
        assert mode == pytest.approx(mc_mode, abs=0.02)

    def test_endpoints_are_limits(self):
        prior = make_prior("half-normal", 0.5)
        assert math.isinf(a0_density(prior, S1, 1.0))
        assert a0_density(prior, S1, 0.0) == 0.0
        # a0 -> 0 is tau -> inf, where the density tends to tau^3 p(tau) / s1^2:
        # infinite below tail index 2, 2 scale^2 / s1^2 at index 2, else 0
        index_two = 2.0 * (0.5 / 0.45) ** 2
        for family, shape, limit in [("half-cauchy", None, math.inf),
                                     ("half-student-t", 1.9, math.inf),
                                     ("lomax", 1.5, math.inf),
                                     ("half-student-t", 2.0, index_two),
                                     ("lomax", 2.0, index_two),
                                     ("half-student-t", 2.1, 0.0),
                                     ("half-student-t", 3.0, 0.0),
                                     ("lomax", 3.0, 0.0),
                                     ("exponential", None, 0.0),
                                     ("uniform", None, 0.0)]:
            prior = make_prior(family, 0.5, shape)
            assert a0_density(prior, 0.45, 0.0) == pytest.approx(limit, rel=1e-12), \
                prior.spec_string()
            if limit == index_two:
                assert a0_density(prior, 0.45, 1e-13) == pytest.approx(limit, rel=1e-4)


BETA_BASES = [
    make_prior("half-normal", 0.5),
    make_prior("half-student-t", 0.4, 3.0),
    make_prior("half-cauchy", 0.3),
    make_prior("half-logistic", 0.6),
    make_prior("exponential", 0.25),
    make_prior("lomax", 0.7, 1.5),
    make_prior("uniform", 1.2),
]


class TestBetaPrior:
    """beta = sqrt(2) tau: the tau prior stretched by sqrt(2)."""

    @pytest.fixture(params=BETA_BASES, ids=lambda p: p.spec_string())
    def base(self, request):
        return request.param

    def test_family_is_preserved(self, base):
        q = beta_prior_from_tau_prior(base)
        assert (q.family, q.shape) == (base.family, base.shape)
        assert q.scale == pytest.approx(math.sqrt(2.0) * base.scale, rel=1e-15)

    def test_density_is_stretched_tau_density(self, base):
        q = beta_prior_from_tau_prior(base)
        x = math.sqrt(2.0) * base.quantile(np.linspace(0.001, 0.999, 401))
        np.testing.assert_allclose(q.density(x),
                                   base.density(x / math.sqrt(2.0)) / math.sqrt(2.0),
                                   rtol=1e-12)

    def test_cdf_and_quantiles_are_stretched(self, base):
        q = beta_prior_from_tau_prior(base)
        p = np.linspace(0.001, 0.999, 401)
        x = math.sqrt(2.0) * base.quantile(p)
        np.testing.assert_allclose(q.cdf(x), base.cdf(x / math.sqrt(2.0)), rtol=1e-12)
        np.testing.assert_allclose(q.quantile(p), x, rtol=1e-12)
        assert q.median == pytest.approx(math.sqrt(2.0) * base.median, rel=1e-12)
        assert q.support_upper == pytest.approx(math.sqrt(2.0) * base.support_upper,
                                                rel=1e-15)

    def test_median_scales_by_sqrt2(self, hn05):
        q = beta_prior_from_tau_prior(hn05)
        assert q.median == pytest.approx(math.sqrt(2.0) * hn05.median, rel=1e-12)

    def test_density_is_rescaled_family(self, hn05):
        q = beta_prior_from_tau_prior(hn05)
        reference = make_prior("half-normal", 0.5 * math.sqrt(2.0))
        x = np.linspace(0.0, 4.0, 101)
        np.testing.assert_allclose(q.density(x), reference.density(x), rtol=1e-12)

    def test_normalizes(self, hn05):
        q = beta_prior_from_tau_prior(hn05)
        val, _ = quad(lambda b: float(q.density(b)), 0.0, 60.0, limit=200)
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_point_mass_transform(self):
        q = beta_prior_from_tau_prior(make_prior("uniform", 1e-8))
        assert q.support_upper == pytest.approx(math.sqrt(2.0) * 1e-8)


class TestReferenceModel:
    def test_matches_shrinkage_on_alport(self, alport_source, alport_target, hn05):
        ref = reference_model_posterior(alport_source, alport_target, hn05)
        post = shrinkage_posterior(alport_source, alport_target, hn05)
        np.testing.assert_array_equal(ref.grid, post.grid)
        assert np.max(np.abs(ref.density - post.density)) < 1e-3

    def test_no_bias_limit_is_fixed_effect_pooling(self, alport_source, alport_target):
        tiny = make_prior("uniform", 1e-8)
        ref = reference_model_posterior(alport_source, alport_target, tiny)
        w1 = 1.0 / alport_source.variance
        w2 = 1.0 / alport_target.variance
        mean = (alport_source.y * w1 + alport_target.y * w2) / (w1 + w2)
        sd = (w1 + w2) ** -0.5
        np.testing.assert_allclose(ref.density, normal_pdf(ref.grid, mean, sd), atol=1e-5)

    def test_huge_bias_scale_approaches_target_likelihood(self, alport_source,
                                                          alport_target):
        # a uniform [0, S] bias prior keeps ~1/log(S) weight at small bias,
        # so the approach to the plain likelihood is slow but monotone
        expected_lo = alport_target.y + ndtri(0.025) * alport_target.se
        gaps = []
        for scale in (1e3, 1e5):
            wide = make_prior("uniform", scale)
            median, lower, *_ = trapezoid_summary(
                reference_model_posterior(alport_source, alport_target, wide))
            assert median == pytest.approx(alport_target.y, abs=0.01 * alport_target.se)
            gaps.append(abs(lower - expected_lo))
        assert gaps[0] < 0.08 * alport_target.se
        assert gaps[1] < gaps[0]
