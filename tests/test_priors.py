"""Heterogeneity prior families: parameterizations, moments, inversions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from conftest import TABLE2_ROWS, common_median, partial_moment, quad_mass, quad_moment
from mapprior import (
    FAMILIES,
    DataFormatError,
    InvalidParameterError,
    make_prior,
    parse_prior_spec,
    scale_for_median,
)

# (family, scale, shape) members exercised by the generic sweeps
SWEEP = [
    ("half-normal", 0.5, None),
    ("half-normal", 2.0, None),
    ("half-student-t", 0.46, 4.0),
    ("half-student-t", 1.0, 2.5),
    ("half-cauchy", 0.34, None),
    ("half-logistic", 0.31, None),
    ("exponential", 0.49, None),
    ("lomax", 2.75, 6.0),
    ("lomax", 0.34, 1.0),
    ("uniform", 0.7, None),
]

#: survival function of each family's scale-1 member, from scipy.stats
SURVIVAL = {
    "half-normal": lambda x, _: stats.halfnorm.sf(x),
    "half-student-t": lambda x, nu: 2.0 * stats.t.sf(x, nu),
    "half-cauchy": lambda x, _: stats.halfcauchy.sf(x),
    "half-logistic": lambda x, _: stats.halflogistic.sf(x),
    "exponential": lambda x, _: stats.expon.sf(x),
    "lomax": lambda x, alpha: stats.lomax.sf(x, alpha),
    "uniform": lambda x, _: stats.uniform.sf(x),
}


class TestConstruction:
    def test_half_normal_05_median_near_034(self):
        prior = make_prior("half-normal", 0.5)
        assert abs(prior.median - 0.34) < 0.005

    def test_negative_scale_rejected(self):
        with pytest.raises(InvalidParameterError):
            make_prior("half-normal", -1.0)

    def test_lomax_row_median_near_034(self):
        prior = make_prior("lomax", 2.75, 6.0)
        assert abs(prior.median - 0.34) < 0.005

    @pytest.mark.parametrize("family", ["half-student-t", "lomax"])
    def test_missing_shape_rejected(self, family):
        with pytest.raises(InvalidParameterError):
            make_prior(family, 1.0)

    @pytest.mark.parametrize("family", ["half-normal", "half-cauchy", "half-logistic",
                                        "exponential", "uniform"])
    def test_extra_shape_rejected(self, family):
        with pytest.raises(InvalidParameterError):
            make_prior(family, 1.0, 3.0)

    def test_nonpositive_shape_rejected(self):
        with pytest.raises(InvalidParameterError):
            make_prior("lomax", 1.0, 0.0)

    def test_unknown_family_rejected(self):
        with pytest.raises(InvalidParameterError):
            make_prior("log-normal", 1.0)


class TestDensity:
    def test_unit_exponential_at_origin(self):
        assert make_prior("exponential", 1.0).density(0.0) == pytest.approx(1.0)

    def test_half_normal_at_origin(self):
        s = 0.7
        expected = 2.0 / (s * math.sqrt(2.0 * math.pi))
        assert make_prior("half-normal", s).density(0.0) == pytest.approx(expected)

    def test_uniform_flat(self):
        s = 0.8
        prior = make_prior("uniform", s)
        assert prior.density(s / 2) == pytest.approx(1.0 / s)
        assert prior.density(1.5 * s) == 0.0

    @pytest.mark.parametrize("family,scale,shape", SWEEP)
    def test_zero_below_support(self, family, scale, shape):
        assert make_prior(family, scale, shape).density(-0.3) == 0.0

    @pytest.mark.parametrize("family,scale,shape", SWEEP)
    def test_normalizes_to_one(self, family, scale, shape):
        assert quad_mass(make_prior(family, scale, shape)) == pytest.approx(1.0, abs=1e-6)

    def test_half_cauchy_equals_half_t_nu1(self):
        hc = make_prior("half-cauchy", 0.34)
        ht = make_prior("half-student-t", 0.34, 1.0)
        tau = np.linspace(0.0, 25.0, 401)
        np.testing.assert_allclose(hc.density(tau), ht.density(tau), rtol=1e-12)


class TestCdf:
    def test_half_normal_median_displayed(self):
        assert make_prior("half-normal", 0.5).cdf(0.34) == pytest.approx(0.5, abs=0.01)

    def test_exponential_row_median_displayed(self):
        assert make_prior("exponential", 0.49).cdf(0.34) == pytest.approx(0.5, abs=0.01)

    @pytest.mark.parametrize("family,scale,shape", SWEEP)
    def test_zero_at_origin_and_monotone(self, family, scale, shape):
        prior = make_prior(family, scale, shape)
        assert prior.cdf(0.0) == 0.0
        assert prior.cdf(-1.0) == 0.0
        tau = np.linspace(0.0, 8.0 * scale, 200)
        values = prior.cdf(tau)
        assert np.all(np.diff(values) >= 0.0)
        assert prior.cdf(prior.quantile(1 - 1e-9)) > 1 - 1e-8


class TestQuantile:
    def test_half_normal_median_factor(self):
        s = 1.3
        assert make_prior("half-normal", s).quantile(0.5) == pytest.approx(
            0.6744897501960817 * s, rel=1e-12)

    def test_exponential_upper_tail(self):
        s = 0.49
        q = make_prior("exponential", s).quantile(0.95)
        assert q == pytest.approx(math.log(20.0) * s, rel=1e-12)
        assert q == pytest.approx(3.00 * s, abs=0.01)

    def test_lomax_median_formula(self):
        s, alpha = 2.75, 6.0
        q = make_prior("lomax", s, alpha).quantile(0.5)
        assert q == pytest.approx((2.0 ** (1.0 / alpha) - 1.0) * s, rel=1e-12)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.2, 1.7])
    def test_out_of_range_rejected(self, p):
        with pytest.raises(InvalidParameterError):
            make_prior("half-normal", 1.0).quantile(p)

    @pytest.mark.parametrize("family,scale,shape", SWEEP)
    def test_round_trips(self, family, scale, shape):
        prior = make_prior(family, scale, shape)
        p = np.arange(0.01, 1.0, 0.01)
        np.testing.assert_allclose(prior.cdf(prior.quantile(p)), p, atol=1e-8)
        tau = prior.quantile(p)
        np.testing.assert_allclose(prior.quantile(prior.cdf(tau)), tau, rtol=1e-7)


    @pytest.mark.parametrize("family,scale,shape", SWEEP)
    @pytest.mark.parametrize("q", [0.5, 1e-3, 1e-17, 1e-300])
    def test_isf_round_trips(self, family, scale, shape, q):
        prior = make_prior(family, scale, shape)
        tau = prior.isf(q)
        # the CDF returns 1 - q where that is a float, the survival from
        # scipy.stats returns q itself (to float spacing on bounded support)
        assert prior.cdf(tau) == pytest.approx(1.0 - q, rel=0.0, abs=1e-15)
        floor = np.spacing(1.0) if math.isfinite(prior.support_upper) else 0.0
        assert SURVIVAL[family](tau / scale, shape) == pytest.approx(q, rel=1e-12, abs=floor)

    @pytest.mark.parametrize("q", [0.0, 1.0, -0.2, math.nan])
    def test_isf_out_of_range_rejected(self, q):
        with pytest.raises(InvalidParameterError):
            make_prior("half-normal", 1.0).isf(q)


class TestMoments:
    def test_half_normal(self):
        s = 0.5
        prior = make_prior("half-normal", s)
        assert prior.mean() == pytest.approx(math.sqrt(2.0 / math.pi) * s, rel=1e-12)
        assert prior.mean_sq() == pytest.approx(s * s, rel=1e-12)

    def test_exponential(self):
        s = 0.49
        prior = make_prior("exponential", s)
        assert prior.mean() == pytest.approx(s)
        assert prior.mean_sq() == pytest.approx(2.0 * s * s)

    def test_uniform_second_moment(self):
        assert make_prior("uniform", 0.9).mean_sq() == pytest.approx(0.27, rel=1e-12)

    def test_half_cauchy_infinite(self):
        prior = make_prior("half-cauchy", 0.34)
        assert math.isinf(prior.mean())
        assert math.isinf(prior.mean_sq())

    def test_lomax_table_row(self):
        prior = make_prior("lomax", 2.75, 6.0)
        expected = 2.0 * 2.75 ** 2 / ((6.0 - 1.0) * (6.0 - 2.0))
        assert prior.mean_sq() == pytest.approx(expected, rel=1e-12)
        assert prior.mean_sq() == pytest.approx(quad_moment(prior, 2), rel=1e-6)

    @pytest.mark.parametrize("family,scale,shape", SWEEP)
    def test_closed_forms_match_quadrature(self, family, scale, shape):
        prior = make_prior(family, scale, shape)
        for power, value in ((1, prior.mean()), (2, prior.mean_sq())):
            if math.isfinite(value):
                assert value == pytest.approx(quad_moment(prior, power), rel=1e-6)

    @pytest.mark.parametrize("prior,power", [
        (("half-cauchy", 0.34, None), 1),
        (("half-cauchy", 0.34, None), 2),
        (("half-student-t", 0.5, 0.8), 1),
        (("half-student-t", 0.5, 2.0), 2),
        (("lomax", 0.34, 1.0), 1),
        (("lomax", 0.34, 2.0), 2),
    ])
    def test_infinite_moments_diverge_under_truncation(self, prior, power):
        prior = make_prior(*prior)
        assert math.isinf(prior.mean() if power == 1 else prior.mean_sq())
        partials = [partial_moment(prior, power, t) for t in (1e2, 1e4, 1e6)]
        assert partials[0] < partials[1] < partials[2]
        assert partials[2] > 1.4 * partials[0]

    def test_finite_moments_plateau_under_truncation(self):
        prior = make_prior("half-normal", 0.5)
        assert partial_moment(prior, 2, 1e6) == pytest.approx(
            partial_moment(prior, 2, 1e2), rel=1e-9)

    @pytest.mark.parametrize("nu", [1.5, 2.5, 4.0, 8.0])
    def test_half_t_mean_formula_against_quadrature(self, nu):
        # the standard result has (nu - 1) * Gamma(nu / 2) in the denominator
        prior = make_prior("half-student-t", 0.73, nu)
        assert prior.mean() == pytest.approx(quad_moment(prior, 1), rel=1e-6)


class TestScaleForMedian:
    def test_reproduces_table_scale_column(self):
        target = common_median()
        for family, shape, scale, displayed, *_ in TABLE2_ROWS:
            if scale == "match":
                assert scale_for_median(family, target, shape) == pytest.approx(
                    displayed, abs=0.005), family

    def test_half_cauchy_is_identity(self):
        assert scale_for_median("half-cauchy", 0.34) == pytest.approx(0.34, rel=1e-12)

    def test_half_logistic_displayed(self):
        assert scale_for_median("half-logistic", 0.34) == pytest.approx(0.31, abs=0.005)

    def test_exponential_displayed(self):
        assert scale_for_median("exponential", 0.34) == pytest.approx(0.49, abs=0.005)

    @pytest.mark.parametrize("family,scale,shape", SWEEP)
    def test_median_is_exact(self, family, scale, shape):
        target = 0.613
        built = make_prior(family, scale_for_median(family, target, shape), shape)
        assert built.median == pytest.approx(target, abs=1e-8)

    def test_nonpositive_target_rejected(self):
        with pytest.raises(InvalidParameterError):
            scale_for_median("half-normal", 0.0)


class TestSpecStrings:
    @pytest.mark.parametrize("text,family,scale,shape", [
        ("half-normal(0.5)", "half-normal", 0.5, None),
        ("hn(0.5)", "half-normal", 0.5, None),
        ("HN(0.5)", "half-normal", 0.5, None),
        ("lomax(2.75,6)", "lomax", 2.75, 6.0),
        (" lomax( 2.75 , 6 ) ", "lomax", 2.75, 6.0),
        ("ht(0.46,4)", "half-student-t", 0.46, 4.0),
        ("half-t(0.46,4)", "half-student-t", 0.46, 4.0),
        ("hc(0.34)", "half-cauchy", 0.34, None),
        ("hl(0.31)", "half-logistic", 0.31, None),
        ("exp(0.49)", "exponential", 0.49, None),
        ("unif(0.7)", "uniform", 0.7, None),
    ])
    def test_parse(self, text, family, scale, shape):
        prior = parse_prior_spec(text)
        assert prior.family == family
        assert prior.scale == pytest.approx(scale)
        assert prior.shape == (pytest.approx(shape) if shape is not None else None)

    @pytest.mark.parametrize("text", ["half-normal", "hn()", "hn(a)", "hn(0.5,1,2)",
                                      "(0.5)", "hn(0.5"])
    def test_parse_rejects_malformed(self, text):
        with pytest.raises(DataFormatError):
            parse_prior_spec(text)

    def test_parse_rejects_bad_parameters(self):
        with pytest.raises(InvalidParameterError):
            parse_prior_spec("hn(-1)")
        with pytest.raises(InvalidParameterError):
            parse_prior_spec("hn(0.5,3)")

    @pytest.mark.parametrize("family,scale,shape", SWEEP)
    def test_spec_string_round_trip(self, family, scale, shape):
        prior = make_prior(family, scale, shape)
        again = parse_prior_spec(prior.spec_string())
        assert again == prior


@st.composite
def prior_and_p(draw):
    family = draw(st.sampled_from(FAMILIES))
    scale = draw(st.floats(0.05, 3.0))
    shape = draw(st.floats(0.5, 10.0)) if family in ("half-student-t", "lomax") else None
    p = draw(st.floats(0.01, 0.99))
    return make_prior(family, scale, shape), p


@given(prior_and_p())
@settings(max_examples=80, deadline=None)
def test_quantile_cdf_identity_property(case):
    prior, p = case
    assert float(prior.cdf(prior.quantile(p))) == pytest.approx(p, abs=1e-9)
