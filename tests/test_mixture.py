"""Scale-mixture predictive prior: moments, evaluations, sampling."""

import math
import warnings

import numpy as np
import pytest
from scipy.special import ndtr

from conftest import (common_median, mixture_cdf, mixture_density_and_tail, mixture_upper_tail,
                      normal_pdf, table2_priors)
from mapprior import (
    InvalidParameterError,
    MapPrior,
    StudyEstimate,
    conditional_moments,
    ess_for_map_prior,
    make_prior,
    prior_comparison_table,
    scale_for_median,
    uisd,
)
from mapprior import MapPriorError, QuadratureError, mixture
from mapprior.information import _probability_ladder
from mapprior.shrink import posterior_mixture

#: every family, with a finite-variance shape where one is needed
FAMILIES = [("half-normal", None), ("half-student-t", 5.0), ("half-cauchy", None),
            ("half-logistic", None), ("exponential", None), ("lomax", 4.0),
            ("uniform", None)]

ALPORT = StudyEstimate(y=-0.635, se=0.451, n=70, label="observational")
TOPCAT = StudyEstimate(y=-0.117, se=0.077, n=3445, label="TOPCAT")

#: priors checked at source SEs far below their scale
TINY_SE_PRIORS = [make_prior("half-normal", 0.5), make_prior("half-cauchy", 0.3),
                  make_prior("lomax", 1.0, 1.0)]


@pytest.fixture(scope="module")
def alport_map(hn05):
    return MapPrior.from_study(ALPORT, hn05)


@pytest.fixture(scope="module")
def topcat_map():
    return MapPrior.from_study(TOPCAT, make_prior("half-normal", 0.25))


class TestConditionalMoments:
    def test_zero_heterogeneity(self):
        mean, var = conditional_moments(ALPORT, 0.0)
        assert (mean, var) == (pytest.approx(-0.635), pytest.approx(0.451 ** 2))

    def test_alport_half_unit(self):
        _, var = conditional_moments(ALPORT, 0.5)
        assert var == pytest.approx(0.451 ** 2 + 2 * 0.25)
        assert math.sqrt(var) == pytest.approx(0.84, abs=0.005)

    def test_heart_failure(self):
        _, var = conditional_moments(TOPCAT, 0.25)
        assert var == pytest.approx(0.13093, abs=5e-6)
        assert math.sqrt(var) == pytest.approx(0.362, abs=0.001)

    def test_negative_tau_rejected(self):
        with pytest.raises(InvalidParameterError):
            conditional_moments(ALPORT, -0.1)


class TestConstruction:
    def test_from_study(self, hn05):
        mp = MapPrior.from_study(ALPORT, hn05)
        assert mp.location == ALPORT.y
        assert mp.base_variance == pytest.approx(ALPORT.se ** 2)
        assert mp.tau_prior is hn05

    def test_invalid_base_variance(self, hn05):
        with pytest.raises(InvalidParameterError):
            MapPrior(location=0.0, base_variance=0.0, tau_prior=hn05)

    def test_degenerate_prior_gives_plain_normal(self):
        tiny = make_prior("uniform", 1e-8)
        mp = MapPrior.from_study(ALPORT, tiny)
        theta = ALPORT.y + np.linspace(-4.0, 4.0, 41)
        np.testing.assert_allclose(mp.density(theta),
                                   normal_pdf(theta, ALPORT.y, ALPORT.se),
                                   rtol=1e-9)
        np.testing.assert_allclose(mp.cdf(theta),
                                   ndtr((theta - ALPORT.y) / ALPORT.se),
                                   atol=1e-6)


class TestDensity:
    def test_symmetry(self, alport_map):
        d = np.array([0.5, 1.0, 2.0, 3.7])
        left = alport_map.density(alport_map.location - d)
        right = alport_map.density(alport_map.location + d)
        np.testing.assert_allclose(left, right, rtol=1e-10)

    def test_normalizes(self, alport_map, hn05):
        half = 50.0 * math.sqrt(ALPORT.se ** 2 + 2.0 * hn05.quantile(0.999) ** 2)
        grid = np.linspace(alport_map.location - half, alport_map.location + half, 40001)
        mass = np.trapezoid(alport_map.density(grid), grid)
        assert mass >= 0.999
        assert mass == pytest.approx(1.0, abs=1e-4)

    def test_more_peaked_than_moment_matched_normal(self, alport_map):
        matched_peak = 1.0 / math.sqrt(2.0 * math.pi * alport_map.variance())
        assert alport_map.density(alport_map.location) > matched_peak

    @pytest.mark.parametrize("family,shape", [("half-normal", None), ("half-cauchy", None),
                                              ("lomax", 1.0)])
    def test_point_alone_matches_its_batch(self, family, shape):
        # each point's components are summed alone (vecdot, not BLAS gemv), so
        # its density does not depend on the other points in the call, to the bit
        source_map = MapPrior.from_study(ALPORT, make_prior(family, 0.4, shape))
        posterior = posterior_mixture(source_map, StudyEstimate(y=-0.67, se=0.742))
        theta = np.linspace(-4.0, 3.0, 40)
        for dist in (source_map, posterior):
            batch = dist.density(theta)     # first: the prior's rule serves every point
            np.testing.assert_array_equal([dist.density(t) for t in theta], batch)

    def test_heavy_mixing_dominates_in_tail(self, hn05):
        hc = make_prior("half-cauchy", scale_for_median("half-cauchy", hn05.median))
        base = 0.451 ** 2
        light = MapPrior(0.0, base, hn05)
        heavy = MapPrior(0.0, base, hc)
        assert math.log(heavy.density(3.0)) > math.log(light.density(3.0))


class TestCdf:
    def test_half_at_location(self, alport_map):
        assert alport_map.cdf(alport_map.location) == pytest.approx(0.5, abs=1e-9)

    def test_heart_failure_benefit_probability(self, topcat_map):
        # probability of a negative log effect is 71%
        assert topcat_map.cdf(0.0) == pytest.approx(0.71, abs=0.005)

    def test_alport_975_offset(self, alport_map):
        assert alport_map.cdf(alport_map.location + 1.72) == pytest.approx(0.975, abs=0.002)

    def test_monotone_and_limits(self, alport_map):
        theta = alport_map.location + np.linspace(-30.0, 30.0, 101)
        values = alport_map.cdf(theta)
        assert np.all(np.diff(values) >= 0.0)
        assert values[0] < 1e-6 and values[-1] > 1 - 1e-6

    def test_crosses_moment_matched_normal(self, alport_map):
        sd = alport_map.sd()
        hi = alport_map.location + 3.0 * sd
        lo = alport_map.location - 3.0 * sd
        assert alport_map.cdf(hi) < ndtr(3.0)
        assert alport_map.cdf(lo) > ndtr(-3.0)


class TestQuantiles:
    def test_median_is_location(self, alport_map):
        assert alport_map.quantile(0.5) == alport_map.location

    def test_heart_failure_interval(self, topcat_map):
        lo, hi = topcat_map.quantiles(np.array([0.025, 0.975]))
        assert lo == pytest.approx(-0.899, abs=0.003)
        assert hi == pytest.approx(0.665, abs=0.003)

    def test_half_cauchy_995_far_out(self, hn05):
        hc = make_prior("half-cauchy", scale_for_median("half-cauchy", hn05.median))
        mp = MapPrior(0.0, 0.451 ** 2, hc)
        assert mp.quantile(0.995) == pytest.approx(24.02, rel=0.01)

    def test_round_trip(self, alport_map):
        p = np.array([0.001, 0.05, 0.3, 0.7, 0.95, 0.999])
        np.testing.assert_allclose(alport_map.cdf(alport_map.quantiles(p)), p, atol=2e-8)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.5, 2.0, math.nan])
    def test_rejects_out_of_range(self, alport_map, p):
        with pytest.raises(InvalidParameterError):
            alport_map.quantile(p)

    @pytest.mark.parametrize("shape", [(0,), (0, 3)])
    def test_empty_input(self, alport_map, shape):
        q = alport_map.quantiles(np.empty(shape))
        assert q.shape == shape and q.dtype == float

    def test_mirror_levels_are_exact(self):
        # at location 0 a level and its mirror are one offset with two signs
        ladder = _probability_ladder()
        pairs = len(ladder) // 2
        for prior in table2_priors():
            q = MapPrior(0.0, 0.451 ** 2, prior).quantiles(ladder)
            np.testing.assert_array_equal(q[:pairs], -q[::-1][:pairs])

    def test_level_alone_matches_the_ladder_call(self):
        # a level's result depends on that level alone: it once took the
        # target of any other level in the call within float spacing of it
        ladder = _probability_ladder()
        table = np.array([0.5, 0.8, 0.9, 0.95, 0.975, 0.99, 0.995, 0.999])
        report = np.concatenate([(1.0 - table) / 2.0, (1.0 + table) / 2.0])
        levels = np.concatenate([table, report])
        for location in (0.0, -0.635):
            for prior in table2_priors():
                mp = MapPrior(location, 0.451 ** 2, prior)
                together = mp.quantiles(np.concatenate([ladder, levels]))[ladder.size:]
                alone = np.array([mp.quantiles([p])[0] for p in levels])
                np.testing.assert_array_equal(alone, together)

    def test_pass_count_per_ladder(self, monkeypatch):
        passes, cdf_calls = [], []
        reduce, cdf = mixture.NormalMixture._reduce, MapPrior.cdf

        def counting_reduce(self, x, lower=None):
            if lower is not None:
                passes.append(np.size(x))
            return reduce(self, x, lower)

        def counting_cdf(self, theta):
            cdf_calls.append(np.size(theta))
            return cdf(self, theta)

        monkeypatch.setattr(mixture.NormalMixture, "_reduce", counting_reduce)
        monkeypatch.setattr(MapPrior, "cdf", counting_cdf)
        for prior in table2_priors():
            passes.clear()
            MapPrior(0.0, 0.451 ** 2, prior).quantiles(_probability_ladder())
            assert 1 <= len(passes) <= 8, prior
        assert not cdf_calls

    @pytest.mark.parametrize("family,shape", FAMILIES)
    def test_contract_against_scipy_oracle(self, family, shape):
        p = np.array([5e-7, 0.005, 0.025, 0.975, 0.995, 1.0 - 5e-7])
        s1 = 0.451
        for ratio in (1e-3, 1e-1, 1.0, 10.0, 100.0):
            # ratio = source SE / prior median
            prior = make_prior(family, scale_for_median(family, s1 / ratio, shape), shape)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                q = MapPrior(0.3, s1 ** 2, prior).quantiles(p)
            for prob, value in zip(p, q):
                assert abs(mixture_cdf(prior, 0.3, s1, float(value)) - prob) <= 1e-8

    @pytest.mark.parametrize("family,shape", FAMILIES)
    @pytest.mark.parametrize("level", [1e-6, 1e-9, 1e-12])
    def test_tiny_levels_against_tail_oracle(self, family, shape, level):
        prior = make_prior(family, scale_for_median(family, common_median(), shape), shape)
        s1 = 0.451
        lower, upper = MapPrior(0.3, s1 ** 2, prior).quantiles([level, 1.0 - level])
        for d, tail in ((0.3 - lower, level), (upper - 0.3, 1.0 - (1.0 - level))):
            assert mixture_upper_tail(prior, s1, d, tail) == pytest.approx(tail, rel=1e-6)

    def test_table2_far_tail_against_tail_oracle(self):
        for prior in table2_priors():
            q = MapPrior(0.0, 0.451 ** 2, prior).quantile(1.0 - 1e-6)
            tail = 1.0 - (1.0 - 1e-6)
            assert mixture_upper_tail(prior, 0.451, q, tail) == pytest.approx(tail, rel=1e-6)

    def test_level_where_one_minus_p_rounds_to_one(self):
        # the rule's reach comes from the tau prior's closed-form upper tail
        mp = MapPrior(0.0, 0.2, make_prior("half-normal", 0.5))
        q = mp.quantile(1e-17)
        assert mixture_upper_tail(mp.tau_prior, math.sqrt(0.2), -q, 1e-17) == pytest.approx(
            1e-17, rel=1e-6)

    @pytest.mark.parametrize("prior,p", [(make_prior("half-normal", 0.5), 1e-300),
                                         (make_prior("half-normal", 0.5), 5e-324),
                                         (make_prior("lomax", 1.0, 0.05), 1e-9)])
    def test_level_out_of_reach_is_a_typed_error(self, prior, p):
        # below the floor the rule's pruned mass would swamp the tail; the
        # Lomax(0.05) offset would overflow the kernels' squares
        with pytest.raises(MapPriorError, match="tails to 1e-17 at offsets to 1e"):
            MapPrior(0.0, 0.2, prior).quantiles([0.5, p])

    @pytest.mark.parametrize("evaluate", ["density", "cdf", "log_density_curvature"])
    def test_offset_out_of_reach_is_a_typed_error(self, hn05, evaluate):
        # squares of offsets beyond 1e150 would overflow in the kernels
        mp = MapPrior(0.0, 0.2, hn05)
        if evaluate == "log_density_curvature":
            # in reach, but the density underflows there: 0/0 is refused
            with pytest.raises(QuadratureError, match=r"underflows at theta = 9e\+149"):
                mp.log_density_curvature(np.array([0.0, 0.9e150]))
        else:
            assert getattr(mp, evaluate)(np.array([0.0, 0.9e150])).shape == (2,)
        with pytest.raises(QuadratureError, match="out of reach"):
            getattr(mp, evaluate)(1e200)

    def test_stall_is_a_typed_error(self):
        # near 1e3 the float spacing moves the CDF by far more than 1e-8
        mp = MapPrior(1e3, 1e-24, make_prior("uniform", 1e-14))
        with pytest.raises(QuadratureError, match="stalled") as caught:
            mp.quantile(0.3)
        assert caught.value.achieved > 1e-8

    def test_tail_ordering_heavier_prior_wider(self, hn05):
        target = hn05.median
        base = 0.451 ** 2
        families = [("half-normal", None), ("exponential", None), ("half-cauchy", None)]
        q995 = [MapPrior(0.0, base, make_prior(f, scale_for_median(f, target, s), s)).quantile(0.995)
                for f, s in families]
        assert q995[0] < q995[1] < q995[2]


class TestVariance:
    def test_alport(self, alport_map):
        assert alport_map.variance() == pytest.approx(0.451 ** 2 + 0.5, rel=1e-12)
        assert alport_map.sd() == pytest.approx(0.84, abs=0.01)

    def test_heart_failure(self, topcat_map):
        assert topcat_map.sd() == pytest.approx(0.362, abs=0.002)

    def test_infinite_for_half_cauchy(self):
        mp = MapPrior(0.0, 0.451 ** 2, make_prior("half-cauchy", 0.34))
        assert math.isinf(mp.variance())
        assert math.isinf(mp.sd())
        # evaluations stay fully usable
        assert mp.density(0.0) > 0.0
        assert mp.cdf(2.0) < 1.0
        assert mp.quantile(0.9) > 0.0

    def test_matches_numeric_second_moment(self, alport_map):
        half = 60.0
        grid = np.linspace(alport_map.location - half, alport_map.location + half, 120001)
        dens = alport_map.density(grid)
        second = np.trapezoid((grid - alport_map.location) ** 2 * dens, grid)
        assert second == pytest.approx(alport_map.variance(), rel=1e-3)


class TestSampling:
    def test_deterministic_given_seed(self, alport_map):
        a = alport_map.sample(1000, seed=42)
        b = alport_map.sample(1000, seed=42)
        np.testing.assert_array_equal(a, b)
        c = alport_map.sample(1000, seed=43)
        assert not np.array_equal(a, c)

    def test_monte_carlo_moments(self, alport_map):
        draws = alport_map.sample(1_000_000, seed=7)
        assert float(np.mean(draws)) == pytest.approx(alport_map.location, abs=0.003)
        assert float(np.var(draws)) == pytest.approx(alport_map.variance(), rel=0.01)

    def test_rejects_nonpositive_count(self, alport_map):
        with pytest.raises(InvalidParameterError):
            alport_map.sample(0, seed=1)


class TestLogDensityCurvature:
    def test_matches_finite_differences(self, alport_map):
        pts = alport_map.location + np.linspace(-2.4, 2.4, 20)
        analytic = alport_map.log_density_curvature(pts)
        q025, q975 = alport_map.quantiles(np.array([0.025, 0.975]))
        h = 1e-3 * (q975 - q025) / 4.0
        offsets = np.array([0.0, -h, h, -h / 2, h / 2])
        logp = np.log(alport_map.density(pts[None, :] + offsets[:, None]))
        coarse = (logp[1] - 2 * logp[0] + logp[2]) / h ** 2
        fine = (logp[3] - 2 * logp[0] + logp[4]) / (h / 2) ** 2
        richardson = (4 * fine - coarse) / 3
        np.testing.assert_allclose(richardson, analytic, rtol=1e-4)

    def test_normal_limit_constant(self):
        tiny = make_prior("uniform", 1e-8)
        mp = MapPrior.from_study(ALPORT, tiny)
        pts = ALPORT.y + np.linspace(-1.0, 1.0, 7)
        np.testing.assert_allclose(mp.log_density_curvature(pts),
                                   -1.0 / ALPORT.se ** 2, rtol=1e-6)

    @pytest.mark.parametrize("theta", [np.inf, -np.inf, [0.0, np.inf]])
    def test_non_finite_theta_is_refused(self, hn05, theta):
        # the limit at +-inf depends on the family: 0 for unbounded tau,
        # -1/(s1^2 + 2 s^2) for uniform(s)
        mp = MapPrior(0.1, 0.2, hn05)
        with pytest.raises(InvalidParameterError, match="theta"):
            mp.log_density_curvature(theta)
        assert mp.density(np.inf) == 0.0
        assert (mp.cdf(-np.inf), mp.cdf(np.inf)) == (0.0, 1.0)

    @pytest.mark.parametrize("theta", [1000.0, [50.0, 1000.0]])
    def test_underflowing_density_is_refused(self, hn05, theta):
        # 0/0 where the density underflows; the refusal names the first such theta
        mp = MapPrior(0.0, 0.2, hn05)
        assert mp.density(1000.0) == 0.0
        with pytest.raises(QuadratureError, match="underflows at theta = 1000"):
            mp.log_density_curvature(theta)

    def test_refusal_leaves_finite_values_unchanged(self, hn05):
        mp = MapPrior(0.0, 0.2, hn05)
        value = mp.log_density_curvature(50.0)
        # the ESS path reads the same value, without the refusal
        assert value == mp._density_and_curvature(np.array(50.0))[1]
        assert math.isfinite(value) and value < 0.0


def _floored_error(got, ref, floor=0.0):
    """Largest error relative to the reference, with values below 1e-12 of
    the largest (or below ``floor``) held to an absolute tolerance."""
    scale = np.maximum(np.abs(ref), max(1e-12 * np.max(np.abs(ref)), floor))
    return float(np.max(np.abs(got - ref) / scale))


class TestMixingRule:
    """The per-prior tau rule against scipy's adaptive quadrature."""

    @pytest.mark.parametrize("family,shape", FAMILIES)
    @pytest.mark.parametrize("ratio", [0.1, 1.0, 10.0])
    def test_matches_adaptive_quadrature(self, family, shape, ratio):
        # ratio = source SE / prior median
        s1 = 0.451
        prior = make_prior(family, scale_for_median(family, s1 / ratio, shape), shape)
        mp = MapPrior(location=0.3, base_variance=s1 ** 2, tau_prior=prior)
        d = np.linspace(-40.0, 40.0, 161)
        ref_density, ref_tail = mixture_density_and_tail(prior, s1, d)
        ref_cdf = np.where(d <= 0.0, ref_tail, 1.0 - ref_tail)
        assert _floored_error(mp.density(mp.location + d), ref_density) <= 1e-8
        assert _floored_error(mp.cdf(mp.location + d), ref_cdf, floor=1e-13) <= 1e-8

    def test_one_rule_per_reach_extension(self, monkeypatch):
        reaches = []
        build = mixture.mixing_rule

        def counting(prior, inner_scale, reach, kernels):
            reaches.append(reach)
            return build(prior, inner_scale, reach, kernels)

        monkeypatch.setattr(mixture, "mixing_rule", counting)
        mp = MapPrior.from_study(ALPORT, make_prior("half-cauchy", 0.34))
        near = mp.location + np.linspace(-2.0, 2.0, 9)
        mp.density(near)
        mp.cdf(near)
        mp.log_density_curvature(near)
        assert len(reaches) == 1

        mp.quantiles(np.array([0.025, 0.975]))
        ess_for_map_prior(mp, uisd(70, 0.451))
        # every build served a call reaching beyond the previous rule
        assert reaches == sorted(set(reaches))
        built = len(reaches)
        assert built <= 3

        mp.density(near)
        mp.cdf(mp.location + 100.0)
        mp.quantiles(np.array([0.001, 0.5, 0.999]))
        ess_for_map_prior(mp, uisd(70, 0.451))
        assert len(reaches) == built

    @pytest.mark.parametrize("prior", TINY_SE_PRIORS, ids=lambda prior: prior.spec_string())
    @pytest.mark.parametrize("se", [1e-8, 1e-12])
    def test_tiny_source_se_against_scipy_oracle(self, prior, se):
        # below an SE of 1.1e-8, (largest tau) / (half the SE) overflows
        mp = MapPrior.from_study(StudyEstimate(0.0, se), prior)
        assert math.isfinite(mp.density(0.0)) and mp.density(0.0) > 0.0
        x = np.array([-2.0, -0.3, 0.0, 0.1, 2.0])
        for value, cdf in zip(x, mp.cdf(x)):
            assert abs(mixture_cdf(prior, 0.0, se, float(value)) - cdf) <= 1e-9

    @pytest.mark.parametrize("prior", TINY_SE_PRIORS, ids=lambda prior: prior.spec_string())
    def test_tau_scales_beyond_the_layout_are_a_typed_error(self, prior):
        with pytest.raises(MapPriorError):
            MapPrior.from_study(StudyEstimate(0.0, 1e-100), prior).density(0.0)

    def test_offset_of_many_source_ses_is_a_typed_error(self, hn05):
        # 1e140 is within MAX_REACH, but its square over 1e-300 overflows
        with pytest.raises(QuadratureError, match="out of reach"):
            MapPrior(0.0, 1e-300, hn05).density(1e140)

    def test_rule_is_not_part_of_equality(self, hn05):
        a = MapPrior(0.0, 0.2, hn05)
        b = MapPrior(0.0, 0.2, hn05)
        a.density(1.0)
        assert a == b and hash(a) == hash(b)
        assert "rule" not in repr(a)


class TestHeavyTailedQuantiles:
    """Mixtures whose tau tail the unit-interval map could not reach."""

    @pytest.mark.parametrize("family,scale,shape,se", [
        ("lomax", "match", 0.5, 0.451),
        ("lomax", "match", 0.8, 0.451),
        ("lomax", "match", 1.02, 0.451),
        ("lomax", "match", 1.2, 0.451),
        ("half-student-t", 0.3, 0.3, 0.45),
        ("lomax", 0.3, 0.2, 0.45),
    ])
    def test_quantiles_against_scipy_oracle(self, family, scale, shape, se):
        if scale == "match":
            scale = scale_for_median(family, common_median(), shape)
        prior = make_prior(family, scale, shape)
        p = np.array([5e-7, 0.005, 0.025, 0.5, 0.975, 0.995, 1.0 - 5e-7])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            row = prior_comparison_table(se, [prior], uisd(70, se))[0]
            q = MapPrior(0.0, se ** 2, prior).quantiles(p)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert math.isfinite(row["ess_elir"]) and row["ess_elir"] > 0.0
        pairs = list(zip(p, q)) + [(float(level), value)
                                   for level, value in row["quantiles"].items()]
        for prob, value in pairs:
            assert abs(mixture_cdf(prior, 0.0, se, float(value)) - prob) <= 1e-8
