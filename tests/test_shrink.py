"""Two-study shrinkage: golden values, limits, and the joint-model oracle."""

import math

import numpy as np
import pytest
from scipy.special import ndtr, ndtri

from conftest import (_posterior_weight_span, normal_pdf, posterior_cdf, posterior_density,
                      trapezoid_summary)
from mapprior import (
    InvalidParameterError,
    MapPrior,
    QuadratureError,
    ShrinkagePosterior,
    StudyEstimate,
    mac_oracle,
    make_prior,
    parse_ratio_ci,
    posterior_summary,
    reference_model_posterior,
    shrinkage_posterior,
    width_ratio,
)
from mapprior import mixture, shrink
from mapprior.report import run_map_report
from mapprior.shrink import GRID_POINTS, posterior_mixture, posterior_summaries

FAMILY_POOL = [
    ("half-normal", False),
    ("half-student-t", True),
    ("half-cauchy", False),
    ("half-logistic", False),
    ("exponential", False),
    ("lomax", True),
    ("uniform", False),
]


ALPORT_SOURCE = StudyEstimate(*parse_ratio_ci(0.53, 0.22, 1.29), label="observational")
ALPORT_TARGET = StudyEstimate(*parse_ratio_ci(0.51, 0.12, 2.20), label="RCT")
HN05 = make_prior("half-normal", 0.5)

#: (source, target, prior) problems checked against the scipy-quad oracle:
#: estimates 1500 target SEs apart, source/target SE ratios over six orders
#: of magnitude, and heavy-tailed priors on the Alport example
ORACLE_CASES = {
    "far-apart-tiny-ses": (StudyEstimate(0.0, 1e-4), StudyEstimate(0.3, 2e-4),
                           make_prior("half-normal", 2.0)),
    **{f"se-ratio-{r:g}": (StudyEstimate(-0.2, 0.4 * r), StudyEstimate(0.5, 0.4), HN05)
       for r in (1e-3, 1.0, 1e3)},
    "alport-half-cauchy": (ALPORT_SOURCE, ALPORT_TARGET, make_prior("half-cauchy", 0.3)),
    "alport-lomax": (ALPORT_SOURCE, ALPORT_TARGET, make_prior("lomax", 1.0, 0.337)),
}


def random_instance(rng):
    y1, y2 = rng.uniform(-2.0, 2.0, size=2)
    s1, s2 = rng.uniform(0.05, 1.5, size=2)
    family, takes_shape = FAMILY_POOL[rng.integers(len(FAMILY_POOL))]
    shape = float(rng.uniform(0.5, 8.0)) if takes_shape else None
    prior = make_prior(family, float(rng.uniform(0.05, 2.0)), shape)
    source = StudyEstimate(y=float(y1), se=float(s1), label="source")
    target = StudyEstimate(y=float(y2), se=float(s2), label="target")
    return source, target, prior


class TestAlportGolden:
    def test_hazard_ratio_summary(self, alport_source, alport_target, hn05):
        post = shrinkage_posterior(alport_source, alport_target, hn05)
        summary = posterior_summary(post, 0.95)
        assert math.exp(summary.median) == pytest.approx(0.52, abs=0.01)
        assert math.exp(summary.lower) == pytest.approx(0.19, abs=0.01)
        assert math.exp(summary.upper) == pytest.approx(1.39, abs=0.01)

    def test_log_scale_summary(self, alport_source, alport_target, hn05):
        post = shrinkage_posterior(alport_source, alport_target, hn05)
        summary = posterior_summary(post, 0.95)
        assert summary.median == pytest.approx(math.log(0.52), abs=0.02)

    def test_interval_width_ratio(self, alport_source, alport_target, hn05):
        post = shrinkage_posterior(alport_source, alport_target, hn05)
        assert width_ratio(post, alport_target, 0.95) == pytest.approx(0.67, abs=0.01)

    def test_prob_below_zero_matches_quad_oracle(self, alport_source,
                                                 alport_target, hn05):
        post = shrinkage_posterior(alport_source, alport_target, hn05)
        summary = posterior_summary(post)
        assert summary.prob_below_zero == pytest.approx(
            posterior_cdf(hn05, alport_source, alport_target, 0.0), abs=1e-7)


class TestPosteriorObject:
    def test_normalized_and_covering(self, alport_source, alport_target, hn05):
        post = shrinkage_posterior(alport_source, alport_target, hn05)
        assert np.trapezoid(post.density, post.grid) == pytest.approx(1.0, abs=1e-6)
        assert np.all(np.diff(post.grid) > 0.0)
        # edge densities are negligible, so the grid holds >= 0.99999 mass
        assert max(post.density[0], post.density[-1]) < 1e-10 * post.density.max()

    def test_symmetric_case_median_at_center(self, hn05):
        a = StudyEstimate(y=0.3, se=0.4)
        b = StudyEstimate(y=0.3, se=0.4)
        summary = posterior_summary(shrinkage_posterior(a, b, hn05))
        assert summary.median == pytest.approx(0.3, abs=1e-9)

    def test_built_from_its_fields_summarizes_like_the_route(self, alport_source,
                                                             alport_target, hn05):
        # as the benchmark checks build one, without the route's mixture
        post = shrinkage_posterior(alport_source, alport_target, hn05)
        built = ShrinkagePosterior(grid=post.grid, density=post.density,
                                   source_map=post.source_map, target=post.target)
        assert built._mixture is None
        assert posterior_summary(built) == posterior_summary(post)
        assert built.mixture is built.mixture

    def test_invalid_level_rejected(self, alport_source, alport_target, hn05):
        post = shrinkage_posterior(alport_source, alport_target, hn05)
        with pytest.raises(InvalidParameterError):
            posterior_summary(post, 1.0)


class TestLimits:
    def test_flat_likelihood_returns_map_prior(self, alport_source, hn05):
        flat = StudyEstimate(y=0.0, se=1e6, label="flat")
        post = shrinkage_posterior(alport_source, flat, hn05)
        mp = MapPrior.from_study(alport_source, hn05)
        expected = mp.density(post.grid)
        assert np.max(np.abs(post.density - expected)) < 1e-6 * expected.max()

    def test_tiny_heterogeneity_gives_fixed_effect_pooling(self, alport_source,
                                                           alport_target):
        tiny = make_prior("uniform", 1e-8)
        post = shrinkage_posterior(alport_source, alport_target, tiny)
        w1 = 1.0 / alport_source.variance
        w2 = 1.0 / alport_target.variance
        mean = (alport_source.y * w1 + alport_target.y * w2) / (w1 + w2)
        sd = (w1 + w2) ** -0.5
        np.testing.assert_allclose(post.density, normal_pdf(post.grid, mean, sd),
                                   atol=1e-5)
        summary = posterior_summary(post)
        assert summary.median == pytest.approx(mean, abs=1e-5)
        assert summary.lower == pytest.approx(mean + ndtri(0.025) * sd, abs=1e-5)

    def test_huge_heterogeneity_disables_borrowing(self, alport_source, alport_target):
        ratio_lo = width_ratio(shrinkage_posterior(
            alport_source, alport_target, make_prior("uniform", 2e3)), alport_target)
        ratio_hi = width_ratio(shrinkage_posterior(
            alport_source, alport_target, make_prior("uniform", 2e4)), alport_target)
        assert ratio_lo > 0.9
        assert ratio_lo < ratio_hi < 1.0

    def test_flat_target_width_ratio_vanishes(self, alport_source, hn05):
        flat = StudyEstimate(y=0.0, se=1e6, label="flat")
        post = shrinkage_posterior(alport_source, flat, hn05)
        assert width_ratio(post, flat, 0.95) < 1e-4


class TestMacOracle:
    def test_matches_on_alport(self, alport_source, alport_target, hn05):
        post = shrinkage_posterior(alport_source, alport_target, hn05)
        mac = mac_oracle(alport_source, alport_target, hn05)
        np.testing.assert_array_equal(post.grid, mac.grid)
        assert np.max(np.abs(post.density - mac.density)) < 1e-4

    def test_agreement_strengthens_posterior(self, hn05):
        a = StudyEstimate(y=0.1, se=0.3)
        b = StudyEstimate(y=0.1, se=0.3)
        _, lower, upper, _, _ = trapezoid_summary(mac_oracle(a, b, hn05))
        width = upper - lower
        single = 2.0 * ndtri(0.975) * 0.3
        assert width < single

    def test_conflict_discounts_source(self, hn05):
        source = StudyEstimate(y=0.0, se=0.451)
        hc = make_prior("half-cauchy", 0.34)
        separation = 25.0 * math.sqrt(source.variance + 0.742 ** 2)
        target = StudyEstimate(y=separation, se=0.742)
        mean = trapezoid_summary(mac_oracle(source, target, hc))[4]
        assert abs(mean - target.y) < 0.1 * target.se

    def test_randomized_suite_small(self):
        rng = np.random.default_rng(2471)
        for _ in range(10):
            source, target, prior = random_instance(rng)
            post = shrinkage_posterior(source, target, prior)
            mac = mac_oracle(source, target, prior)
            assert np.max(np.abs(post.density - mac.density)) < 1e-4
            # dynamic borrowing: the posterior mean sits between the estimates
            lo, hi = sorted((source.y, target.y))
            assert lo - 1e-9 <= post.mixture.mean() <= hi + 1e-9

    def test_borrowing_monotone_in_conflict(self, hn05):
        source = StudyEstimate(y=0.0, se=0.451)
        shifts = [0.0, 0.5, 1.0, 2.0, 4.0, 8.0]
        pulls = []
        for shift in shifts:
            target = StudyEstimate(y=shift, se=0.742)
            post = shrinkage_posterior(source, target, hn05)
            pulls.append(target.y - post.mixture.mean())
        assert all(p >= -1e-9 for p in pulls)


@pytest.mark.parametrize("problem", [
    (ALPORT_SOURCE, ALPORT_TARGET, HN05),
    (StudyEstimate(0.4, 0.3), StudyEstimate(-0.5, 0.2), make_prior("lomax", 1.0, 0.7)),
], ids=["alport", "lomax-0.7"])
def test_oracles_read_the_grid_without_tabulating(problem, monkeypatch):
    grid = shrinkage_posterior(*problem).grid
    sizes = []
    density = mixture.NormalMixture.density

    def counting(self, theta):
        sizes.append(np.size(theta))
        return density(self, theta)

    monkeypatch.setattr(mixture.NormalMixture, "density", counting)
    for route in (mac_oracle, reference_model_posterior):
        np.testing.assert_array_equal(route(*problem).grid, grid)
    assert GRID_POINTS not in sizes


@pytest.mark.parametrize("case", list(ORACLE_CASES))
class TestQuadOracle:
    def test_summaries_agree_to_1e7_in_probability(self, case):
        source, target, prior = ORACLE_CASES[case]
        summary = posterior_summary(shrinkage_posterior(source, target, prior), 0.95)
        for x, level in ((summary.median, 0.5), (summary.lower, 0.025),
                         (summary.upper, 0.975)):
            assert posterior_cdf(prior, source, target, x) == pytest.approx(level, abs=1e-7)
        assert summary.prob_below_zero == pytest.approx(
            posterior_cdf(prior, source, target, 0.0), abs=1e-7)

    def test_tabulated_density_is_exact(self, case):
        source, target, prior = ORACLE_CASES[case]
        post = shrinkage_posterior(source, target, prior)
        for index in (0, 1000, 2000, 3000, -1):
            x = post.grid[index]
            assert post.density[index] == pytest.approx(
                posterior_density(prior, source, target, x), rel=1e-8)


def test_far_apart_tiny_ses_centre_on_the_target():
    """Two estimates 1500 target SEs apart under a wide prior: the target
    is all but unshrunk, and its interval is the likelihood's."""
    summary = posterior_summary(shrinkage_posterior(*ORACLE_CASES["far-apart-tiny-ses"]))
    assert summary.median == pytest.approx(0.3, abs=1e-6)
    assert summary.upper - summary.lower == pytest.approx(2 * ndtri(0.975) * 2e-4, rel=0.01)


def test_target_out_of_reach_is_a_typed_error():
    with pytest.raises(QuadratureError, match="out of reach"):
        posterior_mixture(MapPrior(0.0, 0.2, HN05), StudyEstimate(1e200, 1.0))


def test_stall_is_a_typed_error():
    # near 1e3 the float spacing moves the CDF by far more than 1e-8, and
    # each pass reads the tail at the point it would return
    study = StudyEstimate(1e3, 1e-12)
    post = posterior_mixture(MapPrior.from_study(study, make_prior("uniform", 1e-14)), study)
    with pytest.raises(QuadratureError, match="stalled") as caught:
        post.quantiles([0.3])
    assert caught.value.achieved > 1e-8


@pytest.mark.parametrize("prior", [HN05, make_prior("half-cauchy", 0.3),
                                   make_prior("lomax", 1.0, 0.337)],
                         ids=lambda prior: prior.spec_string())
def test_pass_count_per_summary(prior, monkeypatch):
    passes = []
    reduce = mixture.NormalMixture._reduce

    def counting_reduce(self, x, lower=None):
        if lower is not None:
            passes.append(np.size(x))
        return reduce(self, x, lower)

    post = posterior_mixture(MapPrior.from_study(ALPORT_SOURCE, prior), ALPORT_TARGET)
    monkeypatch.setattr(mixture.NormalMixture, "_reduce", counting_reduce)
    posterior_summaries(post, [0.8, 0.95, 0.99])
    assert 1 <= len(passes) <= 8


def _count_rule_builds(monkeypatch) -> list[str]:
    """Record every tau rule build, by the module that asked for it."""
    builds = []
    for module in (mixture, shrink):
        build = module.mixing_rule

        def counting(*args, _build=build, _name=module.__name__):
            builds.append(_name)
            return _build(*args)

        monkeypatch.setattr(module, "mixing_rule", counting)
    return builds


#: the Alport example's three reference priors
ALPORT_PRIORS = [HN05, make_prior("half-cauchy", 0.3), make_prior("lomax", 1.0, 0.337)]


@pytest.mark.parametrize("prior", ALPORT_PRIORS, ids=lambda prior: prior.spec_string())
def test_report_builds_one_rule(prior, monkeypatch):
    builds = _count_rule_builds(monkeypatch)
    source = StudyEstimate(ALPORT_SOURCE.y, ALPORT_SOURCE.se, n=70)
    run_map_report(source, prior, ALPORT_TARGET, levels=(0.8, 0.95, 0.99))
    assert builds == ["mapprior.mixture"]


def _assert_agrees_with_quad_oracle(post, source, target, prior):
    """The median and the 95% bounds to 1e-9 in probability, and the density
    there to 1e-9 relative."""
    summary = posterior_summaries(post, [0.95])[0]
    for x, level in ((summary.median, 0.5), (summary.lower, 0.025), (summary.upper, 0.975)):
        assert posterior_cdf(prior, source, target, x) == pytest.approx(level, abs=1e-9)
        assert float(post.density(x)) == pytest.approx(
            posterior_density(prior, source, target, x), rel=1e-9)


#: (source, target) pairs whose posterior lies on the prior's own rule: the
#: Alport pair (s2 > s1, the posterior's own layout had the same nodes) and
#: one with s2 < s1 (its own layout had other nodes)
PRIOR_RULE_CASES = {
    "alport": (ALPORT_SOURCE, ALPORT_TARGET),
    "s2-below-s1": (StudyEstimate(-0.4, 0.45), StudyEstimate(-0.6, 0.3)),
}


@pytest.mark.parametrize("prior", ALPORT_PRIORS, ids=lambda prior: prior.spec_string())
@pytest.mark.parametrize("case", list(PRIOR_RULE_CASES))
def test_posterior_on_the_prior_rule_matches_quad_oracle(case, prior, monkeypatch):
    source, target = PRIOR_RULE_CASES[case]
    builds = _count_rule_builds(monkeypatch)
    post = posterior_mixture(MapPrior.from_study(source, prior), target)
    assert builds == ["mapprior.mixture"]
    _assert_agrees_with_quad_oracle(post, source, target, prior)


#: conflicts whose target lies where the MAP density is below 1e-12 of its
#: peak, so the posterior builds and checks its own rule: two it refuses,
#: and one it solves (z = 6.7)
CONFLICTS = {
    "exponential-refused": (StudyEstimate(1.85, 0.1), StudyEstimate(-0.07, 0.005),
                            make_prior("exponential", 0.0025)),
    "half-normal-refused": (StudyEstimate(1.5, 0.1), StudyEstimate(-1.86, 0.036),
                            make_prior("half-normal", 0.005)),
    "half-normal-solved": (StudyEstimate(0.0, 0.0805), StudyEstimate(0.966, 0.120),
                           make_prior("half-normal", 0.00144)),
}


@pytest.mark.parametrize("case", [c for c in CONFLICTS if c.endswith("refused")])
def test_conflict_keeps_its_own_check_and_refusal(case, monkeypatch):
    source, target, prior = CONFLICTS[case]
    builds = _count_rule_builds(monkeypatch)
    with pytest.raises(QuadratureError, match="disagrees with its refined copy"):
        posterior_mixture(MapPrior.from_study(source, prior), target)
    assert builds == ["mapprior.mixture", "mapprior.shrink"]


def test_solvable_conflict_matches_widened_oracle(monkeypatch):
    source, target, prior = CONFLICTS["half-normal-solved"]
    builds = _count_rule_builds(monkeypatch)
    post = posterior_mixture(MapPrior.from_study(source, prior), target)
    assert builds == ["mapprior.mixture", "mapprior.shrink"]
    _assert_agrees_with_quad_oracle(post, source, target, prior)


@pytest.mark.parametrize("case", [c for c in CONFLICTS if c.endswith("refused")])
def test_widened_oracle_on_refused_conflicts(case):
    """There the tau weight tau p(tau) N(y2; y1, s1^2 + s2^2 + 2 tau^2) peaks
    beyond the prior's upper 1e-15 quantile, where the oracle's range used to
    end; it now agrees with a dense trapezoidal rule in log tau."""
    source, target, prior = CONFLICTS[case]
    lo, mode, hi = _posterior_weight_span(prior, source, target)
    assert lo < mode < hi and mode > float(prior.quantile(1.0 - 1e-15))
    s = np.linspace(math.log(1e-8), math.log(50.0), 100_001)
    tau = np.exp(s)
    a, v2 = source.variance + 2.0 * tau * tau, target.variance
    with np.errstate(divide="ignore"):
        log_weight = (np.log(prior.density(tau)) + s - 0.5 * np.log(a + v2)
                      - 0.5 * (target.y - source.y) ** 2 / (a + v2))
    weight = np.exp(log_weight - log_weight.max())
    mean, sd = (source.y * v2 + target.y * a) / (a + v2), np.sqrt(a * v2 / (a + v2))
    for x in (target.y, mean[np.argmax(weight)]):
        dense = np.trapezoid(weight * ndtr((x - mean) / sd), s) / np.trapezoid(weight, s)
        assert posterior_cdf(prior, source, target, x) == pytest.approx(dense, abs=1e-12)
