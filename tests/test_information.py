"""Unit-information standard deviations and local-information sample sizes."""

import numpy as np
import pytest

from conftest import normal_pdf, table2_priors
from mapprior import (
    EssInstabilityError,
    InvalidParameterError,
    MapPrior,
    ess_elir,
    ess_for_map_prior,
    ess_table,
    make_prior,
    uisd,
)
from mapprior.information import _expectation, _panel_edges, _probability_ladder
from mapprior.quadrature import panel_nodes


class TestUisd:
    def test_heart_failure_value(self):
        assert uisd(3445, 0.077) == pytest.approx(4.5, abs=0.05)

    def test_alport_value(self):
        assert uisd(70, 0.451) == pytest.approx(3.77, abs=0.01)

    def test_single_patient(self):
        assert uisd(1, 0.473) == pytest.approx(0.473, rel=1e-15)

    @pytest.mark.parametrize("n,se", [(0, 0.1), (-3, 0.1), (10, 0.0), (10, -1.0)])
    def test_rejects_invalid(self, n, se):
        with pytest.raises(InvalidParameterError):
            uisd(n, se)


class TestNormalIdentity:
    @pytest.mark.parametrize("sd", [0.05, 0.2, 1.0, 5.0])
    def test_ess_is_squared_ratio(self, sd):
        density = lambda x: normal_pdf(x, 0.3, sd)
        value = ess_elir(density, (0.3 - 6 * sd, 0.3 + 6 * sd), 2.0)
        assert value == pytest.approx((2.0 / sd) ** 2, rel=1e-3)

    def test_scale_consistency(self):
        density = lambda x: normal_pdf(x, 0.0, 0.7)
        base = ess_elir(density, (-5.0, 5.0), 1.3)
        scaled = ess_elir(density, (-5.0, 5.0), 2.6)
        assert scaled == pytest.approx(4.0 * base, rel=1e-12)

    def test_rejects_bad_uisd(self):
        density = lambda x: normal_pdf(x, 0.0, 1.0)
        with pytest.raises(InvalidParameterError):
            ess_elir(density, (-6.0, 6.0), 0.0)


class TestMapPriors:
    def test_heart_failure_ess(self, topcat):
        mp = MapPrior.from_study(topcat, make_prior("half-normal", 0.25))
        value = ess_for_map_prior(mp, uisd(topcat.n, topcat.se))
        assert value == pytest.approx(399.0, abs=2.0)

    def test_heart_failure_ess_with_rounded_uisd(self, topcat):
        mp = MapPrior.from_study(topcat, make_prior("half-normal", 0.25))
        assert ess_for_map_prior(mp, 4.5) == pytest.approx(399.0, abs=2.0)

    def test_alport_ess(self, alport_source, hn05):
        mp = MapPrior.from_study(alport_source, hn05)
        value = ess_for_map_prior(mp, uisd(alport_source.n, alport_source.se))
        assert value == pytest.approx(26.6, rel=0.02)

    def test_table_preserves_order_and_values(self):
        base = 0.451 ** 2
        priors = [MapPrior(0.0, base, make_prior("half-normal", s)) for s in (0.5, 0.25)]
        values = ess_table(priors, uisd(70, 0.451))
        assert values[0] == pytest.approx(26.6, abs=max(0.5, 0.02 * 26.6))
        assert values[1] == pytest.approx(45.7, abs=max(0.5, 0.02 * 45.7))
        assert values[1] > values[0]

    def test_single_row(self):
        mp = MapPrior(0.0, 0.451 ** 2, make_prior("half-normal", 0.25))
        assert ess_table([mp], uisd(70, 0.451))[0] == pytest.approx(45.7, abs=0.92)

    def test_empty_list(self):
        assert ess_table([], 3.0) == []

    @pytest.mark.parametrize("prior", table2_priors(), ids=lambda p: p.spec_string())
    def test_analytic_information_matches_stencil(self, prior):
        # the Richardson stencil route of ess_elir, on the same panels
        mp = MapPrior(0.0, 0.451 ** 2, prior)
        lo, hi = mp.quantiles(np.array([5e-7, 1.0 - 5e-7]))
        stencil = ess_elir(mp.density, (lo, hi), uisd(70, 0.451), quantile=mp.quantiles)
        assert ess_for_map_prior(mp, uisd(70, 0.451)) == pytest.approx(stencil, rel=1e-5)

    def test_one_quantile_inversion(self, monkeypatch):
        calls = []
        inverse = MapPrior.quantiles

        def counting(self, p):
            calls.append(np.size(p))
            return inverse(self, p)

        monkeypatch.setattr(MapPrior, "quantiles", counting)
        mp = MapPrior(0.0, 0.451 ** 2, make_prior("half-normal", 0.5))
        ess_for_map_prior(mp, uisd(70, 0.451))
        assert calls == [33]
        ess_elir(mp.density, (-6.0, 6.0), 3.77, quantile=mp.quantiles)
        assert calls == [33, 33]

    def test_heavy_tailed_midpoint_is_stable(self):
        # finite ESS despite infinite variance
        mp = MapPrior(0.0, 0.451 ** 2, make_prior("half-cauchy", 0.34))
        value = ess_for_map_prior(mp, uisd(70, 0.451))
        assert 10.0 < value < 50.0


class TestSymmetricHalf:
    @pytest.mark.parametrize("prior", table2_priors() + [make_prior("uniform", 0.7)],
                             ids=lambda p: p.spec_string())
    def test_upper_half_gives_the_full_ladder_expectation(self, monkeypatch, prior):
        # the density and curvature are even about the location, the ladder's median
        mp = MapPrior(-0.4, 0.451 ** 2, prior)
        nodes, weights = panel_nodes(_panel_edges(mp.quantiles(_probability_ladder())), 24)
        p, curvature = mp._density_and_curvature(nodes)
        full = _expectation(weights, p, -curvature, 3.77)
        points = []
        evaluate = MapPrior._density_and_curvature

        def counting(self, theta):
            points.append(np.size(theta))
            return evaluate(self, theta)

        monkeypatch.setattr(MapPrior, "_density_and_curvature", counting)
        assert ess_for_map_prior(mp, 3.77) == pytest.approx(full, rel=1e-13)
        assert points == [384]


class TestCurvatureAgreement:
    def test_finite_difference_matches_analytic(self, alport_source, hn05):
        mp = MapPrior.from_study(alport_source, hn05)
        pts = mp.location + np.linspace(-2.4, 2.4, 20)
        analytic = mp.log_density_curvature(pts)
        q = mp.quantiles(np.array([0.025, 0.975]))
        h = 1e-3 * (q[1] - q[0]) / 4.0
        offsets = np.array([0.0, -h, h, -h / 2.0, h / 2.0])
        logp = np.log(mp.density(pts[None, :] + offsets[:, None]))
        coarse = (logp[1] - 2.0 * logp[0] + logp[2]) / h ** 2
        fine = (logp[3] - 2.0 * logp[0] + logp[4]) / (h / 2.0) ** 2
        np.testing.assert_allclose((4.0 * fine - coarse) / 3.0, analytic, rtol=1e-4)


class TestInstability:
    def test_log_convex_density_raises(self):
        # log p = -sqrt|x| is convex away from 0: local information is
        # negative over essentially all mass, so the expectation must be
        # rejected rather than reported
        z = 4.0  # integral of exp(-sqrt|x|) over the line

        def density(x):
            return np.exp(-np.sqrt(np.abs(x))) / z

        with pytest.raises(EssInstabilityError) as exc:
            ess_elir(density, (-400.0, 400.0), 1.0)
        assert exc.value.negative_mass > 0.5
