"""Tests of the benchmark's reference routes and output checks.

    python3 -m pytest -q benchmark/test_reference.py

The reference routes (``oracle.py``) must reproduce closed forms, and every
output check (``checks.py``) must pass mapprior's real output and reject the
same output perturbed by a little more than the program's accuracy.
"""

from __future__ import annotations

import copy
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import checks  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402

SPECS = [
    ("half-normal", 0.5, None),
    ("half-student-t", 0.4, 4.0),
    ("half-cauchy", 0.3, None),
    ("half-logistic", 0.3, None),
    ("exponential", 0.5, None),
    ("lomax", 2.7, 6.0),
    ("lomax", 0.3, 1.0),
    ("uniform", 0.7, None),
]

#: E[tau^2] / scale^2 per family, None where it diverges
SECOND_MOMENT = {
    "half-normal": lambda shape: 1.0,
    "half-student-t": lambda nu: nu / (nu - 2.0) if nu > 2.0 else None,
    "half-cauchy": lambda shape: None,
    "half-logistic": lambda shape: math.pi ** 2 / 3.0,
    "exponential": lambda shape: 2.0,
    "lomax": lambda a: 2.0 / ((a - 1.0) * (a - 2.0)) if a > 2.0 else None,
    "uniform": lambda shape: 1.0 / 3.0,
}


# -- reference routes ------------------------------------------------------


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s[0])
def test_upper_quantile_matches_scipy_stats(spec):
    v = np.array([0.9, 0.5, 0.1, 1e-3])
    ours = [oracle.upper_quantile(spec)(x) for x in v]
    np.testing.assert_allclose(ours, oracle.scipy_tau(spec).ppf(1.0 - v), rtol=1e-9)


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s[0])
def test_second_moment_and_sd_closed_forms(spec):
    family, scale, shape = spec
    factor = SECOND_MOMENT[family](shape)
    s1 = 0.451
    if factor is None:
        assert oracle.tail_index(spec) <= 2.0
        assert oracle.mixture_sd(spec, s1) is None
        return
    assert oracle.tail_index(spec) > 2.0
    assert oracle.tau_second_moment(spec) == pytest.approx(factor * scale ** 2, rel=1e-9)
    assert oracle.mixture_sd(spec, s1) == pytest.approx(
        math.sqrt(s1 ** 2 + 2.0 * factor * scale ** 2), rel=1e-9)


@pytest.mark.parametrize("family", [s[0] for s in SPECS[:6]] + ["uniform"])
def test_mixture_tends_to_the_source_normal(family):
    """As the tau prior's scale goes to 0 the mixture is Normal(y1, s1^2)."""
    shape = {"half-student-t": 4.0, "lomax": 6.0}.get(family)
    spec = (family, 1e-9, shape)
    y1, s1 = -0.3, 0.45
    for x in (-1.5, -0.3, 0.2, 1.1):
        assert oracle.mixture_cdf(spec, y1, s1, x) == pytest.approx(
            stats.norm.cdf(x, y1, s1), rel=1e-9, abs=1e-14)
        assert oracle.mixture_density(spec, y1, s1, x) == pytest.approx(
            stats.norm.pdf(x, y1, s1), rel=1e-9)


def test_uniform_mixture_matches_quadrature_over_tau():
    """Under uniform(0, s) the mixture CDF is the average of normal CDFs over
    tau in [0, s]: integrate that directly in tau."""
    from scipy.integrate import quad
    spec = ("uniform", 1.3, None)
    y1, s1, x = 0.2, 0.5, 1.4
    direct, _ = quad(lambda t: stats.norm.cdf(x, y1, math.sqrt(s1 ** 2 + 2 * t * t)) / 1.3,
                     0.0, 1.3, epsabs=1e-13)
    assert oracle.mixture_cdf(spec, y1, s1, x) == pytest.approx(direct, abs=1e-12)


def test_joint_posterior_without_heterogeneity_is_the_pooled_normal():
    spec = ("half-normal", 1e-9, None)
    y1, s1, y2, s2 = -0.63, 0.45, -0.67, 0.74
    w1, w2 = 1.0 / s1 ** 2, 1.0 / s2 ** 2
    mean, sd = (w1 * y1 + w2 * y2) / (w1 + w2), math.sqrt(1.0 / (w1 + w2))
    joint = oracle.JointPosterior(spec, y1, s1, y2, s2)
    for x in (-1.2, mean, 0.0):
        assert joint.cdf(x) == pytest.approx(stats.norm.cdf(x, mean, sd), rel=1e-9)
        assert joint.density(x) == pytest.approx(stats.norm.pdf(x, mean, sd), rel=1e-9)


def test_joint_posterior_normalizes():
    from scipy.integrate import quad
    joint = oracle.JointPosterior(("half-cauchy", 0.3, None), 0.5, 0.3, -0.4, 0.6)
    mass, _ = quad(joint.density, -np.inf, np.inf, epsabs=1e-12)
    assert mass == pytest.approx(1.0, abs=1e-8)


def test_a0_density_normalizes():
    from scipy.integrate import quad
    spec = ("half-normal", 0.5, None)
    # a0 = z^2 and a0 = 1 - w^2 absorb the endpoint singularities
    lo, _ = quad(lambda z: oracle.a0_density(spec, 0.451, z * z) * 2 * z, 1e-9, math.sqrt(0.5))
    hi, _ = quad(lambda w: oracle.a0_density(spec, 0.451, 1 - w * w) * 2 * w, 1e-9, math.sqrt(0.5))
    assert lo + hi == pytest.approx(1.0, abs=1e-6)


def test_log_ratio_ci_alport():
    y, se = oracle.log_ratio_ci(0.53, 0.22, 1.29)
    assert y == pytest.approx(math.log(0.53))
    assert se == pytest.approx(0.45122, abs=1e-5)


# -- the checks pass real output and reject perturbed output ---------------


def _first_round(workload, out_dir):
    return workloads.make_round(workload, 0, 0, str(out_dir))


@pytest.fixture(scope="module")
def table_row():
    op = _first_round("design_table", ".")[0]      # half-normal(0.5), Table 2
    return op.params, op.call()


def test_table_row_check_passes_and_rejects(table_row):
    params, row = table_row
    assert checks.check_table_row(params, row) == []

    shifted = copy.deepcopy(row)
    shifted["quantiles"]["0.975"] += 1e-4
    assert any("quantile 0.975" in f for f in checks.check_table_row(params, shifted))

    wrong_sd = dict(row, sd=row["sd"] * (1 + 1e-6))
    assert any("sd" in f for f in checks.check_table_row(params, wrong_sd))

    infinite_sd = dict(row, sd=None)
    assert any("finite" in f for f in checks.check_table_row(params, infinite_sd))

    too_much = dict(row, ess_elir=71.0)     # (uisd / s1)^2 = 70 patients
    assert any("ESS" in f for f in checks.check_table_row(params, too_much))


@pytest.fixture(scope="module")
def alport_report():
    op = _first_round("borrowing_report", ".")[0]    # Alport, half-normal(0.5)
    return op.params, op.call()


@pytest.mark.parametrize("path", [
    ("shrinkage", "median", "log"),
    ("shrinkage", "intervals", 0, "lower", "log"),
    ("shrinkage", "intervals", 0, "upper", "log"),
    ("map_prior", "intervals", 0, "upper", "log"),
    ("map_prior", "intervals", 0, "lower", "log"),
])
def test_report_check_rejects_a_shifted_quantile(alport_report, path):
    params, report = alport_report
    assert checks.check_report(params, report) == []
    shifted = copy.deepcopy(report)
    node = shifted
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] += 1e-4
    node["ratio"] = math.exp(node["log"])
    assert checks.check_report(params, shifted) != []


def test_report_check_rejects_probabilities(alport_report):
    params, report = alport_report
    for block in ("map_prior", "shrinkage"):
        wrong = copy.deepcopy(report)
        wrong[block]["prob_below_zero"] += 1e-4
        assert any("P(<0)" in f for f in checks.check_report(params, wrong))


@pytest.fixture(scope="module")
def routes():
    op = _first_round("route_agreement", ".")[0]
    return op.params, op.call()


@pytest.mark.parametrize("route", ["shrinkage", "mac", "reference"])
def test_route_check_rejects_a_scaled_density(routes, route):
    params, output = routes
    assert checks.check_routes(params, workloads.digest_routes(output)) == []
    post = output[route]
    scaled = dict(output)
    scaled[route] = type(post)(grid=post.grid, density=post.density * 1.001,
                               source_map=post.source_map, target=post.target)
    failures = checks.check_routes(params, workloads.digest_routes(scaled))
    assert any(f"{route}: mass" in f for f in failures)
    assert any(f"{route}: P(<0)" in f for f in failures)
    assert any(f"{route}: peak density" in f for f in failures)


@pytest.fixture(scope="module")
def grid_round(tmp_path_factory):
    ops = _first_round("grid_export", tmp_path_factory.mktemp("grid"))
    for op in ops:
        assert op.call() == 0
    return ops


def test_grid_round_passes(grid_round):
    assert checks.check_grid_round(grid_round) == []


@pytest.mark.parametrize("kind", ["map-density", "map-cdf", "a0-density", "tau-density"])
def test_grid_check_rejects_a_scaled_row(grid_round, kind):
    op = next(o for o in grid_round if o.kind == kind)
    table = checks.read_tsv(op.params["path"])
    sample = 5
    assert checks.check_grid(kind, op.params, table, sample) == []
    table[sample, 1] *= 1.001
    assert checks.check_grid(kind, op.params, table, sample) != []


def test_grid_check_rejects_missing_rows_and_non_monotone_cdf(grid_round):
    op = next(o for o in grid_round if o.kind == "map-cdf")
    table = checks.read_tsv(op.params["path"])
    assert checks.check_grid("map-cdf", op.params, table[:-1], 0) != []
    bumped = table.copy()
    bumped[50, 1] = bumped[49, 1] - 1e-6
    assert any("monotone" in f for f in checks.check_grid("map-cdf", op.params, bumped, 0))


def test_log_pair_check_rejects_a_wrong_log(grid_round):
    density = checks.read_tsv(next(o for o in grid_round if o.kind == "map-density").params["path"])
    log_density = checks.read_tsv(
        next(o for o in grid_round if o.kind == "map-log-density").params["path"])
    assert checks.check_log_pair(density, log_density) == []
    log_density[7, 1] += 1e-6
    assert checks.check_log_pair(density, log_density) != []


def test_convert_check_rejects_a_wrong_se(grid_round):
    op = next(o for o in grid_round if o.kind == "convert")
    text = Path(op.params["path"]).read_text(encoding="utf-8")
    assert checks.check_convert(op.params, text) == []
    assert checks.check_convert(op.params, text.replace('"se": 0.45', '"se": 0.46')) != []


def test_failed_operations_are_counted_not_fatal(monkeypatch):
    """An exception or a usage-error exit fails one operation, not the run."""
    import run

    def exits():
        raise SystemExit(1)

    def raises():
        raise ValueError("bad input")

    ops = [workloads.Op(0, "exits", {}, exits), workloads.Op(0, "raises", {}, raises),
           workloads.Op(0, "works", {}, lambda: {"row": 1})]
    monkeypatch.setattr(workloads, "make_round", lambda *args: ops)
    attempted, done, failures, _ = run.run_rounds("design_table", 0, 1e-9, ".")
    assert [op.kind for op in attempted] == ["exits", "raises", "works"]
    assert [op.kind for op in done] == ["works"]
    assert len(failures) == 2
