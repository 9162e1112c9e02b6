"""Report orchestration: golden workflows, determinism, dual-scale fields."""

import json
import math

import numpy as np
import pytest

from mapprior import (ConfigurationError, InvalidParameterError, MapPrior, StudyEstimate,
                      ess_for_map_prior, make_prior, prior_comparison_table, run_map_report)
from mapprior import report as report_module
from mapprior.information import _probability_ladder
from mapprior.report import render_json, render_report_tsv, render_table_tsv


def _walk_log_ratio_pairs(node):
    if isinstance(node, dict):
        if set(node) == {"log", "ratio"}:
            yield node["log"], node["ratio"]
        else:
            for value in node.values():
                yield from _walk_log_ratio_pairs(value)
    elif isinstance(node, list):
        for value in node:
            yield from _walk_log_ratio_pairs(value)


@pytest.fixture(scope="module")
def hf_report(topcat):
    return run_map_report(topcat, make_prior("half-normal", 0.25))


@pytest.fixture(scope="module")
def alport_report(alport_source, alport_target, hn05):
    return run_map_report(alport_source, hn05, target=alport_target)


class TestHeartFailureReport:
    @pytest.fixture
    def report(self, hf_report):
        return hf_report

    def test_map_summary_values(self, report):
        block = report["map_prior"]
        assert block["sd_log"] == pytest.approx(0.362, abs=0.002)
        interval = block["intervals"][0]
        assert interval["lower"]["log"] == pytest.approx(-0.899, abs=0.003)
        assert interval["upper"]["log"] == pytest.approx(0.665, abs=0.003)
        assert block["prob_below_zero"] == pytest.approx(0.71, abs=0.005)
        assert block["uisd"] == pytest.approx(4.5, abs=0.05)
        assert block["ess_elir"] == pytest.approx(399.0, abs=2.0)

    def test_ratio_fields_are_exponentials(self, report):
        pairs = list(_walk_log_ratio_pairs(report))
        assert pairs
        for log_value, ratio_value in pairs:
            assert ratio_value == pytest.approx(math.exp(log_value), rel=1e-11)

    def test_no_shrinkage_section_without_target(self, report):
        assert report["shrinkage"] is None

    def test_serialization_round_trips(self, report):
        text = render_json(report)
        assert json.loads(text) == report

    def test_byte_identical_reruns(self, topcat):
        prior = make_prior("half-normal", 0.25)
        a = render_json(run_map_report(topcat, prior))
        b = render_json(run_map_report(topcat, prior))
        assert a == b


class TestAlportReport:
    @pytest.fixture
    def report(self, alport_report):
        return alport_report

    def test_shrinkage_summary(self, report):
        block = report["shrinkage"]
        assert block["median"]["ratio"] == pytest.approx(0.52, abs=0.01)
        interval = block["intervals"][0]
        assert interval["lower"]["ratio"] == pytest.approx(0.19, abs=0.01)
        assert interval["upper"]["ratio"] == pytest.approx(1.39, abs=0.01)
        assert interval["width_ratio"] == pytest.approx(0.67, abs=0.01)

    def test_map_summary(self, report):
        block = report["map_prior"]
        assert block["sd_log"] == pytest.approx(0.84, abs=0.01)
        assert block["ess_elir"] == pytest.approx(26.6, rel=0.02)

    def test_inputs_echoed(self, report, alport_source, alport_target):
        assert report["inputs"]["source"]["label"] == alport_source.label
        assert report["inputs"]["source"]["n"] == 70
        assert report["inputs"]["target"]["label"] == alport_target.label
        assert report["inputs"]["tau_prior"]["spec"] == "half-normal(0.5)"

    def test_echoed_levels_keep_12_digits(self, alport_source, alport_target, hn05):
        report = run_map_report(alport_source, hn05, target=alport_target,
                                levels=[0.123456789012345678, 0.95])
        assert report["inputs"]["interval_levels"] == [0.123456789012, 0.95]
        for block in (report["map_prior"], report["shrinkage"]):
            assert [i["level"] for i in block["intervals"]] == [0.123456789012, 0.95]
        assert "0.123456789012," in render_json(report)


class TestConfiguration:
    def test_missing_uisd_source_rejected(self, hn05):
        from mapprior import StudyEstimate
        bare = StudyEstimate(y=-0.1, se=0.3)
        with pytest.raises(ConfigurationError):
            run_map_report(bare, hn05)

    def test_uisd_override_accepted(self, hn05):
        from mapprior import StudyEstimate
        bare = StudyEstimate(y=-0.1, se=0.3)
        report = run_map_report(bare, hn05, uisd_override=2.5)
        assert report["map_prior"]["uisd"] == pytest.approx(2.5)

    def test_multiple_levels(self, topcat):
        report = run_map_report(topcat, make_prior("half-normal", 0.25),
                                levels=(0.5, 0.95))
        levels = [iv["level"] for iv in report["map_prior"]["intervals"]]
        assert levels == [0.5, 0.95]

    def test_levels_solved_together_match_per_level_solves(self, alport_source, hn05,
                                                           monkeypatch):
        monkeypatch.setattr(report_module, "round12", float)    # the unrounded bounds
        levels = (0.5, 0.8, 0.95, 0.99, 0.999)
        report = run_map_report(alport_source, hn05, levels=levels)
        mp = MapPrior.from_study(alport_source, hn05)
        for level, interval in zip(levels, report["map_prior"]["intervals"]):
            lo, hi = mp.quantiles(np.array([(1 - level) / 2, (1 + level) / 2]))
            assert interval["lower"]["log"] == pytest.approx(lo, rel=1e-12)
            assert interval["upper"]["log"] == pytest.approx(hi, rel=1e-12)

    @pytest.mark.parametrize("levels", [[], [0.0], [0.95, 1.0], [float("nan")]])
    @pytest.mark.parametrize("with_target", [False, True])
    def test_bad_levels_rejected(self, alport_source, alport_target, hn05, levels,
                                 with_target):
        target = alport_target if with_target else None
        with pytest.raises(InvalidParameterError, match="interval levels"):
            run_map_report(alport_source, hn05, target=target, levels=levels)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("draws", [0, 1])
    def test_sample_check_needs_two_draws(self, topcat, draws):
        # one draw has no sample SD: it gave NaN and a numpy warning
        with pytest.raises(InvalidParameterError, match="sample_check"):
            run_map_report(topcat, make_prior("half-normal", 0.25), sample_check=draws)

    def test_sample_check_deterministic(self, topcat):
        prior = make_prior("half-normal", 0.25)
        a = run_map_report(topcat, prior, sample_check=20_000, seed=5)
        b = run_map_report(topcat, prior, sample_check=20_000, seed=5)
        assert a["map_prior"]["monte_carlo"] == b["map_prior"]["monte_carlo"]
        mc = a["map_prior"]["monte_carlo"]
        assert mc["mean_log"] == pytest.approx(topcat.y, abs=0.01)
        assert mc["sd_log"] == pytest.approx(0.362, abs=0.01)


def test_overflowing_ratio_is_null_and_blank_in_tsv():
    # exp() of this prior's upper 97.5% quantile (log 1734.7) overflows
    report = run_map_report(StudyEstimate(y=0.0, se=0.451, n=70),
                            make_prior("half-student-t", 0.3, 0.3))
    upper = report["map_prior"]["intervals"][0]["upper"]
    assert math.isfinite(upper["log"]) and upper["log"] > 709.0
    assert upper["ratio"] is None
    assert "map_prior.intervals[0].upper.ratio\t\n" in render_report_tsv(report)
    assert json.loads(render_json(report)) == report


def test_one_quantile_solve_per_row_and_per_report(alport_source, alport_target, hn05,
                                                    monkeypatch):
    sizes = []
    quantiles = MapPrior.quantiles

    def counting(self, p):
        sizes.append(np.size(p))
        return quantiles(self, p)

    monkeypatch.setattr(MapPrior, "quantiles", counting)
    priors = [hn05, make_prior("lomax", 0.337, 1.0)]
    rows = prior_comparison_table(0.451, priors, 3.77)
    run_map_report(alport_source, hn05, target=alport_target)
    # the ESS ladder and the table's levels or the interval bounds, together
    ladder = len(_probability_ladder())
    assert sizes == [ladder + 3, ladder + 3, ladder + 2]
    for prior, row in zip(priors, rows):
        ess = ess_for_map_prior(MapPrior(0.0, 0.451 ** 2, prior), 3.77)
        assert row["ess_elir"] == report_module.round12(ess)


class TestComparisonTable:
    def test_single_half_normal_row(self):
        rows = prior_comparison_table(0.451, [make_prior("half-normal", 1.0)],
                                      uisd_value=math.sqrt(70) * 0.451)
        row = rows[0]
        assert row["tau_median"] == pytest.approx(0.67, abs=0.005)
        assert row["ess_elir"] == pytest.approx(12.8, abs=0.5)
        assert row["sd"] == pytest.approx(1.48, abs=0.01)
        assert row["quantiles"]["0.95"] == pytest.approx(2.35, rel=0.01)
        assert row["quantiles"]["0.975"] == pytest.approx(3.18, rel=0.01)
        assert row["quantiles"]["0.995"] == pytest.approx(5.19, rel=0.01)

    def test_empty_spec_list_gives_header_only_table(self):
        rows = prior_comparison_table(0.451, [], uisd_value=3.77)
        assert rows == []
        text = render_table_tsv(rows)
        assert text.splitlines() == [
            "family\tscale\tshape\ttau_median\tess_elir\tsd\tq0.95\tq0.975\tq0.995"]

    def test_infinite_sd_renders_blank_in_tsv_null_in_json(self):
        rows = prior_comparison_table(0.451, [make_prior("half-cauchy", 0.34)],
                                      uisd_value=3.77)
        assert rows[0]["sd"] is None
        tsv = render_table_tsv(rows)
        cells = tsv.splitlines()[1].split("\t")
        assert cells[5] == ""
        assert json.loads(render_json(rows))[0]["sd"] is None

    def test_close_levels_keep_their_own_columns(self):
        # to 6 significant digits the first two levels would share one key
        levels = [0.9999991, 0.9999992, 0.9999999]
        prior = make_prior("half-normal", 0.5)
        rows = prior_comparison_table(0.451, [prior], 3.77, quantile_levels=levels)
        alone = [prior_comparison_table(0.451, [prior], 3.77, quantile_levels=[lv])[0]
                 for lv in levels]
        keys = ["0.9999991", "0.9999992", "0.9999999"]
        assert rows[0]["quantiles"] == {key: row["quantiles"][key]
                                        for key, row in zip(keys, alone)}
        assert len(set(rows[0]["quantiles"].values())) == 3
        header, cells = (line.split("\t") for line in
                         render_table_tsv(rows, quantile_levels=levels).splitlines())
        assert header[6:] == [f"q{key}" for key in keys]
        assert cells[6:] == [f"{rows[0]['quantiles'][key]:.12g}" for key in keys]
        assert list(json.loads(render_json(rows))[0]["quantiles"]) == keys
