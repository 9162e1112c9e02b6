"""Command-line surface: subcommands, exit codes, output determinism."""

import json
import math

import numpy as np
import pytest

from conftest import DATA_DIR, posterior_density
from mapprior import QuadratureError, a0_density, load_studies_csv, make_prior
from mapprior import cli
from mapprior.cli import build_parser, main

ALPORT = str(DATA_DIR / "alport.csv")
TOPCAT = str(DATA_DIR / "topcat.csv")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMapCommand:
    def test_heart_failure_report(self, capsys):
        code, out, err = run_cli(capsys, "map", "--data", TOPCAT,
                                 "--prior", "half-normal(0.25)")
        assert code == 0 and err == ""
        report = json.loads(out)
        block = report["map_prior"]
        assert block["sd_log"] == pytest.approx(0.362, abs=0.002)
        assert block["prob_below_zero"] == pytest.approx(0.71, abs=0.005)
        assert block["ess_elir"] == pytest.approx(399.0, abs=2.0)

    def test_direct_ratio_input(self, capsys):
        code, out, _ = run_cli(capsys, "map", "--estimate", "0.89", "--lower", "0.77",
                               "--upper", "1.04", "--n", "3445",
                               "--prior", "half-normal(0.25)")
        assert code == 0
        report = json.loads(out)
        assert report["inputs"]["source"]["log_estimate"] == pytest.approx(-0.117, abs=5e-4)

    def test_direct_log_input_with_uisd(self, capsys):
        code, out, _ = run_cli(capsys, "map", "--y", "-0.117", "--se", "0.077",
                               "--prior", "half-normal(0.25)", "--uisd", "4.5")
        assert code == 0
        assert json.loads(out)["map_prior"]["uisd"] == 4.5

    def test_output_file_and_determinism(self, capsys, tmp_path):
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        for path in (out_a, out_b):
            code, _, _ = run_cli(capsys, "map", "--data", TOPCAT,
                                 "--prior", "half-normal(0.25)", "--out", str(path))
            assert code == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_tsv_format(self, capsys):
        code, out, _ = run_cli(capsys, "map", "--data", TOPCAT,
                               "--prior", "half-normal(0.25)", "--format", "tsv")
        assert code == 0
        assert "map_prior.sd_log\t" in out

    def test_missing_uisd_source_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "map", "--y", "-0.1", "--se", "0.3",
                               "--prior", "half-normal(0.5)")
        assert code == 1
        assert "unit-information" in err

    def test_mixed_input_forms_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "map", "--y", "-0.1", "--se", "0.3",
                               "--estimate", "0.9", "--lower", "0.8", "--upper", "1.0",
                               "--prior", "half-normal(0.5)", "--uisd", "2.0")
        assert code == 1
        assert "not both" in err

    def test_sample_check_flag(self, capsys):
        code, out, _ = run_cli(capsys, "map", "--data", TOPCAT,
                               "--prior", "half-normal(0.25)",
                               "--sample-check", "10000", "--seed", "11")
        assert code == 0
        mc = json.loads(out)["map_prior"]["monte_carlo"]
        assert mc["draws"] == 10000 and mc["seed"] == 11

    @pytest.mark.parametrize("draws", ["0", "1"])
    def test_sample_check_below_two_draws_exits_1(self, capsys, draws):
        # a sample SD needs two draws: one gave "sd_log": NaN, zero no block
        code, out, err = run_cli(capsys, "map", "--data", TOPCAT,
                                 "--prior", "half-normal(0.25)", "--sample-check", draws)
        assert code == 1 and out == ""
        assert err == f"mapprior: error: sample_check draws must be an integer >= 2, got {draws}\n"

    def test_round_flag(self, capsys):
        code, out, _ = run_cli(capsys, "map", "--data", TOPCAT,
                               "--prior", "half-normal(0.25)", "--round", "3")
        assert code == 0
        block = json.loads(out)["map_prior"]
        assert block["sd_log"] == 0.362
        assert block["intervals"][0]["lower"]["log"] == -0.898

    def test_overflowing_ratio_exits_0(self, capsys):
        code, out, err = run_cli(capsys, "map", "--y", "0", "--se", "0.451", "--n", "70",
                                 "--prior", "half-student-t(0.3,0.3)")
        assert code == 0 and err == ""
        upper = json.loads(out)["map_prior"]["intervals"][0]["upper"]
        assert math.isfinite(upper["log"]) and upper["ratio"] is None

    def test_round_flag_rejects_zero(self, capsys):
        code, _, err = run_cli(capsys, "map", "--data", TOPCAT,
                               "--prior", "half-normal(0.25)", "--round", "0")
        assert code == 1 and "--round" in err


class TestShrinkCommand:
    def test_alport_workflow(self, capsys):
        code, out, err = run_cli(capsys, "shrink", "--data", ALPORT,
                                 "--prior", "half-normal(0.5)")
        assert code == 0 and err == ""
        block = json.loads(out)["shrinkage"]
        assert block["median"]["ratio"] == pytest.approx(0.52, abs=0.01)
        interval = block["intervals"][0]
        assert interval["lower"]["ratio"] == pytest.approx(0.19, abs=0.01)
        assert interval["upper"]["ratio"] == pytest.approx(1.39, abs=0.01)
        assert interval["width_ratio"] == pytest.approx(0.67, abs=0.01)

    def test_label_selection(self, capsys):
        code, out, _ = run_cli(capsys, "shrink", "--data", ALPORT,
                               "--source", "observational", "--target", "RCT",
                               "--prior", "half-normal(0.5)")
        assert code == 0
        assert json.loads(out)["inputs"]["target"]["label"] == "RCT"

    def test_unknown_label_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "shrink", "--data", ALPORT,
                               "--source", "nope", "--prior", "half-normal(0.5)")
        assert code == 1 and "nope" in err

    def test_single_row_file_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "shrink", "--data", TOPCAT,
                               "--prior", "half-normal(0.25)")
        assert code == 1 and "at least 2" in err


class TestTable2Command:
    def test_three_rows_tsv(self, capsys):
        code, out, _ = run_cli(capsys, "table2", "--se", "0.451",
                               "--uisd", str(math.sqrt(70) * 0.451),
                               "--prior", "half-normal(0.5)",
                               "--prior", "half-cauchy(0.337245)")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 3
        hn = lines[1].split("\t")
        assert float(hn[4]) == pytest.approx(26.6, abs=0.6)
        assert float(hn[5]) == pytest.approx(0.84, abs=0.01)
        hc = lines[2].split("\t")
        assert hc[5] == ""  # infinite sd renders blank
        assert float(hc[8]) == pytest.approx(24.02, rel=0.01)

    def test_empty_prior_list_header_only(self, capsys):
        code, out, _ = run_cli(capsys, "table2", "--se", "0.451", "--uisd", "3.77")
        assert code == 0
        assert out.splitlines() == [
            "family\tscale\tshape\ttau_median\tess_elir\tsd\tq0.95\tq0.975\tq0.995"]

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "table2", "--se", "0.451", "--uisd", "3.77",
                               "--prior", "exp(0.49)", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert rows[0]["family"] == "exponential"

    def test_negative_source_se_exits_1(self, capsys):
        code, out, err = run_cli(capsys, "table2", "--se", "-0.451", "--uisd", "3.77",
                                 "--prior", "half-normal(0.5)")
        assert code == 1 and out == "" and "source standard error" in err


class TestConvertCommand:
    def test_alport_row(self, capsys):
        code, out, _ = run_cli(capsys, "convert", "--estimate", "0.53",
                               "--lower", "0.22", "--upper", "1.29")
        assert code == 0
        payload = json.loads(out)
        assert payload["log_estimate"] == pytest.approx(-0.635, abs=5e-4)
        assert payload["se"] == pytest.approx(0.451, abs=5e-4)

    def test_bad_ordering_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "convert", "--estimate", "0.53",
                               "--lower", "1.3", "--upper", "1.29")
        assert code == 1 and "lower" in err

    def test_infinite_bound_exits_1(self, capsys, tmp_path):
        out = tmp_path / "convert.json"
        code, _, err = run_cli(capsys, "convert", "--estimate", "1", "--lower", "0.5",
                               "--upper", "inf", "--out", str(out))
        assert code == 1 and "upper bound" in err and not out.exists()


class TestGridCommand:
    def test_map_density_grid(self, capsys, tmp_path):
        out = tmp_path / "map.tsv"
        code, _, _ = run_cli(capsys, "grid", "--data", ALPORT,
                             "--prior", "half-normal(0.5)", "--dist", "map-density",
                             "--from", "-4", "--to", "2.5", "--points", "200",
                             "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 200
        assert float(lines[0].split("\t")[0]) == -4.0

    def test_posterior_grid(self, capsys, tmp_path):
        out = tmp_path / "post.tsv"
        code, _, _ = run_cli(capsys, "grid", "--data", ALPORT,
                             "--prior", "half-normal(0.5)", "--dist", "posterior",
                             "--from", "-6", "--to", "1.5", "--points", "50",
                             "--out", str(out))
        assert code == 0
        values = np.loadtxt(out)
        assert values.shape == (50, 2)
        assert values[:, 1].max() > 0.5
        # the density is exact at any abscissa: row 30 (-1.408...) in the
        # bulk, and row 0 (-6) in the far tail, where it is about 1e-15
        source, target = load_studies_csv(ALPORT)
        prior = make_prior("half-normal", 0.5)
        for row in (0, 30):
            x, density = values[row]
            assert density == pytest.approx(posterior_density(prior, source, target, x),
                                            rel=1e-9)

    @pytest.mark.filterwarnings("error")
    def test_log_density_underflow_is_refused(self, capsys, tmp_path):
        # the density is 1e-197 at theta = 200 and underflows to 0 at 300
        out = tmp_path / "log.tsv"
        code, _, err = run_cli(capsys, "grid", "--y", "0", "--se", "0.45",
                               "--prior", "half-normal(0.5)", "--dist", "map-log-density",
                               "--from", "100", "--to", "400", "--points", "4",
                               "--out", str(out))
        assert code == 2 and err.rstrip().endswith("underflows at theta = 300")
        assert not out.exists()

    def test_offset_beyond_reach_exits_2(self, capsys, tmp_path):
        out = tmp_path / "far.tsv"
        code, _, err = run_cli(capsys, "grid", "--y", "0", "--se", "0.45",
                               "--prior", "half-normal(0.5)", "--dist", "map-density",
                               "--from", "0", "--to", "1e200", "--points", "3",
                               "--out", str(out))
        assert code == 2 and "out of reach" in err and not out.exists()

    def test_a0_density_defaults_to_unit_interval(self, capsys, tmp_path):
        out = tmp_path / "a0.tsv"
        code, _, _ = run_cli(capsys, "grid", "--prior", "half-normal(0.5)",
                             "--se", "0.451", "--dist", "a0-density",
                             "--points", "11", "--out", str(out))
        assert code == 0
        values = np.loadtxt(out)
        assert values[0, 0] == pytest.approx(1e-6)
        assert values[-1, 0] == pytest.approx(1.0 - 1e-6)
        assert np.isfinite(values[:, 1]).all()

    @pytest.mark.filterwarnings("error")
    def test_a0_density_at_the_requested_points(self, capsys, tmp_path):
        # above 1 - 1e-6 too, where the density keeps growing, and its limit at 1
        out = tmp_path / "a0.tsv"
        code, _, _ = run_cli(capsys, "grid", "--prior", "half-normal(0.5)", "--se", "0.4",
                             "--dist", "a0-density", "--from", "0.9999998", "--to", "1",
                             "--points", "3", "--out", str(out))
        assert code == 0
        value = np.loadtxt(out)[:, 1]
        expected = a0_density(make_prior("half-normal", 0.5), 0.4,
                              np.linspace(0.9999998, 1.0, 3))
        assert value[-1] == expected[-1] == math.inf
        np.testing.assert_allclose(value[:-1], expected[:-1], rtol=1e-11)
        assert value[0] < value[1]

    def test_a0_density_outside_the_unit_interval_exits_1(self, capsys, tmp_path):
        out = tmp_path / "a0.tsv"
        code, _, err = run_cli(capsys, "grid", "--prior", "half-normal(0.5)", "--se", "0.4",
                               "--dist", "a0-density", "--from", "0.5", "--to", "1.5",
                               "--points", "4", "--out", str(out))
        assert code == 1 and "borrowing exponent" in err and not out.exists()

    def test_negative_numbers_in_exponent_form(self, capsys, tmp_path):
        out = tmp_path / "cdf.tsv"
        code, _, err = run_cli(capsys, "grid", "--y", "-5e-05", "--se", "0.5",
                               "--prior", "half-normal(0.5)", "--dist", "map-cdf",
                               "--from", "-1e-3", "--to", "9e-4", "--points", "3",
                               "--out", str(out))
        assert code == 0 and err == ""
        values = np.loadtxt(out)
        assert values[0, 0] == -1e-3
        # the middle point is the location -5e-05, where the CDF is one half
        assert values[1, 0] == pytest.approx(-5e-05, abs=1e-15)
        assert values[1, 1] == pytest.approx(0.5, abs=1e-12)

    def test_missing_prior_exits_1(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "grid", "--data", ALPORT,
                               "--dist", "map-density", "--from", "-1", "--to", "1",
                               "--out", str(tmp_path / "x.tsv"))
        assert code == 1 and "--prior" in err


class TestStudySelection:
    """``--source`` (also spelled ``--study``) picks the source row for
    ``map`` and every ``grid`` distribution; all refusals exit 1."""

    GRID = ("grid", "--data", ALPORT, "--prior", "half-normal(0.5)",
            "--from", "-0.6", "--to", "0", "--points", "2")

    def grid_at_start(self, capsys, tmp_path, *argv):
        """Exit code, stderr, and the value at theta = -0.6 (None on failure)."""
        out = tmp_path / "grid.tsv"
        code, _, err = run_cli(capsys, *self.GRID, *argv, "--out", str(out))
        if code != 0:
            assert not out.exists()
            return code, err, None
        x, value = np.loadtxt(out)[0]
        assert x == -0.6
        return code, err, value

    @pytest.mark.parametrize("flag", ["--source", "--study"])
    def test_map_density_of_the_chosen_row(self, capsys, tmp_path, flag):
        code, err, value = self.grid_at_start(capsys, tmp_path, "--dist", "map-density",
                                              flag, "RCT")
        assert code == 0 and err == ""
        assert value == 0.428765521068

    def test_map_report_of_the_chosen_row(self, capsys):
        reports = []
        for flag in ("--source", "--study"):
            code, out, _ = run_cli(capsys, "map", "--data", ALPORT, flag, "RCT",
                                   "--prior", "half-normal(0.5)")
            assert code == 0
            reports.append(out)
        assert reports[0] == reports[1]
        assert json.loads(reports[0])["inputs"]["source"]["label"] == "RCT"

    def test_posterior_of_the_chosen_rows(self, capsys, tmp_path):
        code, err, value = self.grid_at_start(capsys, tmp_path, "--dist", "posterior",
                                              "--study", "RCT", "--target", "observational")
        assert code == 0 and err == ""
        observational, rct = load_studies_csv(ALPORT)
        assert value == pytest.approx(
            posterior_density(make_prior("half-normal", 0.5), rct, observational, -0.6),
            rel=1e-9)

    @pytest.mark.parametrize("rows", [("--study", "RCT"),
                                      ("--source", "observational", "--target", "observational")])
    def test_posterior_against_itself_exits_1(self, capsys, tmp_path, rows):
        code, err, _ = self.grid_at_start(capsys, tmp_path, "--dist", "posterior", *rows)
        assert code == 1 and "same study row" in err

    def test_posterior_with_direct_estimates_exits_1(self, capsys, tmp_path):
        code, err, _ = self.grid_at_start(capsys, tmp_path, "--dist", "posterior",
                                          "--y", "3", "--se", "1")
        assert code == 1 and "not both" in err

    def test_ambiguous_label_exits_1(self, capsys, tmp_path):
        data = tmp_path / "twice.csv"
        data.write_text("label,scale,estimate,lower,upper,se,n\n"
                        "A,linear,0.1,,,0.3,\nA,linear,0.2,,,0.4,\n")
        code, _, err = run_cli(capsys, "map", "--data", str(data), "--source", "A",
                               "--prior", "half-normal(0.5)", "--uisd", "2")
        assert code == 1 and "'A' is ambiguous" in err

    @pytest.mark.parametrize("flag, value", [("--n", "5"), ("--label", "trial")])
    def test_direct_study_flag_with_data_exits_1(self, capsys, flag, value):
        # the CSV row has its own n (3445) and label, which the flag would not replace
        code, out, err = run_cli(capsys, "map", "--data", TOPCAT, flag, value,
                                 "--prior", "half-normal(0.25)")
        assert code == 1 and out == ""
        assert err == f"mapprior: error: {flag} is for a directly given study: " \
                      "--data rows give their own\n"

    @pytest.mark.parametrize("direct", [
        ("--estimate", "0.89", "--lower", "0.77", "--upper", "1.04"),
        ("--y", "-0.117", "--se", "0.077"),
    ])
    def test_direct_study_keeps_n_and_label(self, capsys, direct):
        code, out, _ = run_cli(capsys, "map", *direct, "--n", "3445", "--label", "TOPCAT",
                               "--prior", "half-normal(0.25)")
        assert code == 0
        source = json.loads(out)["inputs"]["source"]
        assert source["n"] == 3445 and source["label"] == "TOPCAT"

    @pytest.mark.parametrize("partial, message", [
        (("--y", "-0.1"), "needs both --y and --se"),
        (("--se", "0.3"), "needs both --y and --se"),
        (("--estimate", "0.9", "--upper", "1.1"), "needs --estimate, --lower and --upper"),
    ])
    def test_partial_direct_input_exits_1(self, capsys, partial, message):
        code, _, err = run_cli(capsys, "map", *partial, "--prior", "half-normal(0.5)",
                               "--uisd", "2")
        assert code == 1 and message in err


class TestGridDistributions:
    """The grid distributions read from their own definitions."""

    def grid(self, capsys, tmp_path, *argv):
        out = tmp_path / "grid.tsv"
        code, _, err = run_cli(capsys, "grid", *argv, "--out", str(out))
        assert code == 0 and err == ""
        return np.loadtxt(out).T

    @pytest.mark.filterwarnings("error")
    def test_log_density_is_the_log_of_the_density(self, capsys, tmp_path):
        # theta up to 30, where the density (about 4e-20) is still exact
        study = ("--y", "0", "--se", "0.45", "--prior", "half-normal(0.5)",
                 "--from", "-3", "--to", "30", "--points", "12")
        x, log_density = self.grid(capsys, tmp_path, *study, "--dist", "map-log-density")
        _, density = self.grid(capsys, tmp_path, *study, "--dist", "map-density")
        assert x[-1] == 30.0 and np.all(density > 0.0)
        np.testing.assert_allclose(log_density, np.log(density), rtol=1e-11)

    @pytest.mark.parametrize("dist", ["tau-density", "tau-cdf"])
    def test_tau_prior(self, capsys, tmp_path, dist):
        x, value = self.grid(capsys, tmp_path, "--prior", "lomax(0.337,1)", "--dist", dist,
                             "--to", "2", "--points", "5")
        assert x[0] == 0.0 and x[-1] == 2.0
        prior = make_prior("lomax", 0.337, 1.0)
        expected = prior.density(x) if dist == "tau-density" else prior.cdf(x)
        np.testing.assert_allclose(value, expected, rtol=1e-11)

    def test_likelihood_of_the_chosen_row(self, capsys, tmp_path):
        x, value = self.grid(capsys, tmp_path, "--data", ALPORT, "--source", "RCT",
                             "--dist", "likelihood", "--from", "-2", "--to", "1",
                             "--points", "4")
        rct = load_studies_csv(ALPORT)[1]
        expected = np.exp(-0.5 * ((x - rct.y) / rct.se) ** 2) / (rct.se * math.sqrt(2 * math.pi))
        np.testing.assert_allclose(value, expected, rtol=1e-11)


#: a valid ``grid`` command of each distribution
_GRID_COMMANDS = {
    "posterior": ("--data", ALPORT, "--prior", "half-normal(0.5)", "--from", "-1", "--to", "1"),
    "map-density": ("--y", "0", "--se", "0.4", "--prior", "half-normal(0.5)",
                    "--from", "-1", "--to", "1"),
    "likelihood": ("--y", "0", "--se", "0.4", "--from", "-1", "--to", "1"),
    "a0-density": ("--se", "0.4", "--prior", "half-normal(0.5)"),
    "tau-density": ("--prior", "half-normal(0.5)", "--to", "1"),
}
_GRID_COMMANDS["map-cdf"] = _GRID_COMMANDS["map-log-density"] = _GRID_COMMANDS["map-density"]
_GRID_COMMANDS["tau-cdf"] = _GRID_COMMANDS["tau-density"]

#: the study flags that the tau and a0 distributions do not read, with a value
_STUDY_FLAGS = [("--data", ALPORT), ("--source", "RCT"), ("--study", "RCT"), ("--y", "0"),
                ("--estimate", "0.9"), ("--lower", "0.8"), ("--upper", "1.1"), ("--n", "70")]


#: (distribution, a flag it does not read, a value)
_UNREAD = [*[(dist, "--target", "RCT") for dist in _GRID_COMMANDS if dist != "posterior"],
           *[(dist, flag, value) for dist in ("tau-density", "tau-cdf", "a0-density")
             for flag, value in _STUDY_FLAGS],
           *[(dist, "--n", "70") for dist in ("posterior", "likelihood", "map-density",
                                               "map-cdf", "map-log-density")],
           *[(dist, "--label", "trial") for dist in _GRID_COMMANDS],
           ("tau-density", "--se", "0.4"),
           ("tau-cdf", "--se", "0.4"),
           ("likelihood", "--prior", "half-normal(0.5)")]


class TestUnreadGridFlags:
    """``grid`` refuses a flag that its distribution does not read."""

    @pytest.mark.parametrize("dist, flag, value", _UNREAD,
                             ids=[f"{dist}{flag}" for dist, flag, _ in _UNREAD])
    def test_exits_1(self, capsys, tmp_path, dist, flag, value):
        out = tmp_path / "grid.tsv"
        code, _, err = run_cli(capsys, "grid", "--dist", dist, *_GRID_COMMANDS[dist],
                               "--points", "2", flag, value, "--out", str(out))
        named = "--source" if flag == "--study" else flag
        assert code == 1 and not out.exists()
        assert err == f"mapprior: error: --dist {dist} does not read {named}\n"


class TestExitCodes:
    def test_usage_error_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["map"])  # missing required --prior
        assert exc.value.code == 1

    def test_numeric_failure_exits_2(self, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise QuadratureError("forced failure", achieved=0.5)

        monkeypatch.setattr("mapprior.cli.run_map_report", boom)
        code, _, err = run_cli(capsys, "map", "--data", TOPCAT,
                               "--prior", "half-normal(0.25)")
        assert code == 2
        assert "numeric failure" in err


class TestParserReuse:
    CONVERT = ("convert", "--estimate", "0.53", "--lower", "0.22", "--upper", "1.29")

    def test_main_builds_its_parser_once(self, capsys, monkeypatch):
        assert run_cli(capsys, *self.CONVERT)[0] == 0
        built = []
        init = cli._Parser.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(cli._Parser, "__init__", counting)
        for _ in range(5):
            assert run_cli(capsys, *self.CONVERT)[0] == 0
        assert built == []
        assert build_parser() is not build_parser()
        # each build makes the top-level parser and one per subcommand
        assert len(built) == 12

    def test_table_rows_are_not_carried_over(self, capsys):
        for spec, family in (("half-normal(0.5)", "half-normal"), ("exp(0.49)", "exponential")):
            code, out, _ = run_cli(capsys, "table2", "--se", "0.451", "--uisd", "3.77",
                                   "--prior", spec)
            assert code == 0
            lines = out.splitlines()
            assert len(lines) == 2 and lines[1].split("\t")[0] == family

    def test_levels_are_not_carried_over(self, capsys):
        base = ("map", "--data", TOPCAT, "--prior", "half-normal(0.25)")
        for extra, levels in ((("--level", "0.8"), [0.8]), ((), [0.95])):
            code, out, _ = run_cli(capsys, *base, *extra)
            assert code == 0
            assert json.loads(out)["inputs"]["interval_levels"] == levels

    def test_usage_error_leaves_the_parser_usable(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["map"])
        assert exc.value.code == 1
        assert "required: --prior" in capsys.readouterr().err
        code, out, err = run_cli(capsys, *self.CONVERT)
        assert code == 0 and err == ""
        assert json.loads(out)["level"] == 0.95
