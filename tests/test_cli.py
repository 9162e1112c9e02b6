"""Command-line surface: subcommands, exit codes, output determinism."""

import json
import math

import numpy as np
import pytest

from conftest import DATA_DIR, posterior_density
from mapprior import QuadratureError, load_studies_csv, make_prior
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
