"""CSV ingestion, ratio conversion, and grid export."""

import math

import numpy as np
import pytest
from scipy.special import ndtri

from conftest import DATA_DIR, normal_pdf
from mapprior import (
    DataFormatError,
    InvalidParameterError,
    MapPrior,
    StudyEstimate,
    emit_density_grid,
    load_studies_csv,
    parse_ratio_ci,
)


class TestParseRatioCi:
    def test_alport_observational_row(self):
        y, se = parse_ratio_ci(0.53, 0.22, 1.29, 0.95)
        assert y == pytest.approx(-0.635, abs=5e-4)
        assert se == pytest.approx(0.451, abs=5e-4)

    def test_alport_rct_row(self):
        y, se = parse_ratio_ci(0.51, 0.12, 2.20, 0.95)
        assert y == pytest.approx(-0.673, abs=5e-4)
        assert se == pytest.approx(0.742, abs=5e-4)

    def test_topcat_row(self):
        y, se = parse_ratio_ci(0.89, 0.77, 1.04, 0.95)
        assert y == pytest.approx(-0.117, abs=5e-4)
        assert se == pytest.approx(0.077, abs=5e-4)

    def test_symmetric_unit_interval(self):
        z = float(ndtri(0.975))
        y, se = parse_ratio_ci(1.0, math.exp(-z), math.exp(z), 0.95)
        assert y == 0.0
        assert se == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("args", [
        (0.5, 0.6, 1.0),     # lower above estimate
        (0.5, 0.2, 0.4),     # upper below estimate
        (0.0, -0.1, 0.1),    # nonpositive values
        (-0.5, -1.0, 1.0),
    ])
    def test_rejects_bad_ordering(self, args):
        with pytest.raises(InvalidParameterError):
            parse_ratio_ci(*args)

    def test_rejects_an_interval_too_narrow_for_its_logs(self):
        # the logs of neighbouring floats near 1e300 are equal: the SE would be 0
        lower, upper = math.nextafter(1e300, 0.0), math.nextafter(1e300, math.inf)
        with pytest.raises(InvalidParameterError, match="standard error"):
            parse_ratio_ci(1e300, lower, upper)

    def test_rejects_bad_level(self):
        with pytest.raises(InvalidParameterError):
            parse_ratio_ci(0.5, 0.2, 1.0, level=1.0)

    @pytest.mark.parametrize("level", [0.9, 0.95, 0.99])
    def test_exactly_inverted_by_reconstruction(self, level):
        y, se = parse_ratio_ci(0.53, 0.22, 1.29, level)
        z = float(ndtri((1.0 + level) / 2.0))
        again = parse_ratio_ci(math.exp(y), math.exp(y - z * se), math.exp(y + z * se),
                               level)
        assert again[0] == pytest.approx(y, abs=1e-12)
        assert again[1] == pytest.approx(se, abs=1e-12)


class TestLoadStudiesCsv:
    def test_alport_file(self):
        studies = load_studies_csv(DATA_DIR / "alport.csv")
        assert [s.label for s in studies] == ["observational", "RCT"]
        assert studies[0].y == pytest.approx(-0.635, abs=5e-4)
        assert studies[0].se == pytest.approx(0.451, abs=5e-4)
        assert studies[0].n == 70
        assert studies[1].y == pytest.approx(-0.673, abs=5e-4)
        assert studies[1].se == pytest.approx(0.742, abs=5e-4)
        assert studies[1].n == 20

    def test_linear_rows_pass_through(self, tmp_path):
        path = tmp_path / "linear.csv"
        path.write_text("label,scale,estimate,lower,upper,se,n\n"
                        "direct,linear,-0.25,,,0.31,\n")
        study, = load_studies_csv(path)
        assert study == StudyEstimate(y=-0.25, se=0.31, n=None, label="direct")

    def test_bad_interval_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("label,scale,estimate,lower,upper,se,n\n"
                        "ok,ratio,0.5,0.2,1.0,,\n"
                        "broken,ratio,0.5,1.2,1.0,,\n")
        with pytest.raises(DataFormatError, match="line 3"):
            load_studies_csv(path)

    def test_non_numeric_cell_names_line_and_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("label,scale,estimate,lower,upper,se,n\n"
                        "x,linear,abc,,,0.3,\n")
        with pytest.raises(DataFormatError, match="line 2.*estimate"):
            load_studies_csv(path)

    def test_unknown_scale_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("label,scale,estimate,lower,upper,se,n\n"
                        "x,log,0.1,,,0.3,\n")
        with pytest.raises(DataFormatError, match="line 2"):
            load_studies_csv(path)

    def test_missing_header_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("label,scale,estimate,lower,upper\nx,ratio,0.5,0.2,1.0\n")
        with pytest.raises(DataFormatError, match="header"):
            load_studies_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataFormatError):
            load_studies_csv(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("label,scale,estimate,lower,upper,se,n\n")
        with pytest.raises(DataFormatError, match="no study rows"):
            load_studies_csv(path)


class TestEmitDensityGrid:
    def test_two_point_grid(self, tmp_path):
        path = tmp_path / "grid.tsv"
        emit_density_grid(lambda x: 2.0 * x, 0.0, 1.0, 2, path)
        lines = path.read_text().splitlines()
        assert lines == ["0\t0", "1\t2"]

    def test_values_match_density_to_12_digits(self, tmp_path, alport_source, hn05):
        mp = MapPrior.from_study(alport_source, hn05)
        path = tmp_path / "map.tsv"
        emit_density_grid(mp.density, -4.0, 2.5, 200, path)
        rows = [line.split("\t") for line in path.read_text().splitlines()]
        assert len(rows) == 200
        x = np.array([float(r[0]) for r in rows])
        y = np.array([float(r[1]) for r in rows])
        # stored with 12 significant digits, so round trips to ~5e-12 relative
        np.testing.assert_allclose(x, np.linspace(-4.0, 2.5, 200), rtol=5e-12)
        np.testing.assert_allclose(y, mp.density(np.linspace(-4.0, 2.5, 200)),
                                   rtol=5e-12)

    def test_log_density_heavier_than_parabola_in_tails(self, alport_source, hn05):
        # the matched normal's log density is a parabola; the mixture stays
        # above it beyond three standard deviations on either side
        mp = MapPrior.from_study(alport_source, hn05)
        sd = mp.sd()
        for d in (3.2 * sd, 4.0 * sd, 5.0 * sd):
            for theta in (mp.location - d, mp.location + d):
                mixture = math.log(mp.density(theta))
                parabola = math.log(normal_pdf(theta, mp.location, sd))
                assert mixture > parabola

    def test_rows_read_as_numpy_scalars_did(self, tmp_path):
        values = np.array([0.0, -0.0, 5e-324, 1e-300, 1.23456789012345e10,
                           -5e-324, -1e-300, -1.23456789012345e10, -2.5])
        path = emit_density_grid(lambda x: values, -4.0, 4.0, values.size,
                                 tmp_path / "grid.tsv")
        x = np.linspace(-4.0, 4.0, values.size)
        rows = "".join(f"{xi:.12g}\t{yi:.12g}\n" for xi, yi in zip(x, values))
        assert path.read_bytes() == rows.encode("utf-8")

    def test_rejects_single_point(self, tmp_path):
        with pytest.raises(InvalidParameterError):
            emit_density_grid(lambda x: x, 0.0, 1.0, 1, tmp_path / "g.tsv")

    def test_rejects_bad_range(self, tmp_path):
        with pytest.raises(InvalidParameterError):
            emit_density_grid(lambda x: x, 1.0, 0.0, 10, tmp_path / "g.tsv")
