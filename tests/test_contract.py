"""The input contract: every public entry point takes numpy scalars as the
Python numbers they stand for, and refuses what is not a valid number with
an ``InvalidParameterError``."""

import dataclasses
import math

import numpy as np
import pytest

from conftest import DATA_DIR
from mapprior import (
    InvalidParameterError,
    MapPrior,
    StudyEstimate,
    a0_density,
    a0_from_tau,
    conditional_moments,
    emit_density_grid,
    ess_elir,
    ess_for_map_prior,
    load_studies_csv,
    make_prior,
    parse_ratio_ci,
    prior_comparison_table,
    run_map_report,
    scale_for_median,
    tau_from_a0,
    uisd,
)
from mapprior.mixture import NormalMixture, normal_pdf
from mapprior.shrink import posterior_mixture, posterior_summaries

HN = make_prior("half-normal", 0.5)
MP = MapPrior(-0.63, 0.2, HN)
MIXTURE = NormalMixture(0.0, np.array([0.5, 0.5]), np.array([-1.0, 1.0]), np.array([1.0, 4.0]))
POSTERIOR = posterior_mixture(MP, StudyEstimate(-0.7, 0.74))
SOURCE = StudyEstimate(-0.63, 0.45, n=70)
ALPORT = DATA_DIR / "alport.csv"

#: what no entry point may take for a number, and what a positive
#: parameter, a level and a count may not take besides
NOT_NUMBERS = [True, "1", None, math.nan, math.inf, -math.inf]
NOT_POSITIVE = NOT_NUMBERS + [0.0, -1.0]
NOT_LEVELS = NOT_NUMBERS + [0.0, 1.0]
NOT_COUNTS = NOT_NUMBERS + [0, 2.5, np.float64(3.0)]


def _optional(invalid):
    """None stands for the default of an optional parameter."""
    return [value for value in invalid if value is not None]


#: (entry point and parameter, call taking the value, valid values, invalid
#: values)
CASES = [
    ("StudyEstimate.y", lambda v: StudyEstimate(v, 0.45), [0.3, 2], NOT_NUMBERS),
    ("StudyEstimate.se", lambda v: StudyEstimate(0.1, v), [0.45, 2], NOT_POSITIVE),
    ("StudyEstimate.n", lambda v: StudyEstimate(0.1, 0.45, n=v), [70],
     _optional(NOT_COUNTS)),
    ("make_prior.scale", lambda v: make_prior("half-normal", v), [0.5, 2], NOT_POSITIVE),
    ("make_prior.shape", lambda v: make_prior("lomax", 1.0, v), [0.5, 2], NOT_POSITIVE),
    ("scale_for_median", lambda v: scale_for_median("exponential", v), [0.34, 2],
     NOT_POSITIVE),
    ("HeterogeneityPrior.quantile", HN.quantile, [0.9], NOT_LEVELS),
    ("HeterogeneityPrior.isf", HN.isf, [0.1], NOT_LEVELS),
    ("MapPrior.location", lambda v: MapPrior(v, 0.2, HN), [0.3, 2], NOT_NUMBERS),
    ("MapPrior.base_variance", lambda v: MapPrior(0.0, v, HN), [0.2, 2], NOT_POSITIVE),
    ("MapPrior.quantile", MP.quantile, [0.9], NOT_LEVELS),
    ("MapPrior.sample", lambda v: MP.sample(v, 1), [4], NOT_COUNTS),
    ("MapPrior.sample.seed", lambda v: MP.sample(4, v), [1], NOT_COUNTS[:-3] + [-1, 2.5]),
    ("NormalMixture.quantiles", MIXTURE.quantiles, [0.9], NOT_LEVELS),
    ("conditional_moments", lambda v: conditional_moments(SOURCE, v), [0.5, 2],
     NOT_NUMBERS + [-1.0]),
    ("uisd.n", lambda v: uisd(v, 0.45), [70], NOT_COUNTS),
    ("uisd.se", lambda v: uisd(70, v), [0.45, 2], NOT_POSITIVE),
    ("ess_for_map_prior", lambda v: ess_for_map_prior(MP, v), [3.77, 4], NOT_POSITIVE),
    ("ess_elir.uisd", lambda v: ess_elir(lambda x: normal_pdf(x, 1.0), (-6.0, 6.0), v),
     [3.77, 4], NOT_POSITIVE),
    ("ess_elir.support", lambda v: ess_elir(lambda x: normal_pdf(x, 1.0), (-6.0, v), 4.0),
     [6.0, 5], NOT_NUMBERS + [-6.0, -7.0]),
    ("a0_from_tau.tau", lambda v: a0_from_tau(v, 0.45), [0.5, 2], NOT_NUMBERS + [-1.0]),
    ("a0_from_tau.s1", lambda v: a0_from_tau(0.5, v), [0.45, 2], NOT_POSITIVE),
    ("tau_from_a0.a0", lambda v: tau_from_a0(v, 0.45), [0.5, 1],
     NOT_NUMBERS + [0.0, 1.5]),
    ("tau_from_a0.s1", lambda v: tau_from_a0(0.5, v), [0.45, 2], NOT_POSITIVE),
    ("a0_density.a0", lambda v: a0_density(HN, 0.45, v), [0.5, 0],
     NOT_NUMBERS + [-0.1, 1.1]),
    ("a0_density.s1", lambda v: a0_density(HN, v, 0.5), [0.45, 2], NOT_POSITIVE),
    ("posterior_summaries", lambda v: posterior_summaries(POSTERIOR, [v]), [0.95],
     NOT_LEVELS),
    ("run_map_report.levels", lambda v: run_map_report(SOURCE, HN, levels=[v]), [0.9],
     NOT_LEVELS),
    ("run_map_report.uisd", lambda v: run_map_report(SOURCE, HN, uisd_override=v),
     [3.77, 4], _optional(NOT_POSITIVE)),
    ("prior_comparison_table.source_se", lambda v: prior_comparison_table(v, [HN], 3.77),
     [0.451, 1], NOT_POSITIVE),
    ("prior_comparison_table.uisd", lambda v: prior_comparison_table(0.451, [HN], v),
     [3.77, 4], NOT_POSITIVE),
    ("parse_ratio_ci.estimate", lambda v: parse_ratio_ci(v, 0.22, 1.29), [0.53, 1],
     NOT_NUMBERS + [0.22, 1.29]),
    ("parse_ratio_ci.lower", lambda v: parse_ratio_ci(0.53, v, 1.29), [0.22], NOT_POSITIVE),
    ("parse_ratio_ci.upper", lambda v: parse_ratio_ci(0.53, 0.22, v), [1.29, 2],
     NOT_NUMBERS + [0.5]),
    ("parse_ratio_ci.level", lambda v: parse_ratio_ci(0.53, 0.22, 1.29, v), [0.95],
     NOT_LEVELS),
    ("load_studies_csv.level", lambda v: load_studies_csv(ALPORT, level=v), [0.95],
     NOT_LEVELS),
    ("emit_density_grid.lo", lambda v: emit_density_grid(np.sin, v, 2.0, 5, "g.tsv"),
     [-1.5, -1], NOT_NUMBERS),
    ("emit_density_grid.hi", lambda v: emit_density_grid(np.sin, 0.0, v, 5, "g.tsv"),
     [1.5, 2], NOT_NUMBERS + [0.0, -1.0]),
    ("emit_density_grid.points", lambda v: emit_density_grid(np.sin, 0.0, 1.0, v, "g.tsv"),
     [5], NOT_COUNTS + [1]),
]


def _bits(value):
    """A form of ``value`` equal to another's only where every number in
    them has the same type and the same bits."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, dict):
        return {key: _bits(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value).__name__, [_bits(item) for item in value]
    if dataclasses.is_dataclass(value):
        return type(value).__name__, [_bits(getattr(value, f.name))
                                      for f in dataclasses.fields(value) if f.compare]
    if hasattr(value, "read_text"):     # a written file
        return value.read_text()
    return type(value).__name__, repr(value)


@pytest.mark.parametrize("call,valid,invalid", [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_numbers_are_checked_by_one_contract(call, valid, invalid, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)     # for the grid files
    for value in valid:
        # numpy scalars give the result of the Python number, bit for bit
        numpy_value = np.float64(value) if isinstance(value, float) else np.int64(value)
        assert _bits(call(numpy_value)) == _bits(call(value))
        if isinstance(value, float):
            call(np.float32(value))
    for value in invalid:
        with pytest.raises(InvalidParameterError):
            call(value)
