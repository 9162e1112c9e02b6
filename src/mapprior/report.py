"""Analysis reports: orchestration and deterministic serialization.

Reports are plain dicts with a fixed key order and every float rounded to 12
significant digits, so identical inputs serialize to byte-identical JSON.
Effect values are reported as log/ratio pairs with the ratio value always the
exponential of the log value, or ``null`` where that exponential overflows.
Infinite standard deviations appear as an explicit ``null`` with a companion
reason field (TSV renderings leave ``null`` cells blank).
"""

from __future__ import annotations

import json
import math
from typing import Sequence

import numpy as np

from .errors import ConfigurationError, InvalidParameterError, as_real, as_reals
from .information import _ess_and_quantiles, uisd
from .mixture import MapPrior
from .priors import HeterogeneityPrior
from .shrink import interval_width_ratio, posterior_mixture, posterior_summaries
from .study import StudyEstimate

__all__ = [
    "run_map_report",
    "prior_comparison_table",
    "render_json",
    "render_report_tsv",
    "render_table_tsv",
    "round12",
]

#: centered quantile levels of the prior comparison table
TABLE_QUANTILE_LEVELS = (0.95, 0.975, 0.995)


def round12(value: float) -> float:
    """Round to 12 significant digits (the report formatting contract)."""
    return round_to_digits(float(value), 12)


def round_to_digits(node, digits: int):
    """Recursively round every float in a report payload to ``digits``
    significant digits (the CLI's report-rounding flag)."""
    if isinstance(node, float):
        return float(f"{node:.{digits}g}")
    if isinstance(node, dict):
        return {key: round_to_digits(value, digits) for key, value in node.items()}
    if isinstance(node, list):
        return [round_to_digits(value, digits) for value in node]
    return node


def _log_ratio(value: float) -> dict:
    try:
        ratio = round12(math.exp(value))
    except OverflowError:
        ratio = None
    return {"log": round12(value), "ratio": ratio}


def _study_echo(study: StudyEstimate) -> dict:
    return {
        "label": study.label,
        "log_estimate": round12(study.y),
        "se": round12(study.se),
        "n": study.n,
    }


def _resolve_uisd(source: StudyEstimate, uisd_override: float | None) -> float:
    if uisd_override is not None:
        return as_real(uisd_override, "uisd", 0.0)
    if source.n is not None:
        return uisd(source.n, source.se)
    raise ConfigurationError(
        "no unit-information source: the source study has no patient count "
        "and no uisd override was given")


def run_map_report(source: StudyEstimate,
                   tau_prior: HeterogeneityPrior,
                   target: StudyEstimate | None = None,
                   uisd_override: float | None = None,
                   levels: Sequence[float] = (0.95,),
                   sample_check: int | None = None,
                   seed: int = 0) -> dict:
    """Full analysis report: predictive-prior summary, and, when a target
    study is given, the shrinkage summary against it.

    The unit-information standard deviation comes from the source study's
    patient count unless overridden; with neither available a
    :class:`ConfigurationError` is raised.
    """
    levels = as_reals(levels, "interval levels", 0.0, 1.0).ravel().tolist()
    if not levels:
        raise InvalidParameterError("need one or more interval levels")
    map_prior = MapPrior.from_study(source, tau_prior)
    uisd_value = _resolve_uisd(source, uisd_override)
    lv = np.asarray(levels)
    ess, bounds = _ess_and_quantiles(map_prior, uisd_value,
                                     np.concatenate([(1 - lv) / 2, (1 + lv) / 2]))

    sd = map_prior.sd()
    map_block = {
        "location": _log_ratio(map_prior.location),
        "sd_log": round12(sd) if math.isfinite(sd) else None,
    }
    if not math.isfinite(sd):
        map_block["sd_reason"] = "infinite: the heterogeneity prior has no finite second moment"
    lower, upper = bounds.reshape(2, -1)
    map_block["intervals"] = [{"level": level, "lower": _log_ratio(float(lo)),
                               "upper": _log_ratio(float(hi))}
                              for level, lo, hi in zip(levels, lower, upper)]
    map_block["prob_below_zero"] = round12(map_prior.cdf(0.0))
    map_block["uisd"] = round12(uisd_value)
    map_block["ess_elir"] = round12(ess)
    if sample_check:
        draws = map_prior.sample(sample_check, seed)
        map_block["monte_carlo"] = {
            "draws": int(sample_check),
            "seed": int(seed),
            "mean_log": round12(float(np.mean(draws))),
            "sd_log": round12(float(np.std(draws, ddof=1))),
        }

    report = {
        "inputs": {
            "source": _study_echo(source),
            "target": _study_echo(target) if target is not None else None,
            "tau_prior": {
                "spec": tau_prior.spec_string(),
                "family": tau_prior.family,
                "scale": round12(tau_prior.scale),
                "shape": round12(tau_prior.shape) if tau_prior.shape is not None else None,
                "median": round12(tau_prior.median),
            },
            "interval_levels": levels,
        },
        "effect_scale": "log; every 'ratio' value is the exponential of its 'log' value",
        "map_prior": map_block,
    }

    if target is None:
        report["shrinkage"] = None
        return report

    summaries = posterior_summaries(posterior_mixture(map_prior, target), levels)
    shrink_intervals = []
    for level, summary in zip(levels, summaries):
        shrink_intervals.append({
            "level": level,
            "lower": _log_ratio(summary.lower),
            "upper": _log_ratio(summary.upper),
            "width_ratio": round12(interval_width_ratio(summary, target, level)),
        })
    head = summaries[0]
    report["shrinkage"] = {
        "median": _log_ratio(head.median),
        "intervals": shrink_intervals,
        "prob_below_zero": round12(head.prob_below_zero),
    }
    return report


def prior_comparison_table(source_se: float,
                           tau_priors: Sequence[HeterogeneityPrior],
                           uisd_value: float,
                           quantile_levels: Sequence[float] = TABLE_QUANTILE_LEVELS) -> list[dict]:
    """One summary row per heterogeneity prior, at a common source precision.

    Each row carries the prior's median, the mixture's effective sample
    size, its standard deviation (``None`` when infinite) and centered upper
    quantiles of the mixture at the requested levels.
    """
    source_se = as_real(source_se, "source standard error", 0.0)
    rows = []
    for prior in tau_priors:
        mp = MapPrior(location=0.0, base_variance=source_se ** 2, tau_prior=prior)
        sd = mp.sd()
        ess, quants = _ess_and_quantiles(mp, uisd_value, quantile_levels)
        rows.append({
            "family": prior.family,
            "scale": round12(prior.scale),
            "shape": round12(prior.shape) if prior.shape is not None else None,
            "tau_median": round12(prior.median),
            "ess_elir": round12(ess),
            "sd": round12(sd) if math.isfinite(sd) else None,
            "quantiles": {f"{lv:g}": round12(float(q))
                          for lv, q in zip(quantile_levels, quants)},
        })
    return rows


def render_json(payload) -> str:
    """Stable-order JSON with trailing newline."""
    return json.dumps(payload, indent=2) + "\n"


def _tsv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def render_table_tsv(rows: list[dict],
                     quantile_levels: Sequence[float] = TABLE_QUANTILE_LEVELS) -> str:
    """Tab-separated comparison table; infinite standard deviations render
    as empty cells."""
    header = ["family", "scale", "shape", "tau_median", "ess_elir", "sd"]
    header += [f"q{lv:g}" for lv in quantile_levels]
    lines = ["\t".join(header)]
    for row in rows:
        cells = [row["family"], _tsv_cell(row["scale"]), _tsv_cell(row["shape"]),
                 _tsv_cell(row["tau_median"]), _tsv_cell(row["ess_elir"]),
                 _tsv_cell(row["sd"])]
        cells += [_tsv_cell(row["quantiles"][f"{lv:g}"]) for lv in quantile_levels]
        lines.append("\t".join(cells))
    return "\n".join(lines) + "\n"


def render_report_tsv(report: dict) -> str:
    """Flat key/value TSV rendering of a report (infinite values blank)."""
    lines: list[str] = []

    def walk(prefix: str, node) -> None:
        if isinstance(node, dict):
            for key, value in node.items():
                walk(f"{prefix}.{key}" if prefix else key, value)
        elif isinstance(node, list):
            for index, value in enumerate(node):
                walk(f"{prefix}[{index}]", value)
        else:
            lines.append(f"{prefix}\t{_tsv_cell(node)}")

    walk("", report)
    return "\n".join(lines) + "\n"
