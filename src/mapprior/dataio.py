"""CSV ingestion, ratio-scale conversion, and plot-grid export.

Study CSV schema (header required, column order free)::

    label,scale,estimate,lower,upper,se,n

``scale`` is ``ratio`` or ``linear``.  Ratio rows give the estimate and its
confidence interval on the multiplicative scale (e.g. hazard ratios) and are
converted to log-scale summaries; linear rows give the effect and standard
error directly on the analysis scale.  ``n`` is an optional patient count.
"""

from __future__ import annotations

import csv
import io
import math
from pathlib import Path
from typing import Callable

import numpy as np
from scipy import special

from .errors import DataFormatError, InvalidParameterError, as_count, as_real
from .study import StudyEstimate

__all__ = ["parse_ratio_ci", "load_studies_csv", "emit_density_grid", "REQUIRED_COLUMNS"]

REQUIRED_COLUMNS = ("label", "scale", "estimate", "lower", "upper", "se", "n")


def parse_ratio_ci(estimate: float, lower: float, upper: float,
                   level: float = 0.95) -> tuple[float, float]:
    """Log-scale effect and standard error from a ratio-scale interval.

    The point estimate maps to its logarithm; the standard error is the log
    interval width divided by twice the two-sided normal critical value for
    ``level``.

    Examples
    --------
    >>> parse_ratio_ci(0.53, 0.22, 1.29)   # doctest: +ELLIPSIS
    (-0.63487..., 0.45122...)
    """
    level = as_real(level, "interval level", 0.0, 1.0)
    lower = as_real(lower, "interval lower bound", 0.0)
    estimate = as_real(estimate, "ratio estimate (between lower and upper)", lower)
    upper = as_real(upper, "interval upper bound", estimate)
    z = float(special.ndtri((1.0 + level) / 2.0))
    se = (math.log(upper) - math.log(lower)) / (2.0 * z)
    return math.log(estimate), as_real(se, "standard error of the log interval", 0.0)


def _cell(row: dict, column: str) -> str:
    value = row.get(column)
    return value.strip() if value is not None else ""


def _parse_float(text: str, column: str, line: int) -> float:
    try:
        return float(text)
    except ValueError:
        raise DataFormatError(f"line {line}: column {column!r} is not numeric: {text!r}") from None


def load_studies_csv(path, level: float = 0.95) -> list[StudyEstimate]:
    """Parse and validate study rows; ratio rows are converted to log scale.

    Raises
    ------
    DataFormatError
        On a missing header column, an empty file, or a malformed row
        (reported with its line number).
    """
    level = as_real(level, "interval level", 0.0, 1.0)
    text = Path(path).read_text(encoding="utf-8")
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames is None:
        raise DataFormatError(f"{path}: empty file")
    missing = [c for c in REQUIRED_COLUMNS if c not in reader.fieldnames]
    if missing:
        raise DataFormatError(f"{path}: header lacks columns {', '.join(missing)}")

    studies: list[StudyEstimate] = []
    for line, row in enumerate(reader, start=2):
        label = _cell(row, "label")
        kind = _cell(row, "scale").lower()
        n_text = _cell(row, "n")
        n = None
        if n_text:
            try:
                n = int(n_text)
            except ValueError:
                raise DataFormatError(f"line {line}: column 'n' is not an integer: {n_text!r}") from None
        try:
            if kind == "ratio":
                est = _parse_float(_cell(row, "estimate"), "estimate", line)
                lo = _parse_float(_cell(row, "lower"), "lower", line)
                hi = _parse_float(_cell(row, "upper"), "upper", line)
                y, se = parse_ratio_ci(est, lo, hi, level)
            elif kind == "linear":
                y = _parse_float(_cell(row, "estimate"), "estimate", line)
                se = _parse_float(_cell(row, "se"), "se", line)
            else:
                raise DataFormatError(
                    f"line {line}: scale must be 'ratio' or 'linear', got {kind!r}")
            studies.append(StudyEstimate(y=y, se=se, n=n, label=label))
        except InvalidParameterError as exc:
            raise DataFormatError(f"line {line}: {exc}") from exc
    if not studies:
        raise DataFormatError(f"{path}: no study rows")
    return studies


def emit_density_grid(fn: Callable[[np.ndarray], np.ndarray],
                      lo: float, hi: float, points: int, path) -> Path:
    """Write a two-column TSV grid (abscissa, value) with 12 significant digits."""
    points = as_count(points, "grid points", 2)
    lo = as_real(lo, "grid start")
    x = np.linspace(lo, as_real(hi, "grid end", lo), points)
    y = np.asarray(fn(x), dtype=float)
    lines = [f"{xi:.12g}\t{yi:.12g}" for xi, yi in zip(x.tolist(), y.tolist())]
    out = Path(path)
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return out
