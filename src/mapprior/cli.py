"""Command-line interface.

Subcommands
-----------
map      single-study predictive-prior report (JSON or TSV)
shrink   two-study shrinkage report
table2   comparison table of predictive priors across heterogeneity priors
convert  ratio-scale confidence interval -> log-scale estimate and SE
grid     two-column density/CDF grid export for plotting

Exit codes: 0 success, 1 validation/usage error, 2 numeric failure.

:func:`main` builds its parser once per process, on its first call, and
reuses it; :func:`build_parser` returns a fresh one.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
from pathlib import Path

import numpy as np

from .correspond import a0_density
from .dataio import emit_density_grid, load_studies_csv, parse_ratio_ci
from .errors import (
    ConfigurationError,
    DataFormatError,
    EssInstabilityError,
    InvalidParameterError,
    QuadratureError,
    as_count,
)
from .mixture import MapPrior, normal_pdf
from .priors import parse_prior_spec
from .report import (
    render_json,
    render_report_tsv,
    render_table_tsv,
    round12,
    round_to_digits,
    prior_comparison_table,
    run_map_report,
)
from .shrink import posterior_mixture
from .study import StudyEstimate

_GRID_DISTS = ("map-density", "map-cdf", "map-log-density", "posterior",
               "likelihood", "tau-density", "tau-cdf", "a0-density")

#: the study flags that the tau and a0 distributions do not read
_STUDY_FLAGS = ("data", "source", "y", "estimate", "lower", "upper", "n")

#: the flags each grid distribution does not read (default: ``--target``),
#: by dest, which is each flag's name
_GRID_UNREAD = {
    "posterior": (),
    "likelihood": ("target", "prior"),
    "a0-density": ("target", *_STUDY_FLAGS),
    "tau-density": ("target", "se", *_STUDY_FLAGS),
    "tau-cdf": ("target", "se", *_STUDY_FLAGS),
}


class _Parser(argparse.ArgumentParser):
    """Argument parser for the CLI and, as their parser class, its
    subcommands."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads "-5e-05" as an option unless it looks like a
        # negative number, and its own pattern has no exponent form
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")

    # usage problems are validation errors: exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_output_options(p: argparse.ArgumentParser, default_format: str = "json"):
    p.add_argument("--out", default="-", metavar="PATH",
                   help="output file (default: stdout)")
    p.add_argument("--format", choices=("json", "tsv"), default=default_format,
                   help=f"output format (default: {default_format})")
    p.add_argument("--round", dest="round_digits", type=int, metavar="N",
                   help="round reported numbers to N significant digits "
                        "(default: 12)")


def _add_study_options(p: argparse.ArgumentParser):
    p.add_argument("--data", metavar="CSV", help="study CSV file")
    p.add_argument("--source", "--study", dest="source", metavar="LABEL",
                   help="source study label in --data (default: first row)")
    p.add_argument("--y", type=float, help="effect estimate on the log scale")
    p.add_argument("--se", type=float, help="standard error on the log scale")
    p.add_argument("--estimate", type=float, help="ratio-scale point estimate")
    p.add_argument("--lower", type=float, help="ratio-scale interval lower bound")
    p.add_argument("--upper", type=float, help="ratio-scale interval upper bound")
    p.add_argument("--n", type=int, help="patient count behind the estimate")
    p.add_argument("--label", default="", help="label for a directly given study")
    p.add_argument("--ci-level", type=float, default=0.95,
                   help="confidence level of ratio-scale intervals (default 0.95)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mapprior",
                     description="Predictive priors from a single external study")
    sub = parser.add_subparsers(dest="command", required=True)

    p_map = sub.add_parser("map", help="single-study predictive-prior report")
    _add_study_options(p_map)
    p_map.add_argument("--prior", required=True, metavar="SPEC",
                       help='heterogeneity prior, e.g. "half-normal(0.5)"')
    p_map.add_argument("--uisd", type=float,
                       help="unit-information SD override (else derived from n)")
    p_map.add_argument("--level", type=float, action="append",
                       help="interval level, repeatable (default 0.95)")
    p_map.add_argument("--sample-check", type=int, metavar="N",
                       help="append a Monte Carlo moment check with N draws")
    p_map.add_argument("--seed", type=int, default=0, help="seed for --sample-check")
    _add_output_options(p_map)

    p_shr = sub.add_parser("shrink", help="two-study shrinkage report")
    p_shr.add_argument("--data", required=True, metavar="CSV", help="study CSV file")
    p_shr.add_argument("--source", metavar="LABEL",
                       help="source study label (default: first row)")
    p_shr.add_argument("--target", metavar="LABEL",
                       help="target study label (default: second row)")
    p_shr.add_argument("--prior", required=True, metavar="SPEC")
    p_shr.add_argument("--uisd", type=float)
    p_shr.add_argument("--level", type=float, action="append")
    p_shr.add_argument("--ci-level", type=float, default=0.95)
    _add_output_options(p_shr)

    p_tab = sub.add_parser("table2",
                           help="comparison table of predictive priors")
    p_tab.add_argument("--se", type=float, required=True,
                       help="source standard error shared by all rows")
    p_tab.add_argument("--uisd", type=float, required=True,
                       help="unit-information SD for the ESS column")
    p_tab.add_argument("--prior", action="append", default=[], metavar="SPEC",
                       help="heterogeneity prior, repeatable (one table row each)")
    p_tab.add_argument("--quantile-level", type=float, action="append",
                       help="centered quantile level column (default 0.95 0.975 0.995)")
    _add_output_options(p_tab, default_format="tsv")

    p_conv = sub.add_parser("convert",
                            help="ratio-scale CI -> log-scale estimate and SE")
    p_conv.add_argument("--estimate", type=float, required=True)
    p_conv.add_argument("--lower", type=float, required=True)
    p_conv.add_argument("--upper", type=float, required=True)
    p_conv.add_argument("--ci-level", type=float, default=0.95)
    _add_output_options(p_conv)

    p_grid = sub.add_parser("grid", help="density/CDF grid export")
    _add_study_options(p_grid)
    p_grid.add_argument("--dist", required=True, choices=_GRID_DISTS)
    p_grid.add_argument("--prior", metavar="SPEC")
    p_grid.add_argument("--target", metavar="LABEL",
                        help="target study label for --dist posterior (default: second row)")
    p_grid.add_argument("--from", dest="lo", type=float, help="grid start")
    p_grid.add_argument("--to", dest="hi", type=float, help="grid end")
    p_grid.add_argument("--points", type=int, default=200)
    p_grid.add_argument("--out", required=True, metavar="PATH")
    return parser


#: the parser of :func:`main`; parsing keeps no state in it
_parser = functools.cache(build_parser)


def _direct_study(args) -> StudyEstimate | None:
    ratio_flags = (args.estimate is not None or args.lower is not None
                   or args.upper is not None)
    if args.y is not None or args.se is not None:
        if ratio_flags:
            raise ConfigurationError(
                "give either log-scale (--y/--se) or ratio-scale "
                "(--estimate/--lower/--upper) input, not both")
        if args.y is None or args.se is None:
            raise ConfigurationError("direct log-scale input needs both --y and --se")
        return StudyEstimate(y=args.y, se=args.se, n=args.n, label=args.label)
    if ratio_flags:
        if None in (args.estimate, args.lower, args.upper):
            raise ConfigurationError(
                "ratio-scale input needs --estimate, --lower and --upper")
        y, se = parse_ratio_ci(args.estimate, args.lower, args.upper, args.ci_level)
        return StudyEstimate(y=y, se=se, n=args.n, label=args.label)
    return None


def _pick(studies: list[StudyEstimate], label: str | None, default_index: int,
          path: str) -> StudyEstimate:
    if label is None:
        if default_index >= len(studies):
            raise ConfigurationError(
                f"{path}: need at least {default_index + 1} study rows")
        return studies[default_index]
    matches = [s for s in studies if s.label == label]
    if not matches:
        raise ConfigurationError(f"{path}: no study labelled {label!r}")
    if len(matches) > 1:
        raise ConfigurationError(f"{path}: label {label!r} is ambiguous")
    return matches[0]


def _resolve_studies(args, with_target=False) -> tuple[StudyEstimate, StudyEstimate | None]:
    """The source study, from ``--data`` or direct estimates, and with
    ``with_target`` the target from ``--data`` (else None); every refusal to
    pick a study is raised here."""
    direct = _direct_study(args) if "y" in args else None  # shrink has no direct flags
    if args.data is None:
        if with_target:
            raise ConfigurationError("--dist posterior needs --data")  # shrink requires it
        if direct is None:
            raise ConfigurationError(
                "no study given: use --data or direct --y/--se or --estimate/--lower/--upper")
        return direct, None
    if direct is not None:
        raise ConfigurationError("give either --data or direct estimates, not both")
    studies = load_studies_csv(args.data, level=args.ci_level)
    source = _pick(studies, args.source, 0, args.data)
    if not with_target:
        return source, None
    target = _pick(studies, args.target, 1, args.data)
    if source is target:
        raise ConfigurationError("source and target are the same study row")
    return source, target


def _emit(payload, args, render_tsv) -> None:
    """Round ``payload`` as ``--round`` asks, render it as JSON or TSV and
    write it to ``--out``."""
    if args.round_digits is not None:
        payload = round_to_digits(payload, as_count(args.round_digits, "--round digits"))
    text = render_json(payload) if args.format == "json" else render_tsv(payload)
    if args.out == "-":
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text, encoding="utf-8")


def _cmd_map(args) -> None:
    source, _ = _resolve_studies(args)
    prior = parse_prior_spec(args.prior)
    report = run_map_report(source, prior, uisd_override=args.uisd,
                            levels=args.level or [0.95],
                            sample_check=args.sample_check, seed=args.seed)
    _emit(report, args, render_report_tsv)


def _cmd_shrink(args) -> None:
    source, target = _resolve_studies(args, with_target=True)
    prior = parse_prior_spec(args.prior)
    report = run_map_report(source, prior, target=target, uisd_override=args.uisd,
                            levels=args.level or [0.95])
    _emit(report, args, render_report_tsv)


def _cmd_table2(args) -> None:
    priors = [parse_prior_spec(spec) for spec in args.prior]
    levels = args.quantile_level or [0.95, 0.975, 0.995]
    rows = prior_comparison_table(args.se, priors, args.uisd, quantile_levels=levels)
    _emit(rows, args, lambda r: render_table_tsv(r, quantile_levels=levels))


def _cmd_convert(args) -> None:
    y, se = parse_ratio_ci(args.estimate, args.lower, args.upper, args.ci_level)
    payload = {"log_estimate": round12(y), "se": round12(se), "level": args.ci_level}
    _emit(payload, args, lambda p: f"log_estimate\t{p['log_estimate']:.12g}\n"
                                   f"se\t{p['se']:.12g}\n")


def _grid_function(args):
    for dest in _GRID_UNREAD.get(args.dist, ("target",)):
        if getattr(args, dest) is not None:
            raise ConfigurationError(f"--dist {args.dist} does not read --{dest}")
    prior = parse_prior_spec(args.prior) if args.prior is not None else None
    if args.dist != "likelihood" and prior is None:
        raise ConfigurationError(f"--dist {args.dist} needs --prior")

    if args.dist in ("tau-density", "tau-cdf"):
        return (prior.density if args.dist == "tau-density" else prior.cdf), (0.0, None)

    if args.dist == "a0-density":
        if args.se is None:
            raise ConfigurationError("--dist a0-density needs --se (the source SE)")
        return (lambda x: a0_density(prior, args.se, x)), (1e-6, 1.0 - 1e-6)

    source, target = _resolve_studies(args, with_target=args.dist == "posterior")
    if target is not None:
        return posterior_mixture(MapPrior.from_study(source, prior), target).density, (None, None)
    if args.dist == "likelihood":
        return (lambda x: normal_pdf(x - source.y, 1.0 / source.variance)), (None, None)

    mp = MapPrior.from_study(source, prior)
    if args.dist == "map-density":
        return mp.density, (None, None)
    if args.dist == "map-cdf":
        return mp.cdf, (None, None)

    def log_density(x):
        p = mp.density(x)
        if np.all(p > 0.0):     # the rule check holds the far tail only absolutely
            return np.log(p)
        raise QuadratureError(f"the MAP density underflows at theta = {x[np.argmin(p > 0.0)]:.12g}")

    return log_density, (None, None)


def _cmd_grid(args) -> None:
    fn, (default_lo, default_hi) = _grid_function(args)
    lo = args.lo if args.lo is not None else default_lo
    hi = args.hi if args.hi is not None else default_hi
    if lo is None or hi is None:
        raise ConfigurationError("--dist %s needs --from and --to" % args.dist)
    emit_density_grid(fn, lo, hi, args.points, args.out)


_COMMANDS = {
    "map": _cmd_map,
    "shrink": _cmd_shrink,
    "table2": _cmd_table2,
    "convert": _cmd_convert,
    "grid": _cmd_grid,
}


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        _COMMANDS[args.command](args)
    except (DataFormatError, InvalidParameterError, ConfigurationError) as exc:
        print(f"mapprior: error: {exc}", file=sys.stderr)
        return 1
    except (QuadratureError, EssInstabilityError) as exc:
        print(f"mapprior: numeric failure: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
