"""The four workloads: seeded inputs and the operations that consume them.

Each workload is a closed loop of operations grouped in rounds.  A round is
one pass over the workload's base inputs: a fixed list that spans the
families, shapes and scale ratios the workload is about.  Round 0 uses the
base inputs exactly; it holds the published examples (the nine Table-2
priors, the Alport example), and it is the part the traced run counts work
on, so its counts repeat exactly, whatever the seed.  Rounds 1, 2, ...
perturb every base location, standard error and prior scale by a few
percent with
``numpy.random.default_rng((seed, round))``.  So every operation of a run
has fresh inputs (nothing a per-prior cache could reuse across operations),
the same seed always gives the same inputs, and every round, whatever the
seed, costs about the same: the seed changes the details, not the mix of
work.

Operations call mapprior through module attributes at call time, so the
traced run's wrappers (see ``tracing.py``) are seen.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

import mapprior
import mapprior.cli

FAMILIES = ("half-normal", "half-student-t", "half-cauchy", "half-logistic",
            "exponential", "lomax", "uniform")
SHAPED = ("half-student-t", "lomax")

#: relative size of the per-round perturbation of the base inputs
JITTER = 0.05

#: published comparison table at source SE 0.451 (70 patients): family,
#: shape, scale ("match" = scaled to the half-normal(0.5) median), tau
#: median, ESS, sd (None = infinite), and the 0.95 / 0.975 / 0.995 quantiles
TABLE2 = (
    ("half-normal", None, 0.50, 0.34, 26.6, 0.84, (1.32, 1.72, 2.72)),
    ("half-normal", None, 0.25, 0.17, 45.7, 0.57, (0.93, 1.13, 1.62)),
    ("half-normal", None, 1.00, 0.67, 12.8, 1.48, (2.35, 3.18, 5.19)),
    ("half-student-t", 4.0, "match", 0.34, 25.3, 1.02, (1.45, 1.98, 3.58)),
    ("half-cauchy", None, "match", 0.34, 23.4, None, (2.45, 4.85, 24.02)),
    ("half-logistic", None, "match", 0.34, 25.8, 0.91, (1.39, 1.85, 3.09)),
    ("exponential", None, "match", 0.34, 24.5, 1.07, (1.56, 2.19, 3.96)),
    ("lomax", 6.0, "match", 0.34, 24.0, 1.31, (1.70, 2.50, 5.05)),
    ("lomax", 1.0, "match", 0.34, 23.1, None, (3.29, 7.05, 37.17)),
)
TABLE2_SE = 0.451
TABLE2_N = 70
TABLE_LEVELS = ("0.95", "0.975", "0.995")

#: the Alport example: observational source, RCT target (hazard ratios
#: with 95% intervals, and patient counts)
ALPORT_SOURCE = (0.53, 0.22, 1.29, 70)
ALPORT_TARGET = (0.51, 0.12, 2.20, 20)
#: published shrinkage result under half-normal(0.5): median HR, 95%
#: interval, and width relative to the RCT alone
ALPORT_PUBLISHED = {"median": 0.52, "lower": 0.19, "upper": 1.39, "width_ratio": 0.67}

#: the acceptance suite draws its equivalence problems from this seed
ACCEPTANCE_SEED = 20240814
#: fixed draws for the base inputs of borrowing_report and grid_export
BASE_SEED = 2505

GRID_DISTS = ("map-density", "map-cdf", "map-log-density", "a0-density", "tau-density")
GRID_POINTS = 200


def standard_median(family: str, shape: float | None) -> float:
    """Median of the scale-1 member, from the family's definition."""
    if family == "half-normal":
        return NormalDist().inv_cdf(0.75)
    if family == "half-student-t":
        from scipy import special
        return float(special.stdtrit(shape, 0.75))
    if family == "half-cauchy":
        return 1.0                         # tan(pi / 4)
    if family == "half-logistic":
        return math.log(3.0)
    if family == "exponential":
        return math.log(2.0)
    if family == "lomax":
        return 2.0 ** (1.0 / shape) - 1.0
    if family == "uniform":
        return 0.5
    raise ValueError(family)


COMMON_MEDIAN = 0.5 * standard_median("half-normal", None)


def spec_for_median(family: str, median: float, shape: float | None = None):
    return (family, median / standard_median(family, shape), shape)


def spec_string(spec) -> str:
    family, scale, shape = spec
    return f"{family}({scale!r})" if shape is None else f"{family}({scale!r},{shape!r})"


class _Jitter:
    """Perturbs base inputs by up to ``JITTER``; the identity in round 0."""

    def __init__(self, rng):
        self.rng = rng

    def scale(self, value):
        if self.rng is None or value is None:
            return value
        return value * math.exp(self.rng.uniform(-JITTER, JITTER))

    def shift(self, value: float, unit: float) -> float:
        return value if self.rng is None else value + unit * self.rng.uniform(-JITTER, JITTER)

    def spec(self, spec):
        """The scale moves; the shape is part of the round's structure (and
        mapprior cannot yet invert Lomax mixtures with a shape in [0.5, 1.2]
        other than exactly 1, so the Table-2 Lomax(1) row must stay at 1)."""
        family, scale, shape = spec
        return (family, self.scale(scale), shape)

    def study(self, study):
        y, se, n = study
        return (self.shift(y, se), self.scale(se), n)


@dataclass
class Op:
    """One operation: its inputs (as plain numbers) and the call to time."""

    round: int
    kind: str
    params: dict
    call: object = field(repr=False)
    output: object = field(default=None, repr=False)
    latency: float = 0.0


def _study(study, label):
    y, se, n = study
    return mapprior.StudyEstimate(y=y, se=se, n=n, label=label)


# -- base inputs --------------------------------------------------------------


def _design_base():
    """The nine Table-2 priors, then one median-matched prior per family."""
    specs = [(family, scale, shape) if scale != "match"
             else spec_for_median(family, COMMON_MEDIAN, shape)
             for family, shape, scale, *_ in TABLE2]
    specs += [spec_for_median(f, COMMON_MEDIAN, {"half-student-t": 5.0, "lomax": 4.0}.get(f))
              for f in FAMILIES]
    return specs


def _borrowing_base():
    """The Alport example, then one drawn source/target/prior per family."""
    rng = np.random.default_rng(BASE_SEED)
    alport = (mapprior.parse_ratio_ci(*ALPORT_SOURCE[:3]) + ALPORT_SOURCE[3:],
              mapprior.parse_ratio_ci(*ALPORT_TARGET[:3]) + ALPORT_TARGET[3:])
    problems = [(*alport, ("half-normal", 0.5, None))]
    for family in FAMILIES:
        y1 = float(rng.uniform(-1.0, 1.0))
        source = (y1, float(rng.uniform(0.2, 0.6)), int(rng.integers(30, 300)))
        target = (y1 + float(rng.uniform(-1.0, 1.0)), float(rng.uniform(0.2, 0.8)),
                  int(rng.integers(20, 200)))
        shape = float(rng.uniform(3.0, 8.0)) if family in SHAPED else None
        median = COMMON_MEDIAN * math.exp(rng.uniform(-0.6, 0.6))
        problems.append((source, target, spec_for_median(family, median, shape)))
    return problems


def _route_base():
    """Two problems per family from the acceptance suite's random-instance
    distribution: estimates in [-2, 2], standard errors in [0.05, 1.5],
    prior scale in [0.05, 2], shapes in [0.5, 8]."""
    rng = np.random.default_rng(ACCEPTANCE_SEED)
    problems = []
    for family in FAMILIES * 2:
        y1, y2 = (float(v) for v in rng.uniform(-2.0, 2.0, size=2))
        s1, s2 = (float(v) for v in rng.uniform(0.05, 1.5, size=2))
        shape = float(rng.uniform(0.5, 8.0)) if family in SHAPED else None
        problems.append(((y1, s1, None), (y2, s2, None),
                         (family, float(rng.uniform(0.05, 2.0)), shape)))
    return problems


def _grid_base():
    """One study and median-matched prior per family, and one interval."""
    rng = np.random.default_rng(BASE_SEED)
    rows = []
    for family in FAMILIES:
        study = (float(rng.uniform(-1.0, 1.0)), float(rng.uniform(0.1, 0.8)), None)
        shape = float(rng.uniform(3.0, 8.0)) if family in SHAPED else None
        median = COMMON_MEDIAN * math.exp(rng.uniform(-0.6, 0.6))
        rows.append((study, spec_for_median(family, median, shape)))
    return rows, ALPORT_SOURCE[:3]


# -- rounds -------------------------------------------------------------------


def _design_round(jitter, r: int) -> list[Op]:
    uisd = math.sqrt(TABLE2_N) * TABLE2_SE
    ops = []
    for index, base in enumerate(_design_base()):
        spec = jitter.spec(base)
        prior = mapprior.make_prior(*spec)
        table2 = index if r == 0 and index < len(TABLE2) else None
        ops.append(Op(r, "table_row",
                      {"spec": spec, "se": TABLE2_SE, "uisd": uisd, "table2": table2},
                      lambda p=prior: mapprior.prior_comparison_table(TABLE2_SE, [p], uisd)[0]))
    return ops


def _borrowing_round(jitter, r: int) -> list[Op]:
    ops = []
    for index, (source, target, spec) in enumerate(_borrowing_base()):
        source, target, spec = jitter.study(source), jitter.study(target), jitter.spec(spec)
        s, t, p = _study(source, "source"), _study(target, "target"), mapprior.make_prior(*spec)
        ops.append(Op(r, "report",
                      {"spec": spec, "y1": source[0], "s1": source[1], "n1": source[2],
                       "y2": target[0], "s2": target[1], "alport": r == 0 and index == 0},
                      lambda s=s, t=t, p=p: mapprior.run_map_report(s, p, target=t)))
    return ops


def _route_round(jitter, r: int) -> list[Op]:
    ops = []
    for source, target, spec in _route_base():
        source, target, spec = jitter.study(source), jitter.study(target), jitter.spec(spec)
        s, t, p = _study(source, "source"), _study(target, "target"), mapprior.make_prior(*spec)
        ops.append(Op(r, "routes",
                      {"spec": spec, "y1": source[0], "s1": source[1],
                       "y2": target[0], "s2": target[1]},
                      lambda s=s, t=t, p=p: _three_routes(s, t, p)))
    return ops


def _three_routes(source, target, prior):
    return {
        "shrinkage": mapprior.shrinkage_posterior(source, target, prior),
        "mac": mapprior.mac_oracle(source, target, prior),
        "reference": mapprior.reference_model_posterior(source, target, prior),
    }


def _trapezoid_cdf(grid, dens):
    """Unnormalized cumulative trapezoid, so a mis-scaled density shows."""
    steps = np.diff(grid)
    return np.concatenate(([0.0], np.cumsum(0.5 * steps * (dens[1:] + dens[:-1]))))


def digest_routes(routes: dict) -> dict:
    """What the checks need from one route_agreement output, taken right
    after the operation so the 4001-point grids are not kept for the run."""
    post = routes["shrinkage"]
    out = {
        "sup_mac": float(np.max(np.abs(post.density - routes["mac"].density))),
        "sup_reference": float(np.max(np.abs(post.density - routes["reference"].density))),
    }
    for name, route in routes.items():
        grid, dens = np.asarray(route.grid), np.asarray(route.density)
        cumulative = _trapezoid_cdf(grid, dens)
        peak = int(np.argmax(dens))
        out[name] = {
            "mass": float(cumulative[-1]),
            "prob_below_zero": float(np.interp(0.0, grid, cumulative)),
            "prob_below_zero_coarse": float(
                np.interp(0.0, grid[::2], _trapezoid_cdf(grid[::2], dens[::2]))),
            "peak_x": float(grid[peak]),
            "peak_density": float(dens[peak]),
        }
    return out


def _grid_round(jitter, r: int, out_dir: str) -> list[Op]:
    """Every grid distribution for one fresh prior per family (each command
    parses its own), then one ratio-interval conversion."""
    rows, interval = _grid_base()
    ops = []
    for study, spec in rows:
        (y, se, _), spec = jitter.study(study), jitter.spec(spec)
        median = spec[1] * standard_median(spec[0], spec[2])
        span = 6.0 * (se + 2.0 * median)
        for dist in GRID_DISTS:
            path = os.path.join(out_dir, f"r{r}-{spec[0]}-{dist}.tsv")
            # numbers go as --flag=value: argparse takes "--y -5e-05" for
            # two flags, so a negative number in exponent form fails
            if dist.startswith("map-"):
                lo, hi = y - span, y + span
                argv = ["grid", f"--y={y!r}", f"--se={se!r}"]
            elif dist == "a0-density":
                lo, hi = 1e-6, 1.0 - 1e-6
                argv = ["grid", f"--se={se!r}"]
            else:
                lo, hi = 0.0, 8.0 * median
                argv = ["grid"]
            argv += ["--prior", spec_string(spec), "--dist", dist,
                     f"--from={lo!r}", f"--to={hi!r}",
                     "--points", str(GRID_POINTS), "--out", path]
            ops.append(Op(r, dist, {"spec": spec, "y": y, "se": se, "lo": lo, "hi": hi,
                                    "points": GRID_POINTS, "path": path},
                          lambda a=argv: mapprior.cli.main(a)))
    estimate, lower, upper = (jitter.scale(v) for v in interval)
    path = os.path.join(out_dir, f"r{r}-convert.json")
    argv = ["convert", f"--estimate={estimate!r}", f"--lower={lower!r}",
            f"--upper={upper!r}", "--out", path]
    ops.append(Op(r, "convert", {"estimate": estimate, "lower": lower, "upper": upper,
                                 "path": path},
                  lambda a=argv: mapprior.cli.main(a)))
    return ops



def make_round(workload: str, seed: int, r: int, out_dir: str) -> list[Op]:
    """The operations of round ``r``; round 0 ignores the seed."""
    jitter = _Jitter(np.random.default_rng((seed, r)) if r else None)
    if workload == "design_table":
        return _design_round(jitter, r)
    if workload == "borrowing_report":
        return _borrowing_round(jitter, r)
    if workload == "route_agreement":
        return _route_round(jitter, r)
    if workload == "grid_export":
        return _grid_round(jitter, r, out_dir)
    raise ValueError(f"unknown workload {workload!r}")
