"""Output checks: every operation's output against ``oracle.py``.

Each check returns a list of failure messages (empty when the output is
right).  Tolerances follow the accuracy of mapprior's methods, never a saved
copy of its output: quantiles are inverted to 1e-8 in probability, mixing
integrals converge to 1e-9 relative and reports round to 12 significant
digits.  Posteriors are trapezoidal on a 4001-point grid, whose error was
measured against the joint model over many problems.
"""

from __future__ import annotations

import json
import math

import numpy as np

import oracle
from workloads import ALPORT_PUBLISHED, TABLE2, TABLE_LEVELS, spec_string

#: |F(q) - level| for a mixture quantile: the inversion tolerance (1e-8)
#: plus room for the two quadratures
QUANTILE_PROB_TOL = 2e-8
#: mixture CDF and sd values, which mapprior computes directly
MIXTURE_PROB_TOL = 1e-8
SD_REL_TOL = 1e-8
#: grid posteriors: a report gives probabilities from the trapezoidal CDF
#: on a 4001-point grid, linearly interpolated.  Against the joint model
#: they were off by at most 4.3e-6 over 1440 borrowing_report problems.
POSTERIOR_PROB_TOL = 1e-5
#: route_agreement sees the grid, so its P(<0) tolerance is this floor plus
#: four times the trapezoidal error estimated from the grid itself
#: (Richardson: a third of the change from halving the points), which the
#: true error stayed below 1.5 times over 840 acceptance-suite problems
ROUTE_PROB_FLOOR = 2e-6
POSTERIOR_MASS_TOL = 1e-9
POSTERIOR_DENSITY_REL_TOL = 1e-6
#: acceptance-suite sup-norm tolerances between the routes
SUP_MAC_TOL = 1e-4
SUP_REFERENCE_TOL = 1e-3
#: TSV values carry 12 significant digits
GRID_REL_TOL = 1e-7
ROUND12_REL_TOL = 1e-11
#: local information of a normal scale mixture is at most 1/s1^2, so
#: ESS <= (uisd/s1)^2; the slack covers the finite-difference curvature
ESS_SLACK = 1e-6


def _close(got, want, rel, abs_tol=0.0) -> bool:
    return abs(got - want) <= max(rel * abs(want), abs_tol)


# -- the predictive mixture (design_table, and the map block of reports) ---


def check_mixture_quantile(spec, y1, s1, q, level) -> list[str]:
    if level >= 0.5:
        err = oracle.mixture_sf(spec, s1, q - y1) - (1.0 - level)
    else:
        err = oracle.mixture_sf(spec, s1, y1 - q) - level
    if not abs(err) <= QUANTILE_PROB_TOL:
        return [f"quantile {level} = {q!r}: F(q) - level = {err:.2e}"]
    return []


def check_sd(spec, s1, sd) -> list[str]:
    want = oracle.mixture_sd(spec, s1)
    if want is None or sd is None:
        if want is not sd:
            return [f"sd {sd!r} but the second moment "
                    f"{'diverges' if want is None else 'is finite'}"]
        return []
    if not _close(sd, want, SD_REL_TOL):
        return [f"sd {sd!r} vs {want!r}"]
    return []


def check_ess(ess, uisd, s1) -> list[str]:
    bound = (uisd / s1) ** 2
    if not (0.0 < ess <= bound * (1.0 + ESS_SLACK)):
        return [f"ESS {ess!r} outside (0, (uisd/s1)^2 = {bound!r}]"]
    return []


def check_table_row(params, row) -> list[str]:
    spec, se, uisd = params["spec"], params["se"], params["uisd"]
    failures = []
    for level in TABLE_LEVELS:
        failures += check_mixture_quantile(spec, 0.0, se, row["quantiles"][level], float(level))
    failures += check_sd(spec, se, row["sd"])
    failures += check_ess(row["ess_elir"], uisd, se)
    if params["table2"] is not None:
        failures += check_table2_published(params["table2"], row)
    return [f"{spec_string(spec)}: {f}" for f in failures]


def check_table2_published(index, row) -> list[str]:
    """The acceptance suite's tolerances on the published row."""
    _, _, scale, median, ess, sd, quantiles = TABLE2[index]
    failures = []
    if scale != "match" and abs(row["tau_median"] - median) > 0.005:
        failures.append(f"published median {median} vs {row['tau_median']}")
    if abs(row["ess_elir"] - ess) > max(0.5, 0.02 * ess):
        failures.append(f"published ESS {ess} vs {row['ess_elir']}")
    if (sd is None) != (row["sd"] is None) or (sd is not None and abs(row["sd"] - sd) > 0.01):
        failures.append(f"published sd {sd} vs {row['sd']}")
    for level, ref in zip(TABLE_LEVELS, quantiles):
        if abs(row["quantiles"][level] - ref) > 0.01 * ref:
            failures.append(f"published q{level} {ref} vs {row['quantiles'][level]}")
    return failures


# -- borrowing_report -----------------------------------------------------


def _log_ratio_ok(pair) -> bool:
    return _close(pair["ratio"], math.exp(pair["log"]), ROUND12_REL_TOL)


def check_report(params, report) -> list[str]:
    spec, y1, s1, y2, s2 = (params[k] for k in ("spec", "y1", "s1", "y2", "s2"))
    failures = []
    block = report["map_prior"]
    uisd = math.sqrt(params["n1"]) * s1
    if not _close(block["uisd"], uisd, ROUND12_REL_TOL):
        failures.append(f"uisd {block['uisd']!r} vs {uisd!r}")
    failures += check_sd(spec, s1, block["sd_log"])
    failures += check_ess(block["ess_elir"], uisd, s1)
    interval = block["intervals"][0]
    failures += check_mixture_quantile(spec, y1, s1, interval["lower"]["log"], 0.025)
    failures += check_mixture_quantile(spec, y1, s1, interval["upper"]["log"], 0.975)
    below = oracle.mixture_cdf(spec, y1, s1, 0.0)
    if not abs(block["prob_below_zero"] - below) <= MIXTURE_PROB_TOL:
        failures.append(f"prior P(<0) {block['prob_below_zero']!r} vs {below!r}")

    shrink = report["shrinkage"]
    joint = oracle.JointPosterior(spec, y1, s1, y2, s2)
    sinterval = shrink["intervals"][0]
    for name, x, level in (("median", shrink["median"]["log"], 0.5),
                           ("lower", sinterval["lower"]["log"], 0.025),
                           ("upper", sinterval["upper"]["log"], 0.975)):
        err = joint.cdf(x) - level
        if not abs(err) <= POSTERIOR_PROB_TOL:
            failures.append(f"posterior {name} {x!r}: F - {level} = {err:.2e}")
    below = joint.cdf(0.0)
    if not abs(shrink["prob_below_zero"] - below) <= POSTERIOR_PROB_TOL:
        failures.append(f"posterior P(<0) {shrink['prob_below_zero']!r} vs {below!r}")
    z = 1.959963984540054    # Phi^-1(0.975)
    ratio = (sinterval["upper"]["log"] - sinterval["lower"]["log"]) / (2.0 * z * s2)
    if not _close(sinterval["width_ratio"], ratio, 1e-9):
        failures.append(f"width ratio {sinterval['width_ratio']!r} vs {ratio!r}")
    pairs = [block["location"], interval["lower"], interval["upper"], shrink["median"],
             sinterval["lower"], sinterval["upper"]]
    if not all(_log_ratio_ok(p) for p in pairs):
        failures.append("a ratio value is not exp(log value)")
    if params["alport"]:
        failures += check_alport_published(shrink)
    return [f"{spec_string(spec)}: {f}" for f in failures]


def check_alport_published(shrink) -> list[str]:
    """The published Alport result, to the acceptance suite's 0.01."""
    got = {"median": shrink["median"]["ratio"],
           "lower": shrink["intervals"][0]["lower"]["ratio"],
           "upper": shrink["intervals"][0]["upper"]["ratio"],
           "width_ratio": shrink["intervals"][0]["width_ratio"]}
    return [f"published Alport {k} {v} vs {got[k]!r}"
            for k, v in ALPORT_PUBLISHED.items() if abs(got[k] - v) > 0.01]


# -- route_agreement ------------------------------------------------------


def check_routes(params, digest) -> list[str]:
    spec, y1, s1, y2, s2 = (params[k] for k in ("spec", "y1", "s1", "y2", "s2"))
    failures = []
    if not digest["sup_mac"] < SUP_MAC_TOL:
        failures.append(f"shrinkage vs mac_oracle sup {digest['sup_mac']:.2e}")
    if not digest["sup_reference"] < SUP_REFERENCE_TOL:
        failures.append(f"shrinkage vs reference sup {digest['sup_reference']:.2e}")
    joint = oracle.JointPosterior(spec, y1, s1, y2, s2)
    below = joint.cdf(0.0)
    for name in ("shrinkage", "mac", "reference"):
        route = digest[name]
        if not abs(route["mass"] - 1.0) <= POSTERIOR_MASS_TOL:
            failures.append(f"{name}: mass {route['mass']!r}")
        estimated = abs(route["prob_below_zero_coarse"] - route["prob_below_zero"]) / 3.0
        if not abs(route["prob_below_zero"] - below) <= ROUTE_PROB_FLOOR + 4.0 * estimated:
            failures.append(f"{name}: P(<0) {route['prob_below_zero']!r} vs {below!r}")
        want = joint.density(route["peak_x"])
        if not _close(route["peak_density"], want, POSTERIOR_DENSITY_REL_TOL):
            failures.append(f"{name}: peak density {route['peak_density']!r} vs {want!r}")
    return [f"{spec_string(spec)}: {f}" for f in failures]


# -- grid_export ----------------------------------------------------------


def read_tsv(path) -> np.ndarray:
    with open(path, encoding="utf-8") as handle:
        rows = [line.split("\t") for line in handle.read().splitlines()]
    return np.array(rows, dtype=float)


def check_grid(kind, params, table, sample: int) -> list[str]:
    """One exported TSV; ``sample`` picks the row compared to the oracle."""
    points, lo, hi = params["points"], params["lo"], params["hi"]
    if table.shape != (points, 2):
        return [f"{kind}: shape {table.shape}, want ({points}, 2)"]
    x, y = table[:, 0], table[:, 1]
    failures = []
    if not np.allclose(x, np.linspace(lo, hi, points), rtol=ROUND12_REL_TOL, atol=1e-12):
        failures.append(f"{kind}: abscissae are not the requested grid")
    if not np.all(np.isfinite(y)):
        return failures + [f"{kind}: non-finite values"]
    spec = params["spec"]
    i = sample % points
    if kind == "map-density":
        want = oracle.mixture_density(spec, params["y"], params["se"], x[i])
        if not _close(y[i], want, GRID_REL_TOL):
            failures.append(f"{kind}: row {i} {y[i]!r} vs {want!r}")
    elif kind == "map-cdf":
        if np.any(np.diff(y) < 0.0) or y[0] < 0.0 or y[-1] > 1.0:
            failures.append(f"{kind}: not monotone within [0, 1]")
        want = oracle.mixture_cdf(spec, params["y"], params["se"], x[i])
        if not abs(y[i] - want) <= MIXTURE_PROB_TOL:
            failures.append(f"{kind}: row {i} {y[i]!r} vs {want!r}")
    elif kind == "a0-density":
        want = oracle.a0_density(spec, params["se"], x[i])
        if not _close(y[i], want, GRID_REL_TOL):
            failures.append(f"{kind}: row {i} {y[i]!r} vs {want!r}")
    elif kind == "tau-density":
        want = oracle.scipy_tau(spec).pdf(x)
        if not np.allclose(y, want, rtol=GRID_REL_TOL, atol=0.0):
            worst = int(np.argmax(np.abs(y - want)))
            failures.append(f"{kind}: row {worst} {y[worst]!r} vs {want[worst]!r}")
    return [f"{spec_string(spec)} {f}" for f in failures]


def check_log_pair(density: np.ndarray, log_density: np.ndarray) -> list[str]:
    """map-log-density must be the log of map-density on the same grid."""
    if density.shape != log_density.shape:
        return ["map-log-density and map-density grids differ"]
    gap = np.abs(log_density[:, 1] - np.log(density[:, 1]))
    if not np.all(gap <= 1e-9 * np.maximum(1.0, np.abs(log_density[:, 1]))):
        return [f"map-log-density is not log(map-density): gap {float(np.max(gap)):.2e}"]
    return []


def check_convert(params, text) -> list[str]:
    payload = json.loads(text)
    y, se = oracle.log_ratio_ci(params["estimate"], params["lower"], params["upper"])
    if not (_close(payload["log_estimate"], y, ROUND12_REL_TOL, 1e-15)
            and _close(payload["se"], se, ROUND12_REL_TOL)):
        return [f"convert {params}: {payload} vs ({y!r}, {se!r})"]
    return []


def check_grid_round(ops) -> list[str]:
    """All files of one grid_export round (every op's output is a file)."""
    failures = []
    tables = {}
    for position, op in enumerate(ops):
        if op.kind == "convert":
            with open(op.params["path"], encoding="utf-8") as handle:
                failures += check_convert(op.params, handle.read())
            continue
        table = read_tsv(op.params["path"])
        tables[(op.params["spec"], op.kind)] = table
        if op.kind != "map-log-density":
            failures += check_grid(op.kind, op.params, table, 37 * op.round + 11 * position)
    for (spec, kind), table in tables.items():
        if kind == "map-log-density" and (spec, "map-density") in tables:
            failures += check_log_pair(tables[(spec, "map-density")], table)
    return failures


def check_workload(workload: str, ops) -> list[str]:
    """Check every completed operation of a run."""
    if workload == "grid_export":
        failures = []
        rounds = {}
        for op in ops:
            rounds.setdefault(op.round, []).append(op)
        for round_ops in rounds.values():
            failures += check_grid_round(round_ops)
        return failures
    check = {"design_table": check_table_row,
             "borrowing_report": check_report,
             "route_agreement": check_routes}[workload]
    failures = []
    for op in ops:
        failures += check(op.params, op.output)
    return failures
