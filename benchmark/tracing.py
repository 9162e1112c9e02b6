"""Spans around mapprior's public functions, recorded from outside src/.

``Tracer.install`` replaces each traced function with a wrapper that
records a span: the function's name, start and end, the span that called
it and the operation it belongs to.  Module-level functions are replaced in
every ``mapprior`` module namespace that binds them (``mixture``,
``shrink``, ``correspond``, ``report``, ``information`` and ``cli`` import
names from each other), methods on their class.  Spans stay in memory; the
run writes them out when it ends.

Some spans also carry a count: the number of theta points a ``MapPrior``
evaluation was asked for, the number of kernel values a quadrature pass
computed (tau nodes x theta points x integrand rows), and the bytes a grid
export wrote.
"""

from __future__ import annotations

import functools
import os
import sys
from time import perf_counter

import numpy as np

from mapprior import cli, correspond, dataio, information, quadrature, report, shrink
from mapprior.mixture import MapPrior
from mapprior.priors import HeterogeneityPrior


def _points(args, kwargs, result):
    return int(np.size(args[1] if len(args) > 1 else kwargs["theta"]))


def _bytes_written(args, kwargs, result):
    return os.path.getsize(result)


#: (layer, owner, attribute, count); owner is a module or a class
TRACED = (
    ("quadrature", quadrature, "mix_against_prior", None),
    ("quadrature", quadrature, "adaptive_quad", None),
    ("quadrature", quadrature, "fixed_quad", None),
    *(("priors", HeterogeneityPrior, name, None)
      for name in ("density", "cdf", "quantile", "mean", "mean_sq")),
    *(("mixture", MapPrior, name, _points)
      for name in ("density", "cdf", "log_density_curvature")),
    *(("mixture", MapPrior, name, None)
      for name in ("quantiles", "quantile", "variance", "sd", "sample")),
    ("information", information, "ess_for_map_prior", None),
    ("shrink", shrink, "shrinkage_posterior", None),
    ("shrink", shrink, "mac_oracle", None),
    ("shrink", shrink, "posterior_summary", None),
    ("correspond", correspond, "reference_model_posterior", None),
    ("correspond", correspond, "a0_density", None),
    *(("report", report, name, None)
      for name in ("run_map_report", "prior_comparison_table", "render_json",
                   "render_report_tsv", "render_table_tsv")),
    ("dataio", dataio, "emit_density_grid", _bytes_written),
    ("dataio", dataio, "load_studies_csv", None),
    ("dataio", dataio, "parse_ratio_ci", None),
    ("cli", cli, "main", None),
)


class Tracer:
    """Records spans while installed; ``op`` tags the operation running."""

    def __init__(self):
        self.names: list[str] = []
        self.layers: list[str] = []
        #: [name index, start, end, parent span index or -1, op, count]
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _wrap(self, name_id: int, fn, count):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name_id, 0.0, 0.0, stack[-1] if stack else -1, self.op, 0]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if count is not None:
                record[5] = count(args, kwargs, result)
            return result

        return wrapper

    def _wrap_fixed_quad(self, name_id: int, fn):
        """fixed_quad's count is the size of its integrand's output."""
        inner = self._wrap(name_id, fn, None)
        spans = self.spans

        def fixed_quad(f, edges, *args, **kwargs):
            evaluated = []

            def counted(x):
                values = np.asarray(f(x))
                evaluated.append(values.size)
                return values

            index = len(spans)
            result = inner(counted, edges, *args, **kwargs)
            spans[index][5] = sum(evaluated)
            return result

        return functools.wraps(fn)(fixed_quad)

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if key == "mapprior" or key.startswith("mapprior.")]
        for layer, owner, attribute, count in TRACED:
            original = owner.__dict__[attribute]
            name_id = len(self.names)
            self.names.append(f"{layer}.{attribute}")
            self.layers.append(layer)
            if attribute == "fixed_quad":
                wrapped = self._wrap_fixed_quad(name_id, original)
            else:
                wrapped = self._wrap(name_id, original, count)
            if isinstance(owner, type):
                self._restore.append((owner, attribute, original))
                setattr(owner, attribute, wrapped)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapped)

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._restore):
            setattr(owner, attribute, original)
        self._restore.clear()

    def dump(self) -> dict:
        return {"names": self.names, "spans": self.spans}


_POSTERIOR_ROUTES = ("shrink.shrinkage_posterior", "shrink.mac_oracle",
                     "correspond.reference_model_posterior")


def layer_metrics(tracer: Tracer, op_rounds: list[int]) -> dict[str, float]:
    """Per-operation layer figures from the recorded spans.

    Times average over every traced operation.  Counts average over the
    operations of round 0 only, whose inputs do not depend on the seed, so
    they repeat exactly from run to run.
    """
    names, layers = tracer.names, tracer.layers
    spans = tracer.spans
    n_all = len(op_rounds)
    n_fixed = max(1, sum(1 for r in op_rounds if r == 0))
    child_time = [0.0] * len(spans)
    in_route = [False] * len(spans)
    time_sum: dict[str, float] = {}
    count_sum: dict[str, float] = {}

    def add(table, key, value):
        table[key] = table.get(key, 0.0) + value

    for index, (name_id, start, end, parent, op, count) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += end - start
            in_route[index] = in_route[parent]
        if names[name_id] in _POSTERIOR_ROUTES:
            in_route[index] = True

    for index, (name_id, start, end, parent, op, count) in enumerate(spans):
        name, layer = names[name_id], layers[name_id]
        duration = end - start
        add(time_sum, f"{layer}.self", duration - child_time[index])
        add(time_sum, name, duration)
        if op_rounds[op] != 0:
            continue
        parent_name = names[spans[parent][0]] if parent >= 0 else ""
        add(count_sum, name, 1)
        add(count_sum, f"{name}.count", count)
        if name == "mixture.cdf" and parent_name == "mixture.quantiles":
            add(count_sum, "cdf_in_quantiles", 1)
        if name == "mixture.density" and parent_name == "information.ess_for_map_prior":
            add(count_sum, "ess_points", count)
        if name == "mixture.density" and in_route[index]:
            add(count_sum, "grid_evals", 1)

    def t(key):
        return 1e3 * time_sum.get(key, 0.0) / n_all

    def c(key):
        return count_sum.get(key, 0.0) / n_fixed

    integrals = c("quadrature.adaptive_quad")
    quantiles = c("mixture.quantiles")
    return {
        "quadrature.integrals": integrals,
        "quadrature.passes": c("quadrature.fixed_quad"),
        "quadrature.passes_per_integral": c("quadrature.fixed_quad") / integrals if integrals else 0.0,
        "quadrature.kernel_evals": c("quadrature.fixed_quad.count"),
        "quadrature.self_ms": t("quadrature.self"),
        "priors.self_ms": t("priors.self"),
        "mixture.points": sum(c(f"mixture.{m}.count")
                              for m in ("density", "cdf", "log_density_curvature")),
        "mixture.quantile_calls": quantiles,
        "mixture.cdf_calls_per_quantile": c("cdf_in_quantiles") / quantiles if quantiles else 0.0,
        "mixture.quantile_ms": t("mixture.quantiles"),
        "mixture.self_ms": t("mixture.self"),
        "information.ess_ms": t("information.ess_for_map_prior"),
        "information.points": c("ess_points"),
        "shrink.grid_evals": c("grid_evals"),
        "shrink.posterior_ms": t("shrink.shrinkage_posterior"),
        "shrink.summary_ms": t("shrink.posterior_summary"),
        "shrink.mac_oracle_ms": t("shrink.mac_oracle"),
        "correspond.reference_ms": t("correspond.reference_model_posterior"),
        "correspond.a0_density_ms": t("correspond.a0_density"),
        "dataio.ms": t("dataio.self"),
        "dataio.bytes_written": c("dataio.emit_density_grid.count"),
        "cli.self_ms": t("cli.self"),
        "report.self_ms": t("report.self"),
        "report.render_ms": sum(t(f"report.{r}") for r in
                                ("render_json", "render_report_tsv", "render_table_tsv")),
    }
