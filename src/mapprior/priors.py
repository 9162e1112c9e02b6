"""Heterogeneity prior families for a between-study standard deviation.

Seven one-parameter scale families (plus an optional shape parameter where
the family has one) on tau >= 0, with closed-form densities, CDFs, quantiles,
upper-tail quantiles and first/second moments:

======================  =========================================  ==========
family                  density for x >= 0                         shape
======================  =========================================  ==========
half-normal(s)          2 phi(x/s) / s
half-student-t_nu(s)    2 t_nu(x/s) / s                            nu > 0
half-cauchy(s)          2 / (pi s (1 + (x/s)^2))
half-logistic(s)        2 exp(-x/s) / (s (1 + exp(-x/s))^2)
exponential(s)          exp(-x/s) / s
lomax(s, alpha)         (alpha/s) (1 + x/s)^-(alpha+1)             alpha > 0
uniform(s)              1/s on [0, s]
======================  =========================================  ==========

The Lomax family is parameterized by survival function (1 + x/s)^-alpha;
"Lomax" has competing conventions in the wild, so this one is pinned here.
The half-Cauchy equals the half-Student-t with nu = 1.

Moments that do not exist (half-Cauchy mean and second moment, half-Student-t
mean for nu <= 1 and second moment for nu <= 2, Lomax mean for alpha <= 1 and
second moment for alpha <= 2) are returned as ``math.inf``, never raised:
downstream code renders infinite-variance summaries explicitly.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from scipy import special

from .errors import DataFormatError, InvalidParameterError, as_real, as_reals

__all__ = [
    "HeterogeneityPrior",
    "make_prior",
    "scale_for_median",
    "parse_prior_spec",
    "FAMILIES",
]


def _t_pdf(x, nu):
    c = math.exp(special.gammaln((nu + 1.0) / 2.0) - special.gammaln(nu / 2.0))
    c /= math.sqrt(nu * math.pi)
    return c * np.exp(-(nu + 1.0) / 2.0 * np.log1p(np.square(x) / nu))


# Standard (scale = 1) member of each family.  All seven are scale families,
# so the scaled versions below follow by x -> x/s.

class _Family(NamedTuple):
    takes_shape: bool
    density: Callable          # (x, shape) -> pdf values
    cdf: Callable              # (x, shape) -> cdf values
    quantile: Callable         # (p, shape) -> quantiles
    isf: Callable              # (q, shape) -> upper-tail quantiles, closed form
    mean: Callable             # (shape) -> float, may be inf
    mean_sq: Callable          # (shape) -> float, may be inf
    bounded: bool              # support is [0, 1] rather than [0, inf)
    tail_index: Callable       # (shape) -> k of a power tail x^-(k+1), inf if lighter


def _half_t_mean(nu: float) -> float:
    if nu <= 1.0:
        return math.inf
    g = special.gammaln((nu + 1.0) / 2.0) - special.gammaln(nu / 2.0)
    return 2.0 * math.sqrt(nu / math.pi) * math.exp(g) / (nu - 1.0)


def _half_cauchy_quantile(p, _):
    p = np.asarray(p, dtype=float)
    # cot form for the upper half keeps tail quantiles accurate
    with np.errstate(divide="ignore"):
        out = np.where(p < 0.5,
                       np.tan(0.5 * np.pi * p),
                       1.0 / np.tan(0.5 * np.pi * (1.0 - p)))
    return out


_FAMILIES: dict[str, _Family] = {
    "half-normal": _Family(
        takes_shape=False,
        density=lambda x, _: math.sqrt(2.0 / math.pi) * np.exp(-0.5 * np.square(x)),
        cdf=lambda x, _: special.erf(x / math.sqrt(2.0)),
        quantile=lambda p, _: special.ndtri((1.0 + np.asarray(p, dtype=float)) / 2.0),
        isf=lambda q, _: -special.ndtri(q / 2.0),
        mean=lambda _: math.sqrt(2.0 / math.pi),
        mean_sq=lambda _: 1.0,
        bounded=False,
        tail_index=lambda _: math.inf,
    ),
    "half-student-t": _Family(
        takes_shape=True,
        density=lambda x, nu: 2.0 * _t_pdf(x, nu),
        cdf=lambda x, nu: 2.0 * special.stdtr(nu, x) - 1.0,
        quantile=lambda p, nu: special.stdtrit(nu, (1.0 + np.asarray(p, dtype=float)) / 2.0),
        # P(|T| > x) = I_{nu/(nu + x^2)}(nu/2, 1/2), inverted; -stdtrit(nu, q/2)
        # returns inf for tiny q
        isf=lambda q, nu: np.sqrt(nu / special.betaincinv(0.5 * nu, 0.5, q) - nu),
        mean=_half_t_mean,
        mean_sq=lambda nu: nu / (nu - 2.0) if nu > 2.0 else math.inf,
        bounded=False,
        tail_index=lambda nu: nu,
    ),
    "half-cauchy": _Family(
        takes_shape=False,
        density=lambda x, _: 2.0 / (math.pi * (1.0 + np.square(x))),
        cdf=lambda x, _: (2.0 / math.pi) * np.arctan(x),
        quantile=_half_cauchy_quantile,
        isf=lambda q, _: 1.0 / np.tan(0.5 * np.pi * q),
        mean=lambda _: math.inf,
        mean_sq=lambda _: math.inf,
        bounded=False,
        tail_index=lambda _: 1.0,
    ),
    "half-logistic": _Family(
        takes_shape=False,
        density=lambda x, _: 2.0 * np.exp(-x) / np.square(1.0 + np.exp(-x)),
        cdf=lambda x, _: np.tanh(x / 2.0),
        quantile=lambda p, _: 2.0 * np.arctanh(np.asarray(p, dtype=float)),
        isf=lambda q, _: np.log((2.0 - q) / q),
        mean=lambda _: math.log(4.0),
        mean_sq=lambda _: math.pi ** 2 / 3.0,
        bounded=False,
        tail_index=lambda _: math.inf,
    ),
    "exponential": _Family(
        takes_shape=False,
        density=lambda x, _: np.exp(-x),
        cdf=lambda x, _: -np.expm1(-x),
        quantile=lambda p, _: -np.log1p(-np.asarray(p, dtype=float)),
        isf=lambda q, _: -np.log(q),
        mean=lambda _: 1.0,
        mean_sq=lambda _: 2.0,
        bounded=False,
        tail_index=lambda _: math.inf,
    ),
    "lomax": _Family(
        takes_shape=True,
        density=lambda x, a: a * np.exp(-(a + 1.0) * np.log1p(x)),
        cdf=lambda x, a: -np.expm1(-a * np.log1p(x)),
        quantile=lambda p, a: np.expm1(-np.log1p(-np.asarray(p, dtype=float)) / a),
        isf=lambda q, a: np.expm1(-np.log(q) / a),
        mean=lambda a: 1.0 / (a - 1.0) if a > 1.0 else math.inf,
        mean_sq=lambda a: 2.0 / ((a - 1.0) * (a - 2.0)) if a > 2.0 else math.inf,
        bounded=False,
        tail_index=lambda a: a,
    ),
    "uniform": _Family(
        takes_shape=False,
        density=lambda x, _: np.where(x <= 1.0, 1.0, 0.0),
        cdf=lambda x, _: np.minimum(x, 1.0),
        quantile=lambda p, _: np.asarray(p, dtype=float),
        isf=lambda q, _: 1.0 - q,
        mean=lambda _: 0.5,
        mean_sq=lambda _: 1.0 / 3.0,
        bounded=True,
        tail_index=lambda _: math.inf,
    ),
}

FAMILIES = tuple(_FAMILIES)

_ALIASES = {
    "hn": "half-normal",
    "ht": "half-student-t",
    "half-t": "half-student-t",
    "hc": "half-cauchy",
    "hl": "half-logistic",
    "exp": "exponential",
    "unif": "uniform",
}


def canonical_family(name: str) -> str:
    """Resolve a (case-insensitive, possibly aliased) family name."""
    key = name.strip().lower().replace("_", "-") if isinstance(name, str) else None
    key = _ALIASES.get(key, key)
    if key not in _FAMILIES:
        raise InvalidParameterError(
            f"unknown heterogeneity prior family {name!r}; "
            f"known families: {', '.join(FAMILIES)}"
        )
    return key


@dataclass(frozen=True)
class HeterogeneityPrior:
    """A validated, immutable heterogeneity prior.

    Parameters
    ----------
    family : str
        One of :data:`FAMILIES` (aliases accepted, case-insensitive).
    scale : float
        Scale parameter s > 0, in the units of the effect (e.g. log-HR).
    shape : float, optional
        Degrees of freedom for the half-Student-t, alpha for the Lomax;
        must be absent for every other family.
    """

    family: str
    scale: float
    shape: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "family", canonical_family(self.family))
        spec = _FAMILIES[self.family]
        object.__setattr__(self, "scale", as_real(self.scale, f"{self.family} scale", 0.0))
        if spec.takes_shape:
            object.__setattr__(self, "shape", as_real(self.shape, f"{self.family} shape", 0.0))
        elif self.shape is not None:
            raise InvalidParameterError(
                f"{self.family} prior takes no shape parameter")

    @property
    def _spec(self) -> _Family:
        return _FAMILIES[self.family]

    @property
    def support_upper(self) -> float:
        """Upper end of the support (``inf`` for the half-line families)."""
        return self.scale if self._spec.bounded else math.inf

    @property
    def tail_index(self) -> float:
        """Index k of a power tail, density ~ tau^-(k+1); ``inf`` if lighter."""
        return self._spec.tail_index(self.shape)

    def density(self, tau) -> np.ndarray:
        """Probability density at ``tau`` (0 for tau < 0)."""
        tau = np.asarray(tau, dtype=float)
        x = tau / self.scale
        with np.errstate(over="ignore"):
            vals = self._spec.density(np.abs(x), self.shape) / self.scale
        result = np.where(tau < 0.0, 0.0, vals)
        return result if result.ndim else float(result)

    def cdf(self, tau) -> np.ndarray:
        """Cumulative distribution at ``tau`` (0 for tau <= 0)."""
        tau = np.asarray(tau, dtype=float)
        x = np.maximum(tau, 0.0) / self.scale
        result = self._spec.cdf(x, self.shape)
        return result if np.ndim(result) else float(result)

    def quantile(self, p) -> np.ndarray:
        """Inverse CDF; requires 0 < p < 1 elementwise."""
        p = as_reals(p, "quantile probabilities", 0.0, 1.0)
        result = self.scale * self._spec.quantile(p, self.shape)
        return result if result.ndim else float(result)

    def isf(self, q) -> np.ndarray:
        """Upper-tail quantile: the tau with P(tau > isf(q)) = q, in closed
        form, so it stays accurate where 1 - q rounds to 1; ``inf`` where
        the closed form overflows."""
        q = as_reals(q, "upper-tail probabilities", 0.0, 1.0)
        with np.errstate(divide="ignore", over="ignore"):
            result = self.scale * self._spec.isf(q, self.shape)
        return result if result.ndim else float(result)

    @property
    def median(self) -> float:
        return float(self.quantile(0.5))

    def mean(self) -> float:
        """E[tau]; ``inf`` when the family has no finite expectation."""
        m = self._spec.mean(self.shape)
        return self.scale * m if math.isfinite(m) else math.inf

    def mean_sq(self) -> float:
        """E[tau^2]; ``inf`` when the second moment does not exist."""
        m = self._spec.mean_sq(self.shape)
        return self.scale ** 2 * m if math.isfinite(m) else math.inf

    def spec_string(self) -> str:
        """Canonical ``family(scale[, shape])`` specification string."""
        if self.shape is None:
            return f"{self.family}({self.scale:g})"
        return f"{self.family}({self.scale:g},{self.shape:g})"


def make_prior(family: str, scale: float, shape: float | None = None) -> HeterogeneityPrior:
    """Validating constructor for :class:`HeterogeneityPrior`."""
    return HeterogeneityPrior(family, scale, shape)


def scale_for_median(family: str, target_median: float,
                     shape: float | None = None) -> float:
    """Scale parameter giving the family the requested prior median.

    Every family here is a scale family, so the answer is the target median
    divided by the scale-1 member's median.
    """
    target_median = as_real(target_median, "target median", 0.0)
    return target_median / make_prior(family, 1.0, shape).median


_SPEC_RE = re.compile(
    r"^\s*([A-Za-z][A-Za-z_-]*)\s*\(\s*([^,()\s]+)\s*(?:,\s*([^,()\s]+)\s*)?\)\s*$")


def parse_prior_spec(text: str) -> HeterogeneityPrior:
    """Parse a ``family(scale[, shape])`` string, e.g. ``"half-normal(0.5)"``.

    Family names are case-insensitive and the short aliases hn / ht / hc /
    hl / exp / lomax / unif are accepted, e.g. ``"lomax(2.75,6)"``.
    """
    m = _SPEC_RE.match(text)
    if m is None:
        raise DataFormatError(
            f"cannot parse prior specification {text!r}; "
            "expected family(scale) or family(scale,shape)")
    family, scale_text, shape_text = m.groups()
    try:
        scale = float(scale_text)
        shape = float(shape_text) if shape_text is not None else None
    except ValueError as exc:
        raise DataFormatError(f"non-numeric parameter in {text!r}") from exc
    return make_prior(family, scale, shape)
