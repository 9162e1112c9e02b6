"""Summary estimate from one study: effect, standard error, optional size."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import as_count, as_real


@dataclass(frozen=True)
class StudyEstimate:
    """One study's summary on the analysis (e.g. log hazard ratio) scale.

    Parameters
    ----------
    y : float
        Effect estimate.
    se : float
        Standard error of the estimate, > 0.
    n : int, optional
        Number of patients behind the estimate, >= 1 when given.
    label : str
        Free-text identifier used in reports and CSV round trips.
    """

    y: float
    se: float
    n: int | None = None
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "y", as_real(self.y, "effect estimate"))
        object.__setattr__(self, "se", as_real(self.se, "standard error", 0.0))
        if self.n is not None:
            object.__setattr__(self, "n", as_count(self.n, "patient count"))

    @property
    def variance(self) -> float:
        return self.se ** 2
