"""Result record for the numerical bound checks."""
from __future__ import annotations

from dataclasses import dataclass

CSV_COLUMNS = ("name", "passed", "claimed_bound", "observed", "margin",
               "instances_checked", "worst_instance")


def fmt(x) -> str:
    """A number as every CSV and ``key=value`` output prints it."""
    return f"{float(x):.12g}"


@dataclass(frozen=True)
class LemmaReport:
    """Outcome of one numerical check of a claimed bound.  ``margin``, by
    default observed minus claimed, is negative where the bound is violated;
    ``passed``, the one verdict rule of every row, is margin >= -tolerance."""

    name: str
    claimed_bound: float
    observed: float
    tolerance: float
    instances_checked: int
    worst_instance: str
    margin: float | None = None

    def __post_init__(self):
        if self.margin is None:
            object.__setattr__(self, "margin", self.observed - self.claimed_bound)

    @property
    def passed(self) -> bool:
        return bool(self.margin >= -self.tolerance)

    def csv_row(self) -> list[str]:
        return [self.name, "true" if self.passed else "false",
                fmt(self.claimed_bound), fmt(self.observed), fmt(self.margin),
                str(self.instances_checked), self.worst_instance]
