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
    """Outcome of one numerical check of a claimed bound.

    ``margin`` is observed minus claimed (signed so that negative means the
    bound was violated); ``passed`` holds iff margin >= -tolerance, with the
    tolerance recorded here rather than buried in the check.
    """

    name: str
    passed: bool
    claimed_bound: float
    observed: float
    margin: float
    tolerance: float
    instances_checked: int
    worst_instance: str

    def csv_row(self) -> list[str]:
        return [self.name, "true" if self.passed else "false",
                fmt(self.claimed_bound), fmt(self.observed), fmt(self.margin),
                str(self.instances_checked), self.worst_instance]


def report_from_margin(name: str, claimed: float, observed: float, tolerance: float,
                       instances: int, worst: str) -> LemmaReport:
    margin = observed - claimed
    return LemmaReport(name=name, passed=bool(margin >= -tolerance),
                       claimed_bound=claimed, observed=observed, margin=margin,
                       tolerance=tolerance, instances_checked=instances,
                       worst_instance=worst)
