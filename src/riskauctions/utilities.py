"""Seller utility functions and the quantities they induce on a distribution.

Utilities are normalized concave functions of realized revenue with u(0) = 0.
The risk-adjusted analogue of the marginal-revenue value is

    u(v) - u'(v) * (1 - F(v)) / f(v),

whose root is the best reserve for a single bidder under utility u.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import Distribution, NotDifferentiableError, SpecParseError
from .numerics import bisect_root, golden_section_max
from .report import LemmaReport, report_from_margin

__all__ = [
    "UtilityFunction",
    "UtilityFamily",
    "linear",
    "power",
    "capped",
    "default_family",
    "parse_utility",
    "parse_family",
    "parse_utility_or_family",
    "virtual_utility",
    "optimal_reserve",
    "maximize_single_bidder",
    "check_virtual_utility_monotone",
]

MONOTONE_GRID = 10_000
MONOTONE_TOL = 1e-8
SINGLE_BIDDER_GRID = 100_000
RESERVE_TOL = 1e-13


@dataclass(frozen=True)
class UtilityFunction:
    """One of: linear, power (x**alpha, 0 < alpha <= 1), capped (min(x, eps))."""

    kind: str
    param: float | None = None

    def __call__(self, x):
        x_arr = np.asarray(x, dtype=float)
        scalar = np.isscalar(x) or x_arr.ndim == 0
        if self.kind == "linear":
            out = x_arr + 0.0
        elif self.kind == "power":
            out = np.power(x_arr, self.param)
        else:
            out = np.minimum(x_arr, self.param)
        return float(out) if scalar else out

    def derivative(self, x):
        """Right derivative (relevant only for the capped kink)."""
        x_arr = np.asarray(x, dtype=float)
        scalar = np.isscalar(x) or x_arr.ndim == 0
        if self.kind == "linear":
            out = np.ones_like(x_arr)
        elif self.kind == "power":
            a = self.param
            if a == 1.0:
                out = np.ones_like(x_arr)
            else:
                with np.errstate(divide="ignore"):
                    out = np.where(x_arr > 0, a * np.power(x_arr, a - 1.0), np.inf)
        else:
            out = np.where(x_arr < self.param, 1.0, 0.0)
        return float(out) if scalar else out

    @property
    def kink(self) -> float | None:
        return self.param if self.kind == "capped" else None

    @property
    def is_smooth(self) -> bool:
        return self.kink is None

    @property
    def spec_string(self) -> str:
        if self.kind == "linear":
            return "linear"
        return f"{self.kind}:{self.param:g}"

    @property
    def label(self) -> str:
        return self.spec_string


def linear() -> UtilityFunction:
    return UtilityFunction("linear")


def power(alpha: float) -> UtilityFunction:
    alpha = float(alpha)
    if not (0 < alpha <= 1):
        raise SpecParseError("power utility needs alpha in (0, 1]")
    return UtilityFunction("power", alpha)


def capped(eps: float) -> UtilityFunction:
    eps = float(eps)
    if not (eps > 0) or not math.isfinite(eps):
        raise SpecParseError("capped utility needs a positive finite cap")
    return UtilityFunction("capped", eps)


@dataclass(frozen=True)
class UtilityFamily:
    members: tuple[UtilityFunction, ...]
    name: str = ""

    def __post_init__(self):
        if not self.members:
            raise SpecParseError("a utility family needs at least one member")

    def __iter__(self):
        return iter(self.members)

    def __len__(self):
        return len(self.members)

    @property
    def label(self) -> str:
        return self.name or ";".join(u.label for u in self.members)


def default_family() -> UtilityFamily:
    """Linear, two powers, and eight caps log-spaced over [1e-4, 1e-1]."""
    caps = tuple(capped(e) for e in np.logspace(-4, -1, 8))
    return UtilityFamily((linear(), power(0.5), power(1.0 / 3.0)) + caps,
                         name="default")


def parse_utility(spec: str) -> UtilityFunction:
    spec = spec.strip()
    if spec == "linear":
        return linear()
    head, sep, rest = spec.partition(":")
    if sep:
        try:
            if head == "power":
                return power(float(rest))
            if head == "capped":
                return capped(float(rest))
        except SpecParseError:
            raise
        except (ValueError, TypeError) as exc:
            raise SpecParseError(f"malformed utility spec: {spec!r}") from exc
    raise SpecParseError(f"unknown utility spec: {spec!r}")


def parse_family(spec: str) -> UtilityFamily:
    spec = spec.strip()
    head, sep, rest = spec.partition(":")
    if head != "family" or not sep:
        raise SpecParseError(f"malformed family spec: {spec!r}")
    if rest == "default":
        return default_family()
    return UtilityFamily(tuple(parse_utility(s) for s in rest.split(";")))


def parse_utility_or_family(spec: str):
    if spec.strip().startswith("family"):
        return parse_family(spec)
    return parse_utility(spec)


# -- induced quantities --------------------------------------------------------


def virtual_utility(d: Distribution, u: UtilityFunction, v: float) -> float:
    """u(v) - u'(v) * (1 - F(v)) / f(v); the linear case is the usual
    marginal-revenue value."""
    if u.kink is not None and v == u.kink:
        raise NotDifferentiableError("utility not differentiable at its cap")
    return float(u(v)) - float(u.derivative(v)) * float(d.inverse_hazard(v))


def optimal_reserve(d: Distribution, u: UtilityFunction) -> float:
    """Root of the risk-adjusted marginal value; the best single-bidder
    reserve for a smooth utility on a regular distribution."""
    if not u.is_smooth:
        raise ValueError("optimal_reserve needs a smooth utility; "
                         "use maximize_single_bidder for capped utilities")
    lo, hi = d.support

    def phi(v):
        return virtual_utility(d, u, v)

    if not math.isfinite(hi):
        hi = max(d.quantile(0.5), lo + 1.0)
        for _ in range(200):
            if phi(hi) >= 0:
                break
            hi *= 2.0
        else:
            raise ValueError("no sign change found for the reserve equation")
    if phi(lo) > 0 or phi(hi) < 0:
        raise ValueError("no sign change found for the reserve equation")
    return bisect_root(phi, lo, hi, abs_tol=RESERVE_TOL)


def maximize_single_bidder(d: Distribution, u: UtilityFunction) -> tuple[float, float]:
    """Best posted price for one bidder and its expected utility u(p)*Pr[sale].

    Works for any utility (including capped ones, where the optimum tends to
    sit at the kink): dense grid plus golden-section refinement around the
    best bracket.
    """
    qs = np.linspace(0.0, 1.0, SINGLE_BIDDER_GRID + 1)[1:]
    extra = list(d.breakpoints())
    if u.kink is not None:
        q_kink = float(d.sale_probability(u.kink))
        if 0 < q_kink <= 1:
            extra.append(q_kink)
    if extra:
        qs = np.unique(np.concatenate([qs, np.asarray(extra)]))

    def g_vec(q):
        return np.asarray(u(d.price(q))) * q

    vals = g_vec(qs)
    i = int(np.argmax(vals))
    lo = qs[max(i - 1, 0)]
    hi = qs[min(i + 1, len(qs) - 1)]

    def g(q):
        return float(u(float(d.price(q))) * q)

    q_best, g_best = golden_section_max(g, lo, hi, rel_tol=1e-12)
    if vals[i] > g_best:
        q_best, g_best = float(qs[i]), float(vals[i])
    return float(d.price(q_best)), g_best


def check_virtual_utility_monotone(d: Distribution, u: UtilityFunction,
                                   grid: int = MONOTONE_GRID) -> LemmaReport:
    """Is the risk-adjusted marginal value nondecreasing on the support?

    Guaranteed for concave revenue curves with smooth utilities; the check
    accepts any input and reports the worst violating bracket when it fails.
    Kinks and atoms are skipped (no density there).
    """
    vs = []
    phis = []
    if hasattr(d, "_qs"):
        # piecewise-linear curve: walk segments in ascending-price order
        lengths = np.diff(d._qs)
        for j in reversed(range(len(lengths))):
            if d._intercepts[j] == 0.0:
                continue
            n_j = max(int(grid * lengths[j]), 16)
            seg_q = np.linspace(d._qs[j], d._qs[j + 1], n_j + 2)[1:-1]
            v = d._intercepts[j] / seg_q + d._slopes[j]
            v = v[::-1]  # ascending price
            inv = v - d._slopes[j]
            vs.append(v)
            phis.append(np.asarray(u(v)) - np.asarray(u.derivative(v)) * inv)
        v_all = np.concatenate(vs)
        phi_all = np.concatenate(phis)
    else:
        ps = np.linspace(1e-6, 1.0 - 1e-6, grid)
        v_all = np.asarray(d.quantile(ps))
        inv = np.asarray(d.inverse_hazard(v_all))
        phi_all = np.asarray(u(v_all)) - np.asarray(u.derivative(v_all)) * inv

    diffs = phi_all[1:] - phi_all[:-1]
    i = int(np.argmin(diffs))
    worst = (f"{d.label}|{u.label}: phi({v_all[i]:.6g})={phi_all[i]:.6g} -> "
             f"phi({v_all[i + 1]:.6g})={phi_all[i + 1]:.6g}")
    return report_from_margin(
        name=f"virtual-utility-monotone[{d.label}|{u.label}]",
        claimed=0.0, observed=float(diffs[i]), tolerance=MONOTONE_TOL,
        instances=len(diffs), worst=worst)
