"""Seller utility functions and the quantities they induce on a distribution.

Utilities are normalized concave functions of realized revenue with u(0) = 0.
The risk-adjusted analogue of the marginal-revenue value is

    u(v) - u'(v) * (1 - F(v)) / f(v),

whose sign change is the best reserve for a single bidder under utility u.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

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
    "virtual_utility_at_quantile",
    "optimal_reserve",
    "maximize_single_bidder",
    "check_virtual_utility_monotone",
]

MONOTONE_GRID = 10_000
MONOTONE_TOL = 1e-8
SINGLE_BIDDER_GRID = 100_000


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
                with np.errstate(divide="ignore", over="ignore"):
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


def virtual_utility_at_quantile(d: Distribution, u: UtilityFunction, q: float) -> float:
    """The virtual utility at p = price(q), u(p) - u'(p) * (p - R'(q)), for a
    float q in (0, 1]: in quantile space (1 - F)/f is p - R'(q).  It is the
    slope of q * u(price(q)) in q."""
    p = d.price(q)
    return float(u(p)) - float(u.derivative(p)) * (p - d.marginal_revenue(q))


def optimal_reserve(d: Distribution, u: UtilityFunction) -> float:
    """The best single-bidder reserve for a smooth utility on a regular
    distribution, where the risk-adjusted marginal value changes sign."""
    if not u.is_smooth:
        raise ValueError("optimal_reserve needs a smooth utility; "
                         "use maximize_single_bidder for capped utilities")
    if not d.is_regular():
        raise ValueError("optimal_reserve needs a regular distribution; "
                         "use maximize_single_bidder for irregular ones")
    return maximize_single_bidder(d, u)[0]


def maximize_single_bidder(d: Distribution, u: UtilityFunction) -> tuple[float, float]:
    """Best posted price for one bidder and its expected utility u(p)*Pr[sale].

    This maximizes g(q) = q * u(price(q)) over the sale probability q.  On a
    regular distribution g is concave for every utility here (capped ones
    included), so the optimum is where its slope, the virtual utility
    `virtual_utility_at_quantile`, changes sign; it is bisected to float
    resolution, keeping the side where the slope is still >= 0 (the first
    float past an atom can price above it).  Irregular inputs get a dense grid plus golden-section refinement
    around the best bracket.
    """
    if d.is_regular():
        slope = partial(virtual_utility_at_quantile, d, u)
        q = 1.0 if slope(1.0) >= 0 else bisect_root(slope, 0.0, 1.0)
        p = float(d.price(q))
        return p, float(u(p)) * q

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
    breaks = d.breakpoints()
    vs, invs = [], []
    if breaks:
        # piecewise-linear curve: walk its segments in ascending-price order,
        # where the inverse hazard is price(q) - R'(q)
        qs = np.array((0.0,) + breaks + (1.0,))
        for lo, hi in zip(qs[-2::-1], qs[:0:-1]):
            seg_q = np.linspace(lo, hi, max(int(grid * (hi - lo)), 16) + 2)[-2:0:-1]
            v = d.price(seg_q)
            inv = v - d.marginal_revenue(seg_q)
            if np.any(inv):  # a constant-price stretch has no density
                vs.append(v)
                invs.append(inv)
    if vs:
        v_all = np.concatenate(vs)
        inv = np.concatenate(invs)
    else:  # closed forms, and point masses written with breakpoints
        v_all = np.asarray(d.quantile(np.linspace(1e-6, 1.0 - 1e-6, grid)))
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
