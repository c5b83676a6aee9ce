"""Seller utility functions and the quantities they induce on a distribution.

Utilities are normalized concave functions of realized revenue with u(0) = 0.
The risk-adjusted analogue of the marginal-revenue value is

    u(v) - u'(v) * (1 - F(v)) / f(v),

whose sign change is the best reserve for a single bidder under utility u.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, partial

import numpy as np

from .distributions import Distribution, SpecParseError, parse_spec
from .numerics import bisect_root, elementwise
from .report import LemmaReport, report_from_margin

__all__ = [
    "UtilityFunction",
    "linear",
    "power",
    "capped",
    "default_family",
    "parse_utility",
    "parse_utilities",
    "virtual_utility_at_quantile",
    "optimal_reserve",
    "maximize_single_bidder",
    "check_virtual_utility_monotone",
]

MONOTONE_GRID = 10_000
# the rounding bound of phi = u(p) - u'(p) (p - R'(q)) at a point: MONOTONE_ULPS
# ulps of |u(p)| + |u'(p)| (|p| + |R'(q)|), the size of its terms
MONOTONE_ULPS = 8


@dataclass(frozen=True)
class UtilityFunction:
    """One of: linear, power (x**alpha, 0 < alpha <= 1), capped (min(x, eps))."""

    kind: str
    param: float | None = None

    def __call__(self, x):
        if isinstance(x, float):  # also np.float64, a float subclass
            return self._value_of_float(float(x))
        return elementwise(self._value, x)

    def derivative(self, x):
        """Right derivative (relevant only for the capped kink)."""
        if isinstance(x, float):
            return self._slope_of_float(float(x))
        return elementwise(self._slope, x)

    def _value(self, x):
        if self.kind == "linear":
            return x + 0.0
        if self.kind == "power":
            return np.power(x, self.param)
        return np.minimum(x, self.param)

    def _slope(self, x):
        if self.kind == "capped":
            return np.where(x < self.param, 1.0, 0.0)
        if self.kind == "linear" or self.param == 1.0:
            return np.ones_like(x)
        with np.errstate(divide="ignore", over="ignore"):
            return np.where(x > 0, self.param * np.power(x, self.param - 1.0), np.inf)

    # _value and _slope one point at a time, bit-identical to them, without an
    # array: the single-bidder search calls u and u' on a float once per
    # bisection step.  The power stays NumPy's, as math.pow rounds some points
    # differently.

    def _value_of_float(self, x: float) -> float:
        if self.kind == "linear":
            return x + 0.0
        if self.kind == "power":
            return float(np.power(x, self.param))
        return min(x, self.param)  # keeps a NaN x, as np.minimum does

    def _slope_of_float(self, x: float) -> float:
        if self.kind == "capped":
            return 1.0 if x < self.param else 0.0
        if self.kind == "linear" or self.param == 1.0:
            return 1.0
        if not x > 0:
            return math.inf
        if x < 2.0 ** -1022:  # x^(param - 1) may overflow, which _slope silences
            return elementwise(self._slope, x)
        return self.param * float(np.power(x, self.param - 1.0))

    @property
    def kink(self) -> float | None:
        return self.param if self.kind == "capped" else None

    @property
    def is_smooth(self) -> bool:
        return self.kink is None

    @property
    def label(self) -> str:
        return "linear" if self.kind == "linear" else f"{self.kind}:{self.param:g}"

    spec_string = label


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


@cache
def default_family() -> tuple[UtilityFunction, ...]:
    """Linear, two powers, and eight caps log-spaced over [1e-4, 1e-1], built
    on the first call; every call returns that tuple of frozen members."""
    caps = tuple(capped(e) for e in np.logspace(-4, -1, 8))
    return (linear(), power(0.5), power(1.0 / 3.0)) + caps


def _linear(rest: str) -> UtilityFunction:
    if rest:
        raise ValueError("linear takes no parameter")
    return linear()


_UTILITY_KINDS = {"linear": _linear, "power": power, "capped": capped}


def parse_utility(spec: str) -> UtilityFunction:
    """``linear`` | ``power:alpha`` | ``capped:eps``."""
    spec = spec.strip()
    return parse_spec(spec + ":" if spec == "linear" else spec, _UTILITY_KINDS, "utility")


def parse_utilities(spec: str) -> tuple[UtilityFunction, ...]:
    """A utility spec as a 1-tuple, or a family: ``family:default`` (the 11
    of `default_family`) or ``family:u1;u2;...``."""
    if not spec.strip().startswith("family"):
        return (parse_utility(spec),)
    return parse_spec(spec, {"family": lambda rest: default_family() if rest == "default"
                             else tuple(map(parse_utility, rest.split(";")))}, "family")


# -- induced quantities --------------------------------------------------------


def virtual_utility_at_quantile(d: Distribution, u: UtilityFunction, q):
    """The virtual utility at p = price(q), u(p) - u'(p) * (p - R'(q)), for q
    in (0, 1], a float or an array: in quantile space (1 - F)/f is p - R'(q).
    It is the slope of q * u(price(q)) in q, and u(p0) on a top atom at p0."""
    p = d.price(q)
    return u(p) - u.derivative(p) * (p - d.marginal_revenue(q))


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

    This maximizes g(q) = q * u(price(q)) over the sale probability q, one
    concave piece of the revenue curve at a time.  Where R = a + b*q, g is
    q * u(a/q + b), the perspective of the concave u, so it is concave for
    every utility here (capped ones included), and so is g on the whole of a
    regular curve.  On each piece the optimum is where the slope of g, the
    virtual utility `virtual_utility_at_quantile`, changes sign; it is
    bisected to float resolution, keeping the side where the slope is still
    >= 0 (the first float past an atom can price above it).  The best piece
    wins, the one with the larger q on a tie.
    """
    slope = partial(virtual_utility_at_quantile, d, u)

    def best_on(lo: float, hi: float) -> tuple[float, float, float]:
        q = hi if slope(hi) >= 0 else bisect_root(slope, lo, hi)
        p = d.price(q)
        return u(p) * q, q, p

    qs = (0.0,) + (() if d.is_regular() else d.breakpoints()) + (1.0,)
    g, _, p = max(best_on(lo, hi) for lo, hi in zip(qs, qs[1:]))
    return p, g


def check_virtual_utility_monotone(d: Distribution, u: UtilityFunction) -> LemmaReport:
    """Is the risk-adjusted marginal value nondecreasing on the support?

    Guaranteed for concave revenue curves with smooth utilities; the check
    accepts any input and reports the worst violating bracket when it fails.
    It walks the revenue curve's linear segments (a closed form is one) in
    ascending-price order, at points inside each.  A constant-price segment
    (price equals R' there) has no density, so it is skipped unless every
    segment is one, as on a point mass.  A step between two points may fall
    below 0 by the rounding bound of phi at both (MONOTONE_ULPS); the row
    reports the smallest step, or, if some step falls below its bound, the
    one furthest below it.
    """
    qs = (0.0,) + d.breakpoints() + (1.0,)
    pieces = list(zip(qs[-2::-1], qs[:0:-1]))
    dense = [(lo, hi) for lo, hi in pieces if d.price(hi) != d.marginal_revenue(hi)]
    q_all = np.concatenate([
        np.linspace(lo, hi, max(int(MONOTONE_GRID * (hi - lo)), 16) + 2)[-2:0:-1]
        for lo, hi in dense or pieces])
    # virtual_utility_at_quantile's expression, from terms whose sizes bound
    # its rounding; u(p), u'(p) and p are >= 0
    p = d.price(q_all)
    value, slope, mr = u(p), u.derivative(p), d.marginal_revenue(q_all)
    phi_all = value - slope * (p - mr)
    size = value + slope * (p + np.abs(mr))
    bound = MONOTONE_ULPS * 2.0 ** -53 * (size[1:] + size[:-1])

    diffs = phi_all[1:] - phi_all[:-1]
    slack = diffs + bound
    i = int(np.argmin(diffs)) if slack.min() >= 0 else int(np.argmin(slack))
    v_lo, v_hi = d.price(float(q_all[i])), d.price(float(q_all[i + 1]))
    worst = (f"{d.label}|{u.label}: phi({v_lo:.6g})={phi_all[i]:.6g} -> "
             f"phi({v_hi:.6g})={phi_all[i + 1]:.6g}")
    return report_from_margin(
        name=f"virtual-utility-monotone[{d.label}|{u.label}]",
        claimed=0.0, observed=float(diffs[i]), tolerance=float(bound[i]),
        instances=len(diffs), worst=worst)
