"""Valuation distributions, viewed through their revenue curves.

A bidder's valuation distribution F is handled in quantile space: selling at
price p reaches the q = Pr[value >= p] highest-value buyers, and the revenue
curve R(q) = q * price(q) (price(q) being the price that sells with
probability q) carries everything the package needs.  Closed-form kinds
(uniform, exponential) implement F directly; curve-defined kinds store a
piecewise-linear R and are evaluated exactly, including the point mass such a
curve places at the top of the support (a linear initial segment through the
origin means a constant price on (0, q1], i.e. an atom of mass q1).

All objects are immutable after construction and safe to share across
threads.
"""
from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from functools import cached_property

import numpy as np

from .numerics import elementwise

__all__ = [
    "SpecParseError", "NotDifferentiableError", "Distribution", "Uniform", "Exponential",
    "RevenueCurveDistribution", "uniform", "exponential", "left_triangle",
    "irregular_example", "revenue_curve", "make_distribution", "parse_spec",
]

U = 2.0 ** -53  # a typed decimal reads, and an IEEE operation rounds, within U relative


def _num(x: float) -> str:
    """``x`` at 6 significant digits if they read back as ``x``, else in full."""
    return f"{x:g}" if float(f"{x:g}") == x else repr(float(x))


class SpecParseError(ValueError):
    """A textual spec or constructor input does not describe a valid object."""


def parse_spec(spec: str, kinds: dict, what: str):
    """``kinds[head](rest)`` for a ``what`` spec ``head:rest``.  No colon, an
    unknown head, or a ValueError or TypeError from the converter raise
    SpecParseError; one the converter raises keeps its message."""
    spec = spec.strip()
    head, sep, rest = spec.partition(":")
    if not sep:
        raise SpecParseError(f"malformed {what} spec: {spec!r}")
    if head not in kinds:
        raise SpecParseError(f"unknown {what} kind: {head!r}")
    try:
        return kinds[head](rest)
    except SpecParseError:
        raise
    except (ValueError, TypeError) as exc:
        raise SpecParseError(f"malformed {what} spec: {spec!r} ({exc})") from exc


class NotDifferentiableError(ValueError):
    """A density-based quantity was requested at a kink or atom."""


class Distribution:
    """Common interface: a float in, a float out; an array in, an array out.

    A kind supplies array kernels (``_price``, ``_sale_probability``,
    ``_marginal_revenue``, ``_cdf``, ``_quantile``, ``_inverse_hazard``, and
    ``_revenue`` if R(q) has a better form than q * price(q)); the public
    methods here check the domain once and run them through
    `numerics.elementwise`.
    """

    kind: str = ""
    _label: str | None = None

    # -- core queries ------------------------------------------------------

    def cdf(self, v):
        """F(v) = Pr[value <= v], right-continuous; v must be >= 0."""
        return elementwise(self._cdf, v, lo=0.0, message="values are nonnegative")

    def sale_probability(self, p):
        """Pr[value >= p]; includes any atom sitting exactly at p."""
        return elementwise(self._sale_probability, p)

    def quantile(self, p):
        """Generalized inverse inf{v : F(v) >= p} for p in [0, 1]."""
        return elementwise(self._quantile, p, lo=0.0, hi=1.0,
                           message="quantile needs p in [0, 1]")

    def price(self, q):
        """Price reaching the q highest-value buyers; equals R(q)/q on (0, 1]."""
        return elementwise(self._price, q)

    def marginal_revenue(self, q):
        """R'(q) for q in (0, 1]: the slope of the revenue curve, from the left
        at kinks, so a top atom's marginal revenue is its price."""
        return elementwise(self._marginal_revenue, q)

    def revenue(self, q):
        """R(q) = q * price(q), with R(0) = 0 taken as the limit."""
        return elementwise(self._revenue, q, lo=0.0, hi=1.0,
                           message="revenue is defined for q in [0, 1]")

    def inverse_hazard(self, v):
        """(1 - F(v)) / f(v); finite limits at support edges are honored."""
        lo, hi = self.support
        return elementwise(self._inverse_hazard, v, lo=lo, hi=hi,
                           message="hazard is defined on the support only")

    def _revenue(self, q):
        with np.errstate(invalid="ignore"):
            return np.where(q > 0, q * self._price(np.maximum(q, 1e-300)), 0.0)

    def breakpoints(self) -> tuple[float, ...]:
        """Interior quantiles where price(q) has a kink or a jump; none here."""
        return ()

    _slope_drops = _cross = (np.empty(0), np.empty(0))  # a closed form has no kink or segment

    def slope_drops(self) -> tuple[np.ndarray, np.ndarray]:
        """The slope drops s_left - s_right of the revenue curve at `breakpoints()`
        and their allowances, as two arrays.  At (q1, r1), between (q0, r0) and
        (q2, r2), the drop is det / (q1 - q0) / (q2 - q1), with orient2d det =
        (r1 - r0)(q2 - q1) - (r2 - r1)(q1 - q0), and the allowance A / (q1 - q0) /
        (q2 - q1) with A = (4U + 16U^2) T, T = (q2 - q1)(r0 + r1) + (q1 - q0)(r1 + r2)
        + (q0 + q1)|r2 - r1| + (q1 + q2)|r1 - r0|.  U T bounds det's first-order
        change as each typed coordinate moves by U relative; its float evaluation
        error is at most (3U + 16U^2)(|(r1 - r0)(q2 - q1)| + |(r2 - r1)(q1 - q0)|)
        (Shewchuk 1997), which is at most (3U + 16U^2) T as r >= 0.  Rounded
        divides are monotone, so a drop below minus its allowance has det < -A."""
        return self._slope_drops

    @property
    def support(self) -> tuple[float, float]:
        raise NotImplementedError

    @property
    def spec_string(self) -> str:
        raise NotImplementedError

    @property
    def label(self) -> str:
        return self._label or self.spec_string

    # -- derived structure -------------------------------------------------

    @cached_property
    def _monopoly(self) -> tuple[float, float]:
        return self._find_monopoly()

    def monopoly_price(self) -> tuple[float, float]:
        """(p_star, q_star): the revenue-maximizing price and its sale probability.

        Ties on a flat-topped curve resolve to the smallest maximizing q.
        """
        return self._monopoly

    def _find_monopoly(self) -> tuple[float, float]:
        raise NotImplementedError

    def is_regular(self) -> bool:
        """True when the revenue curve is concave: no slope drop of `slope_drops`
        is below minus its allowance (a closed form has no breakpoint)."""
        drops, allowance = self.slope_drops()
        return bool((drops >= -allowance).all())

    def is_mhr(self) -> bool:
        """True when the hazard rate is nondecreasing where it is defined.  On a
        curve segment R = a + b*q with a > 0 the hazard q/a falls as the price rises,
        so each a must be 0 within the allowance its price-rise check states."""
        cross, allowance = self._cross
        return bool((cross <= allowance).all())

    def __repr__(self):
        return f"<{type(self).__name__} {self.label}>"


class Uniform(Distribution):
    kind = "uniform"

    def __init__(self, a: float, b: float):
        if not (0 <= a < b) or not math.isfinite(a) or not math.isfinite(b):
            raise SpecParseError("uniform needs 0 <= a < b, both finite")
        self.a = float(a)
        self.b = float(b)

    @property
    def support(self):
        return (self.a, self.b)

    @property
    def spec_string(self):
        return f"uniform:{_num(self.a)},{_num(self.b)}"

    def _cdf(self, v):
        return np.clip((v - self.a) / (self.b - self.a), 0.0, 1.0)

    def _sale_probability(self, p):
        return 1.0 - np.clip((p - self.a) / (self.b - self.a), 0.0, 1.0)

    def _quantile(self, p):
        return self.a + p * (self.b - self.a)

    def _price(self, q):
        return self.a + (1.0 - q) * (self.b - self.a)

    def _marginal_revenue(self, q):
        return self.a + (1.0 - 2.0 * q) * (self.b - self.a)

    def _inverse_hazard(self, v):
        return self.b - v

    def _find_monopoly(self):
        # closed form: p(b - p)/(b - a) peaks at b/2, clipped to the support
        p = max(self.b / 2.0, self.a)
        return p, self.sale_probability(p)


class Exponential(Distribution):
    kind = "exponential"

    def __init__(self, rate: float):
        if not (rate > 0) or not math.isfinite(rate):
            raise SpecParseError("exponential needs a positive finite rate")
        self.rate = float(rate)

    @property
    def support(self):
        return (0.0, math.inf)

    @property
    def spec_string(self):
        return f"exponential:{_num(self.rate)}"

    def _cdf(self, v):
        return -np.expm1(-self.rate * v)

    def _sale_probability(self, p):
        return np.exp(-self.rate * np.maximum(p, 0.0))

    def _quantile(self, p):
        if np.any(p >= 1):
            raise ValueError("p >= 1 has no finite quantile for an unbounded support")
        return -np.log1p(-p) / self.rate

    def _price(self, q):
        with np.errstate(divide="ignore"):
            return -np.log(q) / self.rate + 0.0  # price(1) is +0, not -0

    def _marginal_revenue(self, q):
        with np.errstate(divide="ignore"):
            return (-np.log(q) - 1.0) / self.rate

    def _inverse_hazard(self, v):
        return np.full_like(v, 1.0 / self.rate)

    def _find_monopoly(self):
        # closed form: p*exp(-rate*p) peaks at 1/rate with sale probability 1/e
        return 1.0 / self.rate, float(np.exp(-1.0))


class RevenueCurveDistribution(Distribution):
    """Distribution defined by a piecewise-linear revenue curve.

    Within a linear segment R = a + b*q the price is a/q + b, the survival
    at price v inverts to q = a/(v - b), the hazard is 1/(v - b), and the
    slope b is the classical marginal-revenue value of every price in the
    segment.  A segment through the origin has constant price, i.e. an atom.

    price() is nonincreasing on the floats, so quantile() is nondecreasing:
    the breakpoint prices are made nonincreasing once, and each segment's
    rounded a/q + b, with a >= 0, is clamped between the prices at its two
    ends, where the rounded prices of two segments would otherwise cross.
    """

    kind = "revenue_curve"

    def __init__(self, qs, rs, label: str | None = None):
        """The curve through the points (qs[i], rs[i]), given as two 1-d
        sequences; (0, 0) is put in front if qs starts above 0."""
        qs = np.array(qs, dtype=float)
        rs = np.array(rs, dtype=float)
        if qs.ndim != 1 or qs.shape != rs.shape:
            raise SpecParseError("qs and rs must be 1-d arrays of one length")
        if len(qs) and qs[0] > 0:
            qs = np.concatenate(([0.0], qs))
            rs = np.concatenate(([0.0], rs))
        if len(qs) < 2:
            raise SpecParseError("a revenue curve needs at least two points")
        if qs[0] != 0.0 or rs[0] != 0.0:
            raise SpecParseError("a revenue curve starts at (0, 0)")
        if qs[-1] != 1.0:
            raise SpecParseError("a revenue curve ends at q = 1")
        dq = qs[1:] - qs[:-1]
        if not (dq > 0).all():  # a NaN q fails this too
            raise SpecParseError("q coordinates must be strictly increasing")
        if (rs < 0).any() or not np.isfinite(rs).all():
            raise SpecParseError("revenue values must be finite and nonnegative")
        if rs.max() <= 0:
            raise SpecParseError("the revenue curve must be positive somewhere")

        self._qs = qs
        self._rs = rs
        self._slopes = (rs[1:] - rs[:-1]) / dq
        # An intercept that rounds below 0, on a stretch of nearly constant
        # price, is taken as 0: a/q + b is then nonincreasing in q on every
        # segment, and the stretch counts as constant-price.
        self._intercepts = np.maximum(rs[:-1] - self._slopes * qs[:-1], 0.0)
        # A segment's intercept a has the sign of r0 q1 - r1 q0 = a (q1 - q0),
        # within (4U + U^2)(r0 q1 + r1 q0): 2U from typed coordinates, the rest
        # from floats.  a < 0 beyond that, a price that rises, is invalid.
        left, right = rs[:-1] * qs[1:], rs[1:] * qs[:-1]
        self._cross = (left - right, (4 * U + U * U) * (left + right))
        if (self._cross[0] < -self._cross[1]).any():
            raise SpecParseError("not a valid distribution: price must be nonincreasing in q")
        # Breakpoint prices; entry 0 is the limit price at q -> 0+ (the atom).
        bp = rs[1:] / qs[1:]
        self._prices = np.minimum.accumulate(np.concatenate((bp[:1], bp)))

        self._label = label
        # Plain-float copies for the float paths.
        self._qs_list = qs.tolist()
        self._slopes_list = self._slopes.tolist()
        self._price0 = float(self._prices[0])

    @property
    def points(self) -> tuple[tuple[float, float], ...]:
        return tuple(zip(self._qs.tolist(), self._rs.tolist()))

    @property
    def support(self):
        return (float(self._prices[-1]), float(self._prices[0]))

    @cached_property
    def spec_string(self):
        body = ";".join(f"{_num(q)}:{_num(r)}" for q, r in self.points)
        return f"revenue-curve:{body}"

    # -- quantile-space primitives ------------------------------------------

    def breakpoints(self):
        return tuple(self._qs_list[1:-1])

    @cached_property
    def _slope_drops(self) -> tuple[np.ndarray, np.ndarray]:
        q, r = self._qs, self._rs
        dq, dr = q[1:] - q[:-1], r[1:] - r[:-1]
        sq, sr, adr = q[1:] + q[:-1], r[1:] + r[:-1], np.abs(dr)
        det = dr[:-1] * dq[1:] - dr[1:] * dq[:-1]
        t = dq[1:] * sr[:-1] + dq[:-1] * sr[1:] + adr[1:] * sq[:-1] + adr[:-1] * sq[1:]
        return det / dq[:-1] / dq[1:], (4 * U + 16 * U * U) * t / dq[:-1] / dq[1:]

    @cached_property
    def _price_segments(self) -> tuple[list, list, list, list, list]:
        """Breakpoints, intercepts and slopes of price(q) = a/q + b, and the
        least and greatest price of each segment (the prices at its right and
        left breakpoints), as lists.

        At an inner breakpoint, price is its stored price R/q (hi of the
        segment it starts), not a/q + b of the segment it ends, which can
        round an ulp above: sale_probability searches the stored prices, and
        one ulp above one it solves the segment before, where the sale
        probability can fall 1e-12 in that ulp.

        Where R(1) > 0, q = 1 has a segment of its own, whose price is clamped
        to support[0], so that price(1) is support[0] exactly: the segment
        search runs on breakpoints whose last is the float below 1.  A curve
        ending at R(1) = 0 keeps its last segment there, whose price rounds to
        0 or a few ulps above it (the clamp's lower end, 0, takes the ulps
        below); perfbench/reference.py copies that rounding."""
        r1 = float(self._rs[-1])
        last_q = math.nextafter(1.0, 0.0) if r1 > 0.0 else 1.0
        prices = self._prices.tolist()
        return (self._qs_list[:-1] + [last_q], self._intercepts.tolist() + [r1],
                self._slopes_list + [0.0], prices[1:] + prices[-1:], prices[:-1] + prices[-1:])

    @cached_property
    def _price_arrays(self) -> tuple[np.ndarray, ...]:
        return tuple(np.array(v) for v in self._price_segments)

    # price and marginal_revenue take a float without NumPy, as the
    # single-bidder search calls them once per bisection step

    def price(self, q):
        if isinstance(q, float):  # also np.float64, a float subclass
            return self._price_of_float(float(q))
        return elementwise(self._price, q)

    def _price(self, q):
        qs, intercepts, slopes, lo, hi = self._price_arrays
        right = np.searchsorted(qs, q, side="left")
        idx = np.maximum(right - 1, 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            v = np.minimum(np.maximum(intercepts[idx] / q + slopes[idx], lo[idx]), hi[idx])
        # an inner breakpoint has its own price R/q (see _price_segments)
        right = np.minimum(right, len(qs) - 2)
        v = np.where(self._qs[right] == q, hi[right], v)
        return np.where(q <= self._qs[1], self._prices[0], v)

    def _price_of_float(self, q: float) -> float:
        # The array path above, one point at a time: the same bisection, one
        # divide, one add and the same clamp, so the result is bit-identical
        # to it.  np.maximum(v, x) is v if v > x or v is NaN, else x, and
        # np.minimum likewise; both are exact.
        if q <= self._qs_list[1]:
            return self._price0
        qs, intercepts, slopes, lo, hi = self._price_segments
        right = bisect_left(qs, q)
        if right < len(qs) - 1 and self._qs_list[right] == q:
            return hi[right]
        j = max(right - 1, 0)
        v = intercepts[j] / q + slopes[j]
        v = v if v > lo[j] or v != v else lo[j]
        return v if v < hi[j] or v != v else hi[j]

    def marginal_revenue(self, q):
        # The slope of the segment left of q; on (0, q1] that is the atom price.
        if isinstance(q, float):
            j = bisect_left(self._qs_list, q) - 1
            return self._slopes_list[min(max(j, 0), len(self._slopes_list) - 1)]
        return elementwise(self._marginal_revenue, q)

    def _marginal_revenue(self, q):
        idx = np.searchsorted(self._qs, q, side="left") - 1
        return self._slopes[np.clip(idx, 0, len(self._slopes) - 1)]

    def _revenue(self, q):
        return np.interp(q, self._qs, self._rs)

    def _q_at_price(self, v, strict: bool):
        """Largest q whose price exceeds (strict) or reaches (non-strict) v."""
        j = np.searchsorted(-self._prices, -v, side="left" if strict else "right") - 1
        out = np.where(j < 0, 0.0, 1.0)
        mid = (j >= 0) & (j < len(self._intercepts))
        jm = j[mid]
        a = self._intercepts[jm]
        with np.errstate(divide="ignore", invalid="ignore"):
            # a constant-price segment (a = 0): the whole stretch counts
            out[mid] = np.where(a == 0.0, self._qs[jm + 1], a / (v[mid] - self._slopes[jm]))
        return out

    @cached_property
    def _sale_segments(self) -> tuple[list, list]:
        """The negated breakpoint prices, ascending, and the intercepts, as
        lists for `_q_at_float_price`."""
        return (-self._prices).tolist(), self._intercepts.tolist()

    def _q_at_float_price(self, v: float) -> float:
        # _q_at_price(v, strict=False) one point at a time: the same search,
        # and the same one subtraction and one divide, so the result is
        # bit-identical to it.  bisect_right, like searchsorted, puts NaN
        # after every price, so NaN sells with probability 1 on both paths.
        neg_prices, intercepts = self._sale_segments
        j = bisect_right(neg_prices, -v) - 1
        if j < 0:
            return 0.0
        if j >= len(intercepts):
            return 1.0
        a = intercepts[j]
        if a == 0.0:
            return self._qs_list[j + 1]
        gap = v - self._slopes_list[j]
        return a / gap if gap else math.inf  # NumPy's a / 0 for a > 0

    def sale_probability(self, p):
        # a float without NumPy, as the half-bound sweep asks once per curve
        if isinstance(p, float):
            return self._q_at_float_price(float(p))
        return elementwise(self._sale_probability, p)

    def _cdf(self, v):
        return 1.0 - self._q_at_price(v, strict=True)

    def _sale_probability(self, p):
        return self._q_at_price(p, strict=False)

    def _quantile(self, p):
        q = 1.0 - p
        return np.where(q <= 0, self._prices[0], self._price(np.maximum(q, 1e-300)))

    # -- density-based quantities -------------------------------------------

    def _inverse_hazard(self, v):
        if np.any(v == self._prices[0]):
            raise NotDifferentiableError("no density at the atom at the top of the support")
        if np.any(np.isin(v, self._prices[1:-1])):
            raise NotDifferentiableError("not differentiable at a kink of the revenue curve")
        j = np.searchsorted(-self._prices, -v, side="left") - 1
        j = np.clip(j, 0, len(self._slopes) - 1)
        if np.any(self._intercepts[j] == 0.0):
            raise NotDifferentiableError("no density inside a constant-price stretch")
        return v - self._slopes[j]

    def _find_monopoly(self):
        # Exact: a piecewise-linear curve peaks at a breakpoint (argmax takes the
        # least q of a flat top), whose stored price sells; R/q may round above it.
        i = int(self._rs.argmax())
        return float(self._prices[i]), float(self._qs[i])


# -- constructors -------------------------------------------------------------


def uniform(a: float, b: float) -> Uniform:
    return Uniform(a, b)


def exponential(rate: float) -> Exponential:
    return Exponential(rate)


def _check_eps(eps: float) -> float:
    eps = float(eps)
    if not (0 < eps < 0.5):
        raise SpecParseError("eps must lie strictly between 0 and 1/2")
    return eps


def left_triangle(eps: float) -> RevenueCurveDistribution:
    """Triangle revenue curve peaking at (eps, 1): an atom of mass eps at value
    1/eps plus a heavy tail; the canonical worst case for a risk-neutral seller."""
    eps = _check_eps(eps)
    return RevenueCurveDistribution([0.0, eps, 1.0], [0.0, 1.0, 0.0], f"left-triangle:{_num(eps)}")


def irregular_example(eps: float) -> RevenueCurveDistribution:
    """A non-concave revenue curve whose peak collapses immediately; posted
    prices extract almost nothing from it under any utility."""
    eps = _check_eps(eps)
    if 2 * eps >= 1 - eps:
        raise SpecParseError("eps too large for the irregular example (needs eps < 1/3)")
    return RevenueCurveDistribution([0.0, eps, 2 * eps, 1 - eps, 1.0], [0.0, 1.0, eps, eps, 0.0],
                                    f"irregular-example:{_num(eps)}")


def revenue_curve(points, label: str | None = None) -> RevenueCurveDistribution:
    """The curve through the (q, R) pairs in ``points``."""
    pts = [(float(q), float(r)) for q, r in points]
    return RevenueCurveDistribution([q for q, _ in pts], [r for _, r in pts], label)


_DISTRIBUTION_KINDS = {
    "uniform": lambda rest: uniform(*map(float, rest.split(","))),
    "exponential": lambda rest: exponential(float(rest)),
    "left-triangle": left_triangle,
    "irregular-example": irregular_example,
    "revenue-curve": lambda rest: revenue_curve([p.split(":") for p in rest.split(";")]),
}


def make_distribution(spec: str) -> Distribution:
    """A distribution from its spec: ``uniform:a,b`` | ``exponential:rate`` |
    ``left-triangle:eps`` | ``irregular-example:eps`` | ``revenue-curve:q1:R1;q2:R2;...``"""
    return parse_spec(spec, _DISTRIBUTION_KINDS, "distribution")
