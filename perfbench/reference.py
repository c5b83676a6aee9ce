"""Reference values computed without the riskauctions package.

The exact-queries and mc-eval workloads check the program's numbers against
the closed forms below.  Distributions are re-parsed from their spec strings
and evaluated in quantile space with NumPy; integrals use SciPy's
``quad_vec`` (all utilities of a family in one vector-valued integral), a
different integrator from the package's QUADPACK ``quad``.

Tolerances (relative, with an absolute floor of ``ATOL``):

- ``EXACT_RTOL`` for closed forms and finite sums, which the CSV prints to
  12 significant digits;
- ``QUAD_RTOL`` for values that pass through quadrature: the package asks
  QUADPACK for 1e-8 relative error and this module asks quad_vec for 1e-10.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad_vec
from scipy.optimize import minimize_scalar
from scipy.special import betainc

EXACT_RTOL = 1e-9
QUAD_RTOL = 1e-6
ATOL = 1e-10


def close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b)) + ATOL


# -- distributions -------------------------------------------------------------


class RefDist:
    """uniform, exponential, or a piecewise-linear revenue curve."""

    def __init__(self, kind: str, params=(), points=None):
        self.kind = kind
        self.params = params
        if points is not None:
            qs = np.array([p[0] for p in points], dtype=float)
            rs = np.array([p[1] for p in points], dtype=float)
            if qs[0] > 0:
                qs, rs = np.concatenate(([0.0], qs)), np.concatenate(([0.0], rs))
            self.qs, self.rs = qs, rs
            self.slopes = np.diff(rs) / np.diff(qs)
            self.icepts = rs[:-1] - self.slopes * qs[:-1]

    @property
    def is_curve(self) -> bool:
        return self.kind == "curve"

    def price(self, q):
        q = np.asarray(q, dtype=float)
        if self.kind == "uniform":
            a, b = self.params
            return a + (1.0 - q) * (b - a)
        if self.kind == "exponential":
            with np.errstate(divide="ignore"):
                return -np.log(q) / self.params[0]
        return np.maximum(self.segment_price(q), 0.0)

    def segment_price(self, q):
        """a/q + b on the curve segment holding q, as the package computes it;
        at q = 1 a curve ending at R(1) = 0 can round to just below zero."""
        j = np.clip(np.searchsorted(self.qs, q, side="left") - 1, 0, len(self.slopes) - 1)
        with np.errstate(divide="ignore", invalid="ignore"):
            return self.icepts[j] / q + self.slopes[j]

    def price_one_negative(self) -> bool:
        return self.is_curve and bool(self.segment_price(1.0) < 0.0)

    def sale(self, p):
        """Pr[value >= p]."""
        p = np.asarray(p, dtype=float)
        if self.kind == "uniform":
            a, b = self.params
            return 1.0 - np.clip((p - a) / (b - a), 0.0, 1.0)
        if self.kind == "exponential":
            return np.exp(-self.params[0] * np.maximum(p, 0.0))
        best = np.zeros_like(p)
        for a, b, q0, q1 in zip(self.icepts, self.slopes, self.qs[:-1], self.qs[1:]):
            if a == 0.0:  # constant price b on (q0, q1]
                cand = np.where(b >= p, q1, 0.0)
            else:         # price a/q + b falls from q0 to q1
                with np.errstate(divide="ignore", invalid="ignore"):
                    reach = np.where(p > b, a / (p - b), np.inf)
                cand = np.where(reach > q0, np.minimum(reach, q1), 0.0)
            best = np.maximum(best, cand)
        # every value is at least the bottom price R(1)
        return np.where(p <= self.rs[-1], 1.0, best)

    def atom(self) -> float:
        """Mass of the point at the top of the support (curves only)."""
        if not self.is_curve:
            return 0.0
        top = self.rs[1] / self.qs[1]
        i = 1
        while i + 1 < len(self.qs) and self.rs[i + 1] / self.qs[i + 1] == top:
            i += 1
        return float(self.qs[i])

    def monopoly(self) -> tuple[float, float]:
        if self.kind == "uniform":
            a, b = self.params
            p = max(b / 2.0, a)
            return p, float(self.sale(p))
        if self.kind == "exponential":
            return 1.0 / self.params[0], math.exp(-1.0)
        i = int(np.argmax(self.rs))
        return float(self.rs[i] / self.qs[i]), float(self.qs[i])

    def is_regular(self) -> bool:
        if not self.is_curve:
            return True
        tol = 1e-9 * max(1.0, float(np.abs(self.slopes).max()))
        return bool(np.all(np.diff(self.slopes) <= tol))

    def breaks(self) -> list[float]:
        return [float(q) for q in self.qs[1:-1]] if self.is_curve else []


def parse_dist(spec: str) -> RefDist:
    head, _, rest = spec.partition(":")
    if head == "uniform":
        a, b = (float(x) for x in rest.split(","))
        return RefDist("uniform", (a, b))
    if head == "exponential":
        return RefDist("exponential", (float(rest),))
    if head == "left-triangle":
        e = float(rest)
        return RefDist("curve", points=[(0.0, 0.0), (e, 1.0), (1.0, 0.0)])
    if head == "irregular-example":
        e = float(rest)
        return RefDist("curve", points=[(0.0, 0.0), (e, 1.0), (2 * e, e),
                                        (1 - e, e), (1.0, 0.0)])
    if head == "revenue-curve":
        pts = [tuple(float(x) for x in piece.split(":")) for piece in rest.split(";")]
        return RefDist("curve", points=pts)
    raise ValueError(f"unknown spec {spec!r}")


# -- utilities -----------------------------------------------------------------


class RefUtility:
    def __init__(self, kind: str, param: float | None = None):
        self.kind, self.param = kind, param

    @property
    def label(self) -> str:
        return "linear" if self.kind == "linear" else f"{self.kind}:{self.param:g}"

    @property
    def kink(self) -> float | None:
        return self.param if self.kind == "capped" else None

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "linear":
            return x
        if self.kind == "power":
            return np.power(x, self.param)
        return np.minimum(x, self.param)


def parse_utility(spec: str) -> RefUtility:
    if spec == "linear":
        return RefUtility("linear")
    head, _, rest = spec.partition(":")
    return RefUtility(head, float(rest))


def default_family() -> list[RefUtility]:
    return ([RefUtility("linear"), RefUtility("power", 0.5), RefUtility("power", 1.0 / 3.0)]
            + [RefUtility("capped", float(c)) for c in np.logspace(-4, -1, 8)])


def _utility_matrix(fam, x):
    return np.array([u(x) for u in fam], dtype=float)


# -- mechanism values ------------------------------------------------------------


def binom_pmf(n: int, q: float) -> np.ndarray:
    return np.array([math.comb(n, j) * q ** j * (1.0 - q) ** (n - j) for j in range(n + 1)])


def posted_value(d: RefDist, price: float, n: int, k: int, fam) -> np.ndarray:
    """E[u(price * min(k, #buyers))] for every utility in ``fam``."""
    pmf = binom_pmf(n, float(d.sale(price)))
    rev = price * np.minimum(np.arange(n + 1), k)
    return _utility_matrix(fam, rev) @ pmf


def _kink_points(d: RefDist, fam, scale: float, hi: float) -> list[float]:
    pts = set(d.breaks())
    for u in fam:
        if u.kink is not None and scale > 0:
            pts.add(float(d.sale(u.kink / scale)))
    return sorted(p for p in pts if 0.0 < p < hi)


def _integrate(f, hi: float, pts) -> np.ndarray:
    val, _ = quad_vec(f, 0.0, hi, epsabs=1e-14, epsrel=1e-10, norm="max",
                      points=pts or None, limit=20_000)
    return np.atleast_1d(val)


def vcg_value(d: RefDist, n: int, k: int, reserve: float, fam) -> np.ndarray:
    """E[u(revenue)] of k-unit VCG with a reserve, n i.i.d. bidders.

    With j <= k bidders at or above the reserve, each of them pays it; with
    more, the k winners pay the (k+1)-th highest bid, price(Q) for the
    (k+1)-th smallest of n uniform quantiles Q < q_r.
    """
    q_r = float(d.sale(reserve)) if reserve > 0 else 1.0
    out = np.zeros(len(fam))
    pmf = binom_pmf(n, q_r)
    for j in range(1, min(k, n) + 1):
        out += pmf[j] * _utility_matrix(fam, j * reserve)
    if k < n and q_r > 0.0:
        coef = math.factorial(n) / (math.factorial(k) * math.factorial(n - k - 1))

        def f(q):
            w = coef * q ** k * (1.0 - q) ** (n - k - 1)
            return w * _utility_matrix(fam, k * float(d.price(q)))

        out += _integrate(f, q_r, _kink_points(d, fam, float(k), q_r))
    return out


def myerson_revenue(d: RefDist, n: int, k: int) -> float:
    """Revenue of VCG with the monopoly reserve, for the cases the
    exact-queries workload asks for (k = 1 or k >= n)."""
    p_star, q_star = d.monopoly()
    if k >= n:
        return n * p_star * q_star
    if k != 1:
        raise ValueError("no closed form used here for 1 < k < n")
    return float(vcg_value(d, n, 1, p_star, [RefUtility("linear")])[0])


def hedge_price(d: RefDist, n: int, k: int) -> float:
    p_star, q_star = d.monopoly()
    r = p_star * q_star
    if k >= n:
        return r
    q_r = float(d.sale(r))
    alloc = float(np.minimum(np.arange(n + 1), k) @ binom_pmf(n, q_r)) / n
    return float(d.price(alloc))


def optimal_reserve(d: RefDist, u: RefUtility) -> tuple[float, float]:
    """(best single-bidder price, its expected utility u(p) * Pr[sale])."""
    if u.kind == "capped":
        # min(price(q), c) * q is maximized at q*, where price = c, at q = 1,
        # or (curves) at a breakpoint: it is linear between those points.
        qs = [d.monopoly()[1], float(d.sale(u.param)), 1.0] + d.breaks()
    elif d.kind == "uniform":
        a, b = d.params
        alpha = 1.0 if u.kind == "linear" else u.param
        qs = [float(d.sale(max(alpha * b / (1.0 + alpha), a)))]
    elif d.kind == "exponential":
        alpha = 1.0 if u.kind == "linear" else u.param
        qs = [math.exp(-alpha)]
    else:
        grid = np.linspace(0.0, 1.0, 200_001)[1:]
        g = np.asarray(u(d.price(grid))) * grid
        i = int(np.argmax(g))
        lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]
        res = minimize_scalar(lambda q: -float(u(d.price(q))) * q, bounds=(lo, hi),
                              method="bounded", options={"xatol": 1e-14})
        qs = [float(grid[i]), float(res.x)] + d.breaks()
    vals = [float(u(d.price(q))) * q for q in qs]
    i = int(np.argmax(vals))
    return float(d.price(qs[i])), vals[i]


def single_bidder_value(d: RefDist, u: RefUtility, price: float) -> float:
    return float(u(price)) * float(d.sale(price))


# -- lemma quantities ------------------------------------------------------------


def tail_observed(d: RefDist, cases) -> list[float]:
    """P[t-th highest of n bids >= its own mean] for each (t, n) in ``cases``."""
    coef = np.array([math.factorial(n) / (math.factorial(t - 1) * math.factorial(n - t))
                     for t, n in cases])
    t, n = np.array(cases).T

    def f(q):
        return coef * q ** (t - 1) * (1.0 - q) ** (n - t) * float(d.price(q))

    ey = _integrate(f, 1.0, d.breaks())
    return [float(betainc(ti, ni - ti + 1, float(d.sale(e)))) for ti, ni, e in zip(t, n, ey)]


def frontier(d: RefDist, fam, grid: int):
    """(prices, sale probabilities, ratios[u, price]) of the posted-price sweep."""
    p_star, q_star = d.monopoly()
    bench = p_star * q_star
    qs = np.unique(np.concatenate([np.linspace(1.0 / grid, 1.0, grid),
                                   [0.5, float(d.sale(bench))]]))
    prices = np.unique(np.asarray(d.price(qs), dtype=float))
    sale = d.sale(prices)
    ratios = np.array([u(prices) * sale / float(u(bench)) for u in fam])
    return prices, sale, ratios
