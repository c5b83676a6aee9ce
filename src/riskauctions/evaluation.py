"""Expected-utility evaluation of mechanisms over i.i.d. bidders.

Both mechanisms are evaluated exactly in quantile space: posted prices as a
capped binomial sum, and k-unit VCG with a reserve as a binomial sum plus one
order-statistic integral.  Both sides of the virtual-utility identity are
quantile-space integrals too.  Only evaluations that need a binomial sum over
more than MAX_EXACT_N bidders use chunked Monte Carlo (`eval_mc`), whose
draws are a pure function of (seed, samples, n), so results are
bit-reproducible.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .distributions import Distribution
from .mechanisms import Mechanism, PostedPriceMechanism, VcgMechanism, batch_revenue
from .numerics import (MAX_EXACT_N, QUAD_EPSABS, QUAD_EPSREL, binom_pmf, gauss_kronrod,
                       order_stat_pdf)
from .report import LemmaReport, report_from_margin
from .utilities import UtilityFunction, linear, virtual_utility_at_quantile

__all__ = [
    "EvalResult",
    "eval_posted_exact",
    "eval_second_price_exact",
    "eval_vcg_exact",
    "expected_order_stat_price",
    "eval_mc",
    "evaluate",
    "myerson_revenue",
    "virtual_utility_identity_stats",
    "check_virtual_utility_identity",
]

MC_CHUNK = 65_536
MC_BUDGET = 2 ** 22  # bids per chunk: 32 MiB of float64
MIN_MC_SAMPLES = 1_000


@dataclass(frozen=True)
class EvalResult:
    mean_utility: float
    method: str  # "exact" | "monte_carlo"
    ci_halfwidth: float = 0.0
    samples: int = 0
    benchmark: float | None = None
    ratio: float | None = None
    abserr: float = 0.0  # quadrature error estimate; 0 for binomial-only values

    def against(self, benchmark: float) -> "EvalResult":
        if benchmark <= 0:
            raise ValueError("benchmark must be positive to form a ratio")
        return replace(self, benchmark=benchmark, ratio=self.mean_utility / benchmark)


def _split_points(d: Distribution, u: UtilityFunction, scale: float) -> list[float]:
    """Quantile-space points where the integrand loses smoothness."""
    pts = list(d.breakpoints())
    if u.kink is not None and scale > 0:
        pts.append(float(d.sale_probability(u.kink / scale)))
    return pts


def _peak_points(t: int, n: int) -> list[float]:
    """Split points 50 standard deviations either side of the mode of the
    t-th lowest of n uniform quantiles (1 <= t <= n).  At large n the density
    is a narrow peak that the 21 nodes of a wide panel can miss; below
    n = 48 both points fall outside (0, 1)."""
    a, b = t, n - t + 1  # the order statistic is Beta(a, b)
    mode = (a - 1) / max(n - 1, 1)
    sd = math.sqrt(a * b / ((n + 1) ** 2 * (n + 2)))
    return [mode - 50.0 * sd, mode + 50.0 * sd]


# every quadrature goes through this name, which perfbench/tracing.py wraps
quad = gauss_kronrod


def _integrate(f, lo: float, hi: float, pts: list[float]) -> tuple[float, float]:
    """Value and error estimate of the integral of the array function ``f``
    over [lo, hi], with the points of ``pts`` inside it as panel edges."""
    edges = [lo] + sorted({p for p in pts if lo < p < hi}) + [hi]
    return quad(f, edges)


def _weighted(w, v):
    """w * v, and 0 where the weight w is 0 (v may be infinite there)."""
    with np.errstate(invalid="ignore"):
        return np.where(w > 0.0, w * v, 0.0)


def eval_posted_exact(d: Distribution, price: float, n: int, k: int,
                      u: UtilityFunction) -> EvalResult:
    """E[u(price * min(k, #bidders at or above price))] by binomial summation."""
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    q_p = float(d.sale_probability(price))
    pmf = binom_pmf(n, q_p)
    sold = np.minimum(np.arange(n + 1), k)
    mean = float(np.sum(u(price * sold) * pmf))
    return EvalResult(mean, "exact")


def eval_second_price_exact(d: Distribution, reserve: float, n: int,
                            u: UtilityFunction) -> EvalResult:
    """Single unit, n bidders, pay max(reserve, second highest bid)."""
    return eval_vcg_exact(d, n, 1, u, reserve)


def eval_vcg_exact(d: Distribution, n: int, k: int, u: UtilityFunction,
                   reserve: float = 0.0) -> EvalResult:
    """k-unit VCG with a reserve: each winner pays max(reserve, (k+1)-st
    highest bid).

    In quantile space, j <= k bidders clearing the reserve (probability
    P[Bin(n, q_r) = j]) pay j * reserve in total; otherwise the (k+1)-st
    lowest quantile q lies below q_r and k units sell at price(q).
    """
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    if reserve < 0:
        raise ValueError("reserve must be nonnegative")
    q_r = float(d.sale_probability(reserve))
    mean = err = 0.0
    if q_r < 1.0 or k >= n:  # else all n > k bidders clear the reserve
        j = np.arange(min(k, n) + 1)
        mean = float(np.sum(u(reserve * j) * binom_pmf(n, q_r)[:len(j)]))
    if k < n and q_r > 0.0:
        pdf = order_stat_pdf(k + 1, n)

        def integrand(q):
            # q = 0, where the price may be infinite, is a node only when q_r
            # is subnormal
            return _weighted(pdf(q), u(k * d.price(q)))

        pts = _split_points(d, u, float(k)) + _peak_points(k + 1, n)
        val, err = _integrate(integrand, 0.0, q_r, pts)
        mean += val
    return EvalResult(mean, "exact", abserr=err)


def expected_order_stat_price(d: Distribution, t: int, n: int) -> float:
    """E of price(Q) where Q is the t-th lowest of n uniform quantiles, i.e.
    the expected t-th highest of n i.i.d. bids."""
    if t <= 1:
        raise ValueError("need t > 1 (the top order statistic may lack a mean)")
    if t > n:
        raise ValueError("need t <= n")
    pdf = order_stat_pdf(t, n)

    def integrand(q):
        return _weighted(pdf(q), d.price(q))

    pts = _split_points(d, linear(), 0.0) + _peak_points(t, n)
    return _integrate(integrand, 0.0, 1.0, pts)[0]


def eval_mc(m: Mechanism, d: Distribution, n: int, u: UtilityFunction,
            samples: int = 1_000_000, seed: int = 0) -> EvalResult:
    """Monte Carlo estimate of E[u(revenue)] over `samples` profiles of n
    i.i.d. bids, with its 95% CI halfwidth.  Chunk j holds at most MC_CHUNK
    rows and MC_BUDGET bids and draws from SeedSequence(entropy=seed,
    spawn_key=(j,)), so the result is a pure function of (seed, samples, n).
    """
    if samples < MIN_MC_SAMPLES:
        raise ValueError(f"need at least {MIN_MC_SAMPLES} samples")
    if n < 1:
        raise ValueError("need n >= 1")
    rows = max(1, min(MC_CHUNK, MC_BUDGET // n))
    s = s2 = 0.0
    for idx, start in enumerate(range(0, samples, rows)):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(idx,)))
        bids = d.draw(rng, (min(rows, samples - start), n))
        v = np.asarray(u(batch_revenue(m, bids)), dtype=float)
        del bids  # one chunk of bids at a time, freed after u's result is allocated
        s += v.sum()
        s2 += (v * v).sum()
    mean = s / samples
    var = max((s2 - samples * mean * mean) / (samples - 1), 0.0)
    return EvalResult(float(mean), "monte_carlo", float(1.96 * np.sqrt(var / samples)),
                      samples)


def evaluate(m: Mechanism, d: Distribution, n: int, u: UtilityFunction,
             samples: int = 1_000_000, seed: int = 0) -> EvalResult:
    """Exact evaluation unless it needs a binomial sum over more than
    MAX_EXACT_N bidders, Monte Carlo then.  Only VCG with k < n units and a
    reserve every bidder clears needs no such sum."""
    if isinstance(m, PostedPriceMechanism):
        if n <= MAX_EXACT_N:
            return eval_posted_exact(d, m.price, n, m.k, u)
    elif n <= MAX_EXACT_N or (m.k < n and float(d.sale_probability(m.reserve)) == 1.0):
        return eval_vcg_exact(d, n, m.k, u, m.reserve)
    return eval_mc(m, d, n, u, samples, seed)


# -- revenue benchmark ----------------------------------------------------------


def myerson_revenue(d: Distribution, n: int, k: int, seed: int = 0,
                    samples: int = 1_000_000) -> tuple[float, float]:
    """Expected revenue of k-unit VCG with the monopoly reserve (Myerson's
    optimal auction), as (estimate, ci_halfwidth) from `evaluate`; the ci is
    zero when the value is exact, which it is for n <= MAX_EXACT_N."""
    res = evaluate(VcgMechanism(k, d.monopoly_price()[0]), d, n, linear(), samples, seed)
    return res.mean_utility, res.ci_halfwidth


# -- the virtual utility identity ------------------------------------------------


def _target(value: float) -> float:
    """The accuracy every quadrature asks for at this value."""
    return max(QUAD_EPSABS, QUAD_EPSREL * abs(value))


def _identity_sides(d: Distribution, n: int, u: UtilityFunction, reserve: float) -> dict:
    """Both sides of the identity for single-unit VCG with a reserve, with
    their quadrature error estimates and the tolerance within which they
    must agree.  The left side is `eval_vcg_exact`.  The winner holds the
    lowest of n uniform quantiles, q, if q <= q_r, and the others lie above
    it with probability (1 - q)^(n-1), so the right side is
    n * int_0^q_r phi_u(q) (1 - q)^(n-1) dq, phi_u from
    `virtual_utility_at_quantile`.  It is integrated in t = log q, where
    phi_u grows at most like |t| as q -> 0, from q = 5e-324, the least float.

    phi_u is the slope of G(q) = q * u(price(q)), so a piece of the right side
    over [x, y] is worth at most n * |G(y) - G(x)| where phi_u keeps its sign.
    The tolerance sums one term for each known error:
    - the two error estimates, which show a quadrature that hit its panel
      budget;
    - the two targets max(QUAD_EPSABS, QUAD_EPSREL * |side|), which each
      estimate met: an error the estimates miss is smaller, such as a
      capped kink that price() crosses a few ulps off its split point, where
      phi_u jumps by 1/rate on exponential:rate (3.8e-14 at rate 0.001);
    - the ends of [0, q_r] that no float quantile resolves.  Below 5e-324
      the right side leaves out n * G(5e-324) at most.  Over [q_last, q_r],
      q_last the last float below q_r where phi_u is finite, the integrand
      is held at its value at q_last, as the float nodes near q_r round to
      q_r or beyond, where phi_u may be infinite (power utilities where the
      price reaches 0): the true piece is at most n * |G(q_r) - G(q_last)|,
      and the held one n * |phi_u(q_last)| * (q_r - q_last).
    """
    lhs = eval_vcg_exact(d, n, 1, u, reserve)
    q_r = float(d.sale_probability(reserve))
    rhs = rhs_err = ends = 0.0
    if q_r > 5e-324:
        def phi(q: float) -> float:
            return float(virtual_utility_at_quantile(d, u, q))

        # a float or two below q_r = 1, price() can round to 0 on curves
        # ending at R(1) = 0, where phi_u of a power utility is infinite
        q_last = math.nextafter(q_r, 0.0)
        while q_last > 5e-324 and not math.isfinite(phi(q_last)):
            q_last = math.nextafter(q_last, 0.0)

        def integrand(t):
            q = np.minimum(np.exp(t), q_last)
            return n * virtual_utility_at_quantile(d, u, q) * (-np.expm1(t)) ** (n - 1) * q

        def g(q: float) -> float:
            return q * float(u(float(d.price(q))))

        # phi_u is unbounded where the price falls to 0 (power utilities,
        # q = 1), 1 - q_r past q_r: edges 2^j s short of 1, s = 1 - q_r or
        # one ulp when q_r = 1, resolve it
        s = max(1.0 - q_r, 2.0 ** -53)
        tail = [1.0 - s * 2.0 ** j for j in range(54)]
        inner = [math.log(p) for p in _split_points(d, u, 1.0) + _peak_points(1, n) + tail
                 if 5e-324 < p < q_r]
        rhs, rhs_err = _integrate(integrand, math.log(5e-324), math.log(q_r), inner)
        ends = n * (g(5e-324) + abs(g(q_r) - g(q_last)) + abs(phi(q_last)) * (q_r - q_last))
    tolerance = lhs.abserr + rhs_err + _target(lhs.mean_utility) + _target(rhs) + ends
    return {"lhs": lhs.mean_utility, "lhs_abserr": lhs.abserr,
            "rhs": rhs, "rhs_abserr": rhs_err, "tolerance": tolerance}


def virtual_utility_identity_stats(d: Distribution, m: VcgMechanism,
                                   u: UtilityFunction, n: int) -> dict:
    """Exact E[u(Rev)] and E[sum of winners' virtual utilities] (``lhs``,
    ``rhs``), their quadrature error estimates (``lhs_abserr``,
    ``rhs_abserr``) and the ``tolerance`` within which they must agree.
    Requires single-unit VCG.  Atoms are fine: in quantile space the virtual
    utility on a top atom at p0 is u(p0)."""
    if not isinstance(m, VcgMechanism) or m.k != 1:
        raise ValueError("the identity applies to single-unit VCG mechanisms")
    return _identity_sides(d, n, u, m.reserve)


def check_virtual_utility_identity(d: Distribution, m: VcgMechanism,
                                   u: UtilityFunction, n: int) -> LemmaReport:
    """Expected utility equals expected winner virtual utility: the two exact
    sides must agree within the tolerance of `virtual_utility_identity_stats`."""
    st = virtual_utility_identity_stats(d, m, u, n)
    return report_from_margin(
        f"virtual-utility-identity[{d.label}|{u.label}|n={n}]", 0.0,
        0.0 - abs(st["lhs"] - st["rhs"]), st["tolerance"], 1,  # +0, not -0, on a tie
        f"lhs={st['lhs']:.9g} rhs={st['rhs']:.9g} "
        f"abserr={st['lhs_abserr'] + st['rhs_abserr']:.3g}")
