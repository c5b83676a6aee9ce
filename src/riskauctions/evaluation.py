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
from scipy.integrate import quad

from .distributions import Distribution
from .mechanisms import Mechanism, PostedPriceMechanism, VcgMechanism, batch_revenue
from .numerics import MAX_EXACT_N, binom_pmf, order_stat_pdf
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
QUAD_EPSABS, QUAD_EPSREL = 1e-12, 1e-8  # the accuracy every quadrature asks for


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
    is a narrow peak that quad, sampling the whole interval, can miss; below
    n = 48 both points fall outside (0, 1)."""
    a, b = t, n - t + 1  # the order statistic is Beta(a, b)
    mode = (a - 1) / max(n - 1, 1)
    sd = math.sqrt(a * b / ((n + 1) ** 2 * (n + 2)))
    return [mode - 50.0 * sd, mode + 50.0 * sd]


def _quad(f, lo: float, hi: float, pts: list[float]) -> tuple[float, float]:
    """quad's value and error estimate."""
    inner = sorted({p for p in pts if lo < p < hi})
    val, err = quad(f, lo, hi, points=inner or None, limit=200,
                    epsabs=QUAD_EPSABS, epsrel=QUAD_EPSREL)
    return float(val), float(err)


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
            # w = 0 at q = 0, where price may be infinite: quad reaches it
            # when q_r is subnormal
            w = pdf(q)
            return w * float(u(k * float(d.price(q)))) if w else 0.0

        pts = _split_points(d, u, float(k)) + _peak_points(k + 1, n)
        val, err = _quad(integrand, 0.0, q_r, pts)
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
        return pdf(q) * float(d.price(q))

    return _quad(integrand, 0.0, 1.0, _split_points(d, linear(), 0.0) + _peak_points(t, n))[0]


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


def _identity_sides(d: Distribution, n: int, u: UtilityFunction, reserve: float) -> dict:
    """Both sides of the identity for single-unit VCG with a reserve, with
    their quadrature error estimates and the tolerance within which they
    must agree.  The left side is `eval_vcg_exact`.  The winner holds the
    lowest of n uniform quantiles, q, if q <= q_r, and the others lie above
    it with probability (1 - q)^(n-1), so the right side is
    n * int_0^q_r phi_u(q) (1 - q)^(n-1) dq, phi_u from
    `virtual_utility_at_quantile`.  It is integrated in t = log q, where
    phi_u grows at most like |t| as q -> 0, one piece between split points
    at a time, so a sliver between nearly equal points is its own piece.

    Each quadrature asks for max(QUAD_EPSABS, QUAD_EPSREL*|value|) and stops
    once its estimate is below that, where the estimate no longer bounds the
    error (a capped kink placed a few ulps off, times phi_u's jump there of
    1/rate, moved the right side 3.8e-14 against an estimate of 8e-16 on
    exponential:0.001).  And no float quantile resolves the last ulp below
    q_r, over which the integrand moves by about its value there (3e-6 for
    one bidder, power:1/3, r = 0).  The tolerance sums every estimate,
    every target and that last piece.
    """
    lhs = eval_vcg_exact(d, n, 1, u, reserve)
    q_r = float(d.sale_probability(reserve))

    def integrand(t):
        q = math.exp(t)
        return virtual_utility_at_quantile(d, u, q) * (-math.expm1(t)) ** (n - 1) * q

    # phi_u is unbounded where the price falls to 0 (power utilities, q = 1),
    # 1 - q_r past q_r: pieces ending (2^j - 1)(1 - q_r) before q_r resolve it
    tail = [1.0 - (1.0 - q_r) * 2.0 ** j for j in range(1, 54)]
    inner = {math.log(p) for p in _split_points(d, u, 1.0) + _peak_points(1, n) + tail
             if 0.0 < p < q_r}
    # left out: q below 5e-324, the least float, worth 5e-324 |phi_u| at most
    edges = [math.log(5e-324)] + sorted(inner) + [math.log(q_r)] if q_r > 0.0 else []
    pieces = [_quad(integrand, a, b, []) for a, b in zip(edges, edges[1:])]
    rhs = n * sum(v for v, _ in pieces)
    rhs_err = n * sum(e for _, e in pieces)
    targets = [max(QUAD_EPSABS, QUAD_EPSREL * abs(x)) for x in
               [lhs.mean_utility] + [n * v for v, _ in pieces]]
    last_ulp = n * abs(integrand(math.log(math.nextafter(q_r, 0.0)))) * math.ulp(q_r) \
        if q_r > 5e-324 else 0.0
    return {"lhs": lhs.mean_utility, "lhs_abserr": lhs.abserr,
            "rhs": rhs, "rhs_abserr": rhs_err,
            "tolerance": lhs.abserr + rhs_err + sum(targets) + last_ulp}


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
