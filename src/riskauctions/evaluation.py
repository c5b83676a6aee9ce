"""Expected-utility evaluation of mechanisms over i.i.d. bidders.

Both mechanisms are evaluated exactly in quantile space: posted prices as a
capped binomial sum, and k-unit VCG with a reserve as a binomial sum plus one
order-statistic integral.  Only evaluations that need a binomial sum over
more than MAX_EXACT_N bidders, and the virtual-utility identity check, use
chunked Monte Carlo (`mc_moments`), whose draws are a pure function of
(seed, samples, n), so results are bit-reproducible.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.integrate import quad

from .distributions import Distribution
from .mechanisms import (Mechanism, PostedPriceMechanism, VcgMechanism, batch_outcomes,
                         batch_revenue)
from .numerics import MAX_EXACT_N, binom_pmf, order_stat_pdf
from .report import LemmaReport
from .utilities import UtilityFunction, linear

__all__ = [
    "EvalResult",
    "eval_posted_exact",
    "eval_second_price_exact",
    "eval_vcg_exact",
    "expected_order_stat_price",
    "eval_mc",
    "mc_moments",
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
    t-th lowest of n uniform quantiles (1 < t <= n).  At large n the density
    is a narrow peak that quad, sampling the whole interval, can miss; below
    n = 48 both points fall outside (0, 1)."""
    a, b = t, n - t + 1  # the order statistic is Beta(a, b)
    mode = (a - 1) / (n - 1)
    sd = math.sqrt(a * b / ((n + 1) ** 2 * (n + 2)))
    return [mode - 50.0 * sd, mode + 50.0 * sd]


def _quad(f, lo: float, hi: float, pts: list[float]) -> float:
    inner = sorted({p for p in pts if lo < p < hi})
    val, _ = quad(f, lo, hi, points=inner or None, limit=200,
                  epsabs=1e-12, epsrel=1e-8)
    return float(val)


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
    mean = 0.0
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
        mean += _quad(integrand, 0.0, q_r, pts)
    return EvalResult(mean, "exact")


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

    return _quad(integrand, 0.0, 1.0, _split_points(d, linear(), 0.0) + _peak_points(t, n))


def mc_moments(d: Distribution, n: int, stat, samples: int = 1_000_000,
               seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Monte Carlo means of per-profile statistics over `samples` profiles of
    n i.i.d. bids, as (means, 95% CI halfwidths).

    `stat` maps a (rows, n) chunk of bids to a tuple of per-row arrays, one
    per statistic.  Chunk j holds at most MC_CHUNK rows and MC_BUDGET bids
    and draws from SeedSequence(entropy=seed, spawn_key=(j,)), so the result
    is a pure function of (seed, samples, n).
    """
    if samples < MIN_MC_SAMPLES:
        raise ValueError(f"need at least {MIN_MC_SAMPLES} samples")
    if n < 1:
        raise ValueError("need n >= 1")
    rows = max(1, min(MC_CHUNK, MC_BUDGET // n))
    s = s2 = None
    for idx, start in enumerate(range(0, samples, rows)):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(idx,)))
        vals = stat(d.draw(rng, (min(rows, samples - start), n)))
        if s is None:
            s, s2 = np.zeros(len(vals)), np.zeros(len(vals))
        for i, v in enumerate(vals):
            v = np.asarray(v, dtype=float)
            s[i] += v.sum()
            s2[i] += (v * v).sum()
    mean = s / samples
    var = np.maximum((s2 - samples * mean * mean) / (samples - 1), 0.0)
    return mean, 1.96 * np.sqrt(var / samples)


def eval_mc(m: Mechanism, d: Distribution, n: int, u: UtilityFunction,
            samples: int = 1_000_000, seed: int = 0) -> EvalResult:
    """Monte Carlo estimate of E[u(revenue)] through `mc_moments`."""
    mean, ci = mc_moments(d, n, lambda bids: (u(batch_revenue(m, bids)),), samples, seed)
    return EvalResult(float(mean[0]), "monte_carlo", float(ci[0]), samples)


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


def virtual_utility_identity_stats(d: Distribution, m: VcgMechanism,
                                   u: UtilityFunction, n: int,
                                   samples: int = 1_000_000, seed: int = 0) -> dict:
    """Shared-sample estimates of E[u(Rev)] and E[sum of winners' virtual
    utilities], plus the paired difference.

    Requires a single-unit VCG mechanism and an atomless distribution (the
    virtual utility needs a density at every sampled value).
    """
    if not isinstance(m, VcgMechanism) or m.k != 1:
        raise ValueError("the identity applies to single-unit VCG mechanisms")
    if d.top_atom_mass > 0:
        raise ValueError("the identity check needs an atomless distribution")

    def stat(bids):
        win, pay = batch_outcomes(m, bids)
        lhs = np.asarray(u(pay.sum(axis=1)), dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            phi = np.asarray(u(bids), dtype=float) \
                - np.asarray(u.derivative(bids), dtype=float) * d.inverse_hazard(bids)
        rhs = np.where(win, phi, 0.0).sum(axis=1)
        return lhs, rhs, lhs - rhs

    mean, ci = mc_moments(d, n, stat, samples, seed)
    (lhs_mean, rhs_mean, diff_mean), (lhs_ci, rhs_ci, diff_ci) = mean.tolist(), ci.tolist()
    return {
        "lhs_mean": lhs_mean, "lhs_ci": lhs_ci,
        "rhs_mean": rhs_mean, "rhs_ci": rhs_ci,
        "diff_mean": diff_mean, "diff_ci": diff_ci,
        "samples": samples,
    }


def check_virtual_utility_identity(d: Distribution, m: VcgMechanism,
                                   u: UtilityFunction, n: int,
                                   samples: int = 1_000_000, seed: int = 0) -> LemmaReport:
    """Expected utility equals expected winner virtual utility: the paired
    difference must vanish within four paired standard errors."""
    st = virtual_utility_identity_stats(d, m, u, n, samples, seed)
    tol = 4.0 * st["diff_ci"] + 1e-12
    dev = abs(st["diff_mean"])
    return LemmaReport(
        name=f"virtual-utility-identity[{d.label}|{u.label}|n={n}]",
        passed=bool(dev <= tol),
        claimed_bound=0.0,
        observed=-dev,
        margin=-dev,
        tolerance=tol,
        instances_checked=1,
        worst_instance=f"lhs={st['lhs_mean']:.9g} rhs={st['rhs_mean']:.9g} "
                       f"diff_ci={st['diff_ci']:.3g}",
    )
