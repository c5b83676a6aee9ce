"""Numerical verification of the guarantees the mechanisms advertise.

Each check computes the two sides of one claimed inequality, as exactly as
the instance allows, and returns a LemmaReport whose margin quantifies how
much room the bound had.  Every check is exact up to float and quadrature
error, and carries a tiny tolerance for it; the allocation bracket is
decided in integers, with none.  No check samples, so the suite's output
does not depend on the seed except through the random curves of the
half-bound sweep.

The utility guarantees cover every seller at once: over nondecreasing concave
u with u(0) = 0, E[u(X)] / u(B) is least at u = capped(B) (proof in the
README), so each is one exact evaluation at capped(B).

`FLOORS` has a row per selection of `lemmas`: its check, the property a
given distribution needs for it (regular, MHR or none) and its instances as
specs, parsed when the row runs.  `all` with a distribution skips the rows
whose property it lacks; `REPRODUCE`, the rows of `reproduce`, run the same way.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from itertools import accumulate, repeat
from operator import methodcaller, sub

import numpy as np

from .distributions import Distribution, RevenueCurveDistribution, make_distribution
from .evaluation import (check_virtual_utility_identity, eval_posted_exact,
                         eval_vcg_exact, myerson_revenue, virtual_utility_identity_stats)
from .mechanisms import VcgMechanism, hedge_limited_price, hedge_unlimited_price
from .numerics import binom_pmf_rows, order_stat_cdf, quad_target
from .report import LemmaReport, report_from_margin
from .utilities import (capped, check_virtual_utility_monotone, linear,
                        optimal_reserve, parse_utilities, parse_utility)

__all__ = [
    "MHR_BOUND", "gen_regular", "check_half_bound", "check_half_bound_sweep",
    "check_mhr_bound", "check_capped_binomial", "check_capped_binomial_grid",
    "check_allocation_bound", "check_tail", "check_tail_tight", "check_vcg_discount",
    "check_hedge_unlimited", "check_hedge_limited", "vickrey_ratios",
    "check_vickrey_vs_optimal", "check_vcg_chain", "FrontierResult", "frontier_search",
    "posted_price_maximin", "check_maximin", "check_identity_one_bidder", "FLOORS",
    "SELECTIONS", "unmet_floors", "run_selections", "REPRODUCE", "run_reproduce",
]

MHR_BOUND = float(np.exp(-np.exp(-1.0)))  # sale-probability floor for m.h.r. inputs


# -- random regular instances ----------------------------------------------------


def gen_regular(seed: int, breakpoints: int | None = None) -> RevenueCurveDistribution:
    """Random concave piecewise-linear revenue curve through the origin.

    Positive segment lengths and strictly decreasing slopes guarantee
    concavity; any trailing negative-slope run is rescaled so the curve ends
    nonnegative.  Deterministic in (seed, breakpoints).
    """
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 65)) if breakpoints is None else int(breakpoints)
    if not 2 <= m <= 64:
        raise ValueError("breakpoints must lie in [2, 64]")
    lengths = rng.uniform(0.2, 1.0, m)
    lengths /= lengths.sum()
    top = rng.uniform(0.5, 3.0)
    slopes = np.zeros(m)
    rng.uniform(0.05, 1.0, m - 1).cumsum(out=slopes[1:])
    np.subtract(top, slopes, out=slopes)
    # the slopes fall, in floats too, so the negative ones are a suffix
    pos = m - np.count_nonzero(slopes < 0)
    parts = slopes * lengths
    loss = float(-parts[pos:].sum())
    if loss > 0.0:
        slopes[pos:] *= rng.uniform(0.05, 0.95) * float(parts[:pos].sum()) / loss
        np.multiply(slopes, lengths, out=parts)
    qs = np.zeros(m + 1)
    lengths.cumsum(out=qs[1:])
    qs[-1] = 1.0
    rs = np.zeros(m + 1)
    parts.cumsum(out=rs[1:])
    rs /= rs.max()
    return RevenueCurveDistribution(qs, rs, f"gen-regular:seed={seed},breakpoints={m}")


# -- sale-probability floors at the hedged price ----------------------------------


def check_half_bound(d: Distribution) -> LemmaReport:
    """A regular distribution sells at the hedged price at least half the time."""
    if not d.is_regular():
        raise ValueError("the half bound applies to regular distributions")
    p_star, q_star = d.monopoly_price()
    s = d.sale_probability(p_star * q_star)
    return report_from_margin(f"half-bound[{d.label}]", 0.5, s, 1e-9, 1, d.label)


def check_half_bound_sweep(count: int = 200, seed: int = 0) -> LemmaReport:
    worst = None
    observed = np.inf
    for i in range(count):
        r = check_half_bound(gen_regular(seed + i))
        if r.observed < observed:
            observed, worst = r.observed, r.worst_instance
    return report_from_margin(f"half-bound[gen-regular x{count}]", 0.5,
                              observed, 1e-9, count, worst or "")


def check_mhr_bound(d: Distribution) -> LemmaReport:
    """With a nondecreasing hazard the floor rises to exp(-1/e) ~ 0.6922."""
    if not d.is_mhr():
        raise ValueError("the stronger bound needs a nondecreasing hazard")
    p_star, q_star = d.monopoly_price()
    s = d.sale_probability(p_star * q_star)
    return report_from_margin(f"mhr-bound[{d.label}]", MHR_BOUND, s, 1e-9, 1, d.label)


# -- combinatorial bounds used by the limited-supply analysis ---------------------


def _capped_means(n: int, qs) -> tuple[np.ndarray, np.ndarray]:
    """(qn, E[min(Y, qn)]) for Y ~ Binomial(n, q), one entry per q in qs."""
    qn = np.asarray(qs, dtype=float) * n
    caps = np.minimum(np.arange(n + 1), qn[:, None])
    return qn, (caps * binom_pmf_rows(n, qs)).sum(axis=1)


def check_capped_binomial(n: int, q: float, k: int) -> LemmaReport:
    """E[min(Y, qn)] >= 0.25*qn for Y ~ Binomial(n, q) whenever qn >= k/2."""
    if k < 1 or n < 1:
        raise ValueError("need integer n >= 1 and k >= 1")
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must be a probability")
    if q * n < 0.5 * k:
        raise ValueError("precondition qn >= 0.5k violated")
    qn = q * n
    e = float(_capped_means(n, [q])[1][0])
    return report_from_margin(f"capped-binomial[n={n},q={q:g},k={k}]",
                              0.25 * qn, e, 1e-12, 1, f"n={n},q={q:g},k={k}")


def check_capped_binomial_grid(n_max: int = 60, q_step: float = 0.01) -> LemmaReport:
    """Exhaustive sweep of the capped-binomial bound; margin is the worst
    absolute slack E[min(Y, qn)] - 0.25*qn over the admissible grid.  Each
    q counts once per admissible k (1 <= k <= min(n, 2qn)); the worst
    instance is the first strict minimum in (n, q) order."""
    steps = round(1.0 / q_step)
    j = np.arange(1, steps + 1)
    grid = j / steps
    worst_margin = np.inf
    worst = ""
    instances = 0
    for n in range(1, n_max + 1):
        k_max = np.minimum(n, 2 * j * n // steps)  # floor(2qn) for q = j/steps, exactly
        admissible = k_max >= 1
        if not admissible.any():
            continue
        qs = grid[admissible]
        qn, e = _capped_means(n, qs)
        margin = e - 0.25 * qn
        instances += int(k_max[admissible].sum())
        i = int(np.argmin(margin))
        if margin[i] < worst_margin:
            worst_margin = margin[i]
            worst = f"n={n},q={qs[i]:g}: E={e[i]:.9g} vs {0.25 * qn[i]:.9g}"
    return report_from_margin(f"capped-binomial[grid n<={n_max}]", 0.0,
                              float(worst_margin), 1e-12, instances, worst)


def check_allocation_bound(n_max: int = 60) -> LemmaReport:
    """allocation_probability(n, k, q_r) must land in [k/2n, k/n] whenever
    q_r >= 1/2, decided in integers on q_r = j/20, j = 10..20: with T = 20^n
    and S_k = sum_y min(k, y) C(n, y) j^y (20 - j)^(n-y) the probability is
    S_k/(nT), so the edges are (2S_k - kT)/(2nT) and (2kT - 2S_k)/(2nT) away.
    The margin is the nearer, rounded once; the worst instance the first
    strict minimum in (n, q_r, k) order.

    Row n of the terms follows from row n - 1 by Pascal's rule, t_y = (20 -
    j) t_y + j t_{y-1}, and as min(k, y) counts the m <= k with y >= m, kT -
    S_k = sum_{m < k} H_m, H the prefix sums of the row.  The rows hold 2 t_y,
    so their prefix sums of prefix sums are the upper edge's numerators
    2(kT - S_k), and kT less them the lower edge's.  All instances of one n
    share the denominator 2nT and are compared by numerator; each n's first
    least is then compared with the worst so far."""
    worst = None  # (numerator, denominator, instance)
    instances = 0
    rows = {j: [2] for j in range(10, 21)}  # 2 t_y for n = 0
    for n in range(1, n_max + 1):
        total = 20 ** n
        kts = list(accumulate(repeat(total, n)))  # kT for k = 1..n
        least = None  # (numerator, j, k, S_k) of this n's first least
        for j, row in rows.items():
            row = rows[j] = [(20 - j) * t + j * s for t, s in zip(row + [0], [0] + row)]
            upper = list(accumulate(accumulate(row[:n])))
            num = min(min(map(sub, kts, upper)), min(upper))
            if least is None or num < least[0]:
                k = [min(kt - b, b) for kt, b in zip(kts, upper)].index(num) + 1
                least = (num, j, k, k * total - upper[k - 1] // 2)
        instances += len(rows) * n
        num, j, k, s_k = least
        den = 2 * n * total
        if worst is None or num * worst[1] < worst[0] * den:
            worst = (num, den, f"n={n},k={k},q_r={j / 20:g}: a={s_k / (n * total):.9g}")
    margin = worst[0] / worst[1]
    return LemmaReport(name=f"allocation-bound[grid n<={n_max}]",
                       passed=worst[0] >= 0, claimed_bound=0.0, observed=margin,
                       margin=margin, tolerance=0.0, instances_checked=instances,
                       worst_instance=worst[2])


# -- the order-statistic tail bound ------------------------------------------------


def check_tail(d: Distribution, t: int, n: int) -> LemmaReport:
    """The t-th highest bid exceeds its own mean, what (t-1)-unit VCG earns
    per unit, with probability >= 1/4, for regular d and 1 < t <= n."""
    if not d.is_regular():
        raise ValueError("the tail bound applies to regular distributions")
    if not 1 < t <= n:
        raise ValueError("need 1 < t <= n (the top order statistic may lack a mean)")
    ey = eval_vcg_exact(d, n, t - 1, linear()).mean_utility / (t - 1)
    z = d.sale_probability(ey)
    observed = order_stat_cdf(t, n, z)
    return report_from_margin(f"tail[{d.label}|t={t},n={n}]", 0.25, observed,
                              1e-6, 1, f"E[Y]={ey:.9g}, q={z:.9g}")


def check_tail_tight(d: Distribution, t: int, n: int) -> LemmaReport:
    """`check_tail`, failing too above 0.26: near a worst case, nearly 1/4."""
    r = check_tail(d, t, n)
    return replace(r, passed=bool(r.passed and r.observed <= 0.26))


# -- revenue and utility guarantees of the hedged mechanisms -----------------------


def check_vcg_discount(d: Distribution, n: int, k: int) -> LemmaReport:
    """Dropping the reserve from the monopoly price to the hedged price costs
    at most half the expected revenue; both revenues are exact."""
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    if not d.is_regular():
        raise ValueError("the discount bound applies to regular distributions")
    p_star, q_star = d.monopoly_price()
    hedged = eval_vcg_exact(d, n, k, linear(), p_star * q_star).mean_utility
    monopoly = myerson_revenue(d, n, k)[0]
    return report_from_margin(
        f"vcg-discount[{d.label}|n={n},k={k}]", 0.0, hedged - 0.5 * monopoly, 1e-9,
        1, f"hedged={hedged:.9g} monopoly={monopoly:.9g}")


def check_hedge_unlimited(d: Distribution, n: int) -> LemmaReport:
    """Unlimited supply: the hedged posted price earns at least half of u(B),
    B = n * price, for every concave u; exp(-1/e) for a nondecreasing hazard.
    The tolerance is the binomial sum's error bound, ``abserr`` of
    `eval_posted_exact`, over B, plus one rounding of the divide."""
    price = hedge_unlimited_price(d)
    bench = n * price  # n times the maximal single-bidder revenue
    u = capped(bench)
    res = eval_posted_exact(d, price, n, n, u)
    ratio = res.mean_utility / bench
    claimed = MHR_BOUND if d.is_mhr() else 0.5
    return report_from_margin(f"hedge-unlimited[{d.label}|n={n}]", claimed, ratio,
                              res.abserr / bench + 2.0 ** -53 * ratio, 1, u.label)


def check_hedge_limited(d: Distribution, n: int, k: int) -> LemmaReport:
    """Limited supply: the supply-aware hedged price earns 1/8 of u(B), B the
    optimal revenue, for every concave u.  Tolerance: the sum's error bound
    and the divide's rounding, as in `check_hedge_unlimited`, plus B's
    quadrature target, as E[min(X, B)] / B moves by B's relative error."""
    if not 1 <= k < n:
        raise ValueError("need 1 <= k < n")
    price = hedge_limited_price(d, n, k)
    bench = myerson_revenue(d, n, k)[0]
    u = capped(bench)
    res = eval_posted_exact(d, price, n, k, u)
    ratio = res.mean_utility / bench
    tolerance = res.abserr / bench + (2.0 ** -53 + quad_target(bench) / bench) * ratio
    return report_from_margin(f"hedge-limited[{d.label}|n={n},k={k}]", 0.125, ratio,
                              tolerance, 1, u.label)


@functools.lru_cache(maxsize=1)  # the rows of one instance search once per utility
def _vickrey_reserves(d: Distribution) -> tuple:
    return tuple((u, optimal_reserve(d, u)) for u in parse_utilities("family:linear;power:0.5"))


def vickrey_ratios(d: Distribution, n: int) -> list[tuple[float, str]]:
    """Vickrey's utility over the utility-optimal auction's, one unit to n bidders."""
    return [(eval_vcg_exact(d, n, 1, u).mean_utility
             / eval_vcg_exact(d, n, 1, u, r).mean_utility, f"vickrey-vs-optimal[{u.label}]")
            for u, r in _vickrey_reserves(d)]


def check_vickrey_vs_optimal(d: Distribution, n: int) -> LemmaReport:
    """The least of `vickrey_ratios` is at least 1 - 1/n, within 1e-9."""
    claimed = 1.0 - 1.0 / n
    worst, label = min(vickrey_ratios(d, n), key=lambda item: item[0])
    return LemmaReport(f"vickrey-vs-optimal[{d.label}|n={n}]", bool(worst >= claimed - 1e-9),
                       claimed, worst, worst - claimed, 1e-9, 2, label)


def check_vcg_chain(d: Distribution, n: int, k: int) -> LemmaReport:
    """The chain behind the reserve-free VCG guarantees, as normalized slacks:

    for k = 1, `vickrey_ratios` are at least 1 - 1/n; for k < n, the utility
    is at least a quarter of u(B) for every concave u, B = k E[(k+1)-th
    highest bid]; and B covers the benchmark with k fewer bidders.  Every term
    is exact; the report aggregates the worst slack.  The second term's
    tolerance is abserr plus the targets it and B met; the rest, 1e-9.
    """
    if not 1 <= k < n:
        raise ValueError("need 1 <= k < n")
    if not d.is_regular():
        raise ValueError("the VCG chain applies to regular distributions")
    items = [(ratio - (1.0 - 1.0 / n), 1e-9, label)
             for ratio, label in (vickrey_ratios(d, n) if k == 1 else ())]
    rev_vcg = eval_vcg_exact(d, n, k, linear()).mean_utility
    u = capped(rev_vcg)
    lhs = eval_vcg_exact(d, n, k, u)
    ratio = lhs.mean_utility / rev_vcg
    err = lhs.abserr + quad_target(lhs.mean_utility) + ratio * quad_target(rev_vcg)
    items.append((ratio - 0.25, err / rev_vcg, f"utility-of-revenue[{u.label}]"))
    rev_fewer = myerson_revenue(d, n - k, k)[0]
    if rev_fewer > 0:
        items.append((rev_vcg / rev_fewer - 1.0, 1e-9, "bidder-augmentation"))
    margin, tolerance, worst = min(items, key=lambda item: item[0])
    return LemmaReport(name=f"vcg-chain[{d.label}|n={n},k={k}]",
                       passed=all(m >= -t for m, t, _ in items), claimed_bound=0.0,
                       observed=margin, margin=margin, tolerance=tolerance,
                       instances_checked=len(items), worst_instance=worst)


# -- the single-bidder price frontier ----------------------------------------------


@dataclass(frozen=True)
class FrontierResult:
    best_price: float
    best_min_ratio: float
    prices: np.ndarray
    sale_probs: np.ndarray
    ratios: np.ndarray  # shape (len(utilities), len(prices))
    utility_labels: tuple[str, ...]


def frontier_search(d: Distribution, fam, grid: int = 1000) -> FrontierResult:
    """Sweep quantile-spaced posted prices for one bidder and one item, and
    rank them by their worst utility ratio against the benchmark u(max
    revenue).  The quantiles 1/2 and the hedged price's sale probability are
    forced onto the grid so the hedged guarantee is visible at any size."""
    if grid < 1:
        raise ValueError("grid must be positive")
    p_star, q_star = d.monopoly_price()
    bench_rev = p_star * q_star
    qs = np.unique(np.concatenate([
        np.linspace(1.0 / grid, 1.0, grid),
        [0.5, d.sale_probability(bench_rev)],
    ]))
    prices = np.unique(d.price(qs))
    sale = d.sale_probability(prices)
    members = list(fam)
    ratios = np.vstack([
        u(prices) * sale / u(bench_rev)
        for u in members])
    min_ratio = ratios.min(axis=0)
    best = int(np.argmax(min_ratio))
    return FrontierResult(best_price=float(prices[best]),
                          best_min_ratio=float(min_ratio[best]),
                          prices=prices, sale_probs=sale, ratios=ratios,
                          utility_labels=tuple(u.label for u in members))


def posted_price_maximin(d: Distribution) -> float:
    """The best ratio one posted price to one bidder earns against u(B), B
    the monopoly revenue, for every concave u at once.  At capped(B) a price
    p earns q(p) min(p, B) / B: q(B) at p = B, R(q) / B with q >= q(B) below.
    Past q(B) >= q* a concave R only falls, so that is q(B) on regular
    inputs; a piecewise-linear R peaks at a breakpoint or q = 1."""
    p_star, q_star = d.monopoly_price()
    bench = p_star * q_star
    q_b = d.sale_probability(bench)
    if d.is_regular():
        return q_b
    return max([q_b] + [d.revenue(q) / bench
                        for q in d.breakpoints() + (1.0,) if q > q_b])


def check_maximin(d: Distribution, claimed: float, low: float, high: float) -> LemmaReport:
    """`posted_price_maximin` in [low, high]; the margin is how far inside."""
    m = posted_price_maximin(d)
    return LemmaReport(f"maximin[{d.label}]", bool(low <= m <= high), claimed, m,
                       min(m - low, high - m), 0.0, 1, d.label)


# -- the table of floors behind `lemmas` --------------------------------------------

# the properties a floor may need of a distribution, by the names `lemmas` prints
PROPERTIES = {"regular": methodcaller("is_regular"), "MHR": methodcaller("is_mhr")}


def _check_identity_at_monopoly(d: Distribution, u, n: int) -> LemmaReport:
    """The virtual-utility identity for one unit sold by VCG at the monopoly price."""
    return check_virtual_utility_identity(d, VcgMechanism(1, d.monopoly_price()[0]), u, n)


def check_identity_one_bidder(d: Distribution, u) -> LemmaReport:
    """One bidder and the reserve at the monopoly price p*, so revenue is p*
    with probability q*: both sides of the identity within its tolerance of u(p*) q*."""
    p_star, q_star = d.monopoly_price()
    st = virtual_utility_identity_stats(d, VcgMechanism(1, p_star), u, 1)
    claimed, tol = float(u(p_star)) * q_star, st["tolerance"]
    off = max(abs(st["lhs"] - claimed), abs(st["rhs"] - claimed))
    return LemmaReport(f"identity-one-bidder[{d.label}|{u.label}]", bool(off <= tol),
                       claimed, st["lhs"], -off, tol, 1, f"rhs={st['rhs']:.9g}")


def _run_cases(cases) -> list[LemmaReport]:
    """Call each case's check, named first, on the rest: a leading string is a
    distribution spec, one object per spec, and any later string a utility spec."""
    dist = functools.cache(make_distribution)
    reports = []
    for check, *args in cases:
        if args and isinstance(args[0], str):
            args[0] = dist(args[0])
        reports.append(globals()[check](
            *[parse_utility(a) if isinstance(a, str) else a for a in args]))
    return reports


@dataclass(frozen=True)
class Floor:
    """A selection of `lemmas`: its check's name in this module; the property
    a distribution needs for it ("" for none); the argument tuples a given
    distribution is run with, or None if the row takes no distribution; the
    argument tuples of its built-in instances, cases of `_run_cases`; and a
    check that runs after the built-in instances with the seed, if any."""
    name: str
    check: str
    needs: str
    dist_args: tuple | None
    instances: tuple
    seeded: str = ""

    def __call__(self, d: Distribution | None, seed: int) -> list[LemmaReport]:
        if self.dist_args is None or d is None:
            cases = self.instances
        else:  # a check refuses an input without its property
            cases = [(d, *args) for args in self.dist_args]
        reports = _run_cases((self.check, *case) for case in cases)
        if self.seeded and d is None:
            reports.append(globals()[self.seeded](seed=seed))
        return reports


_REGULARS = ("uniform:0,1", "exponential:1", "left-triangle:0.01")
_FAMILY = ("linear", "power:0.5", "capped:0.01")

FLOORS = (
    Floor("virtual-utility-monotone", "check_virtual_utility_monotone", "",
          tuple((u,) for u in _FAMILY), tuple((x, u) for x in _REGULARS for u in _FAMILY)),
    Floor("half-bound", "check_half_bound", "regular", ((),),
          tuple((x,) for x in _REGULARS), seeded="check_half_bound_sweep"),
    Floor("mhr-bound", "check_mhr_bound", "MHR", ((),),
          (("uniform:0,1",), ("exponential:1",), ("exponential:2",))),
    Floor("capped-binomial", "check_capped_binomial_grid", "", None, ((),)),
    Floor("allocation-bound", "check_allocation_bound", "", None, ((),)),
    Floor("tail", "check_tail", "regular", ((2, 2), (2, 5), (5, 10)),
          (("uniform:0,1", 2, 2), ("uniform:0,1", 3, 5), ("uniform:0,1", 5, 10),
           ("exponential:1", 3, 6), ("left-triangle:0.0001", 2, 2))),
    Floor("vcg-discount", "check_vcg_discount", "regular", ((3, 1),),
          (("uniform:0,1", 3, 1), ("uniform:0,1", 2, 2), ("exponential:1", 5, 2))),
    Floor("hedge-unlimited", "check_hedge_unlimited", "regular", ((5,),),
          (("uniform:0,1", 5), ("exponential:1", 5), ("left-triangle:0.001", 1))),
    Floor("hedge-limited", "check_hedge_limited", "regular", ((5, 2),),
          (("uniform:0,1", 2, 1), ("uniform:0,1", 10, 3), ("exponential:1", 8, 2))),
    Floor("vcg-chain", "check_vcg_chain", "regular", ((4, 1),),
          (("uniform:0,1", 2, 1), ("uniform:0,1", 6, 2))),
    Floor("virtual-utility-identity", "_check_identity_at_monopoly", "",
          (("linear", 2), ("power:0.5", 2)),
          (("uniform:0,1", "linear", 2), ("uniform:0,1", "power:0.5", 2))),
)

# `run_selections` calls each row through this dict, which a tracer may patch
SELECTIONS = {floor.name: floor for floor in FLOORS}


def unmet_floors(d: Distribution | None) -> dict[str, str]:
    """The floors that need a property ``d`` lacks, each with that property."""
    lacks = {need: d is not None and not has(d) for need, has in PROPERTIES.items()}
    return {f.name: f.needs for f in FLOORS if lacks.get(f.needs)}


def run_selections(names, d: Distribution | None = None,
                   seed: int = 42) -> list[LemmaReport]:
    """Run the named floors in turn, or for ``all`` (the default) every floor
    but those in `unmet_floors(d)`, in table order.  An unknown name raises
    KeyError; the check of a named floor whose property ``d`` lacks raises
    ValueError."""
    wanted = list(names) or ["all"]
    for name in wanted:
        if name != "all" and name not in SELECTIONS:
            raise KeyError(f"unknown check {name!r}; choose from: "
                           f"{', '.join(sorted(SELECTIONS))}, all")
    if "all" in wanted:
        skipped = unmet_floors(d)
        wanted = [name for name in SELECTIONS if name not in skipped]
    return [r for name in wanted for r in SELECTIONS[name](d, seed)]


# the rows of `reproduce`: the name and instance each prints, then its case
REPRODUCE = (
    *(("hedge-unlimited-floor", f"{x} n=5", "check_hedge_unlimited", x, 5)
      for x in ("uniform:0,1", "exponential:1")),
    # q(B) is one sale probability at a rounded price: a few ulps off, as MHR_BOUND
    ("frontier-maximin", "left-triangle:0.001", "check_maximin", "left-triangle:0.001",
     0.5, 0.5 - 4 * math.ulp(0.5), math.inf),
    ("frontier-maximin", "exponential:1", "check_maximin", "exponential:1",
     MHR_BOUND, MHR_BOUND - 4 * math.ulp(MHR_BOUND), MHR_BOUND + 4 * math.ulp(MHR_BOUND)),
    ("frontier-ceiling", "irregular-example:0.01", "check_maximin", "irregular-example:0.01",
     0.05, -math.inf, 0.05),
    *(("hedge-limited-floor", f"{x} n={n} k={k}", "check_hedge_limited", x, n, k)
      for x, n, k in (("uniform:0,1", 2, 1), ("uniform:0,1", 10, 3), ("exponential:1", 8, 2))),
    *(("vickrey-vs-optimal", f"uniform:0,1 n={n}", "check_vickrey_vs_optimal",
       "uniform:0,1", n) for n in (2, 3, 5)),
    ("vcg-chain-slack", "uniform:0,1 n=6 k=2", "check_vcg_chain", "uniform:0,1", 6, 2),
    ("allocation-bracket", "n<=60, q_r in {0.5..1.0}", "check_allocation_bound"),
    ("capped-binomial-floor", "n<=60, q step 0.01", "check_capped_binomial_grid"),
    ("tail-quarter", "uniform:0,1 t=2 n=2", "check_tail", "uniform:0,1", 2, 2),
    ("tail-quarter-tight", "left-triangle:0.0001 t=2 n=2", "check_tail_tight",
     "left-triangle:0.0001", 2, 2),
    ("virtual-utility-quarter", "uniform:0,1 vcg:1,0.5 linear n=1",
     "check_identity_one_bidder", "uniform:0,1", "linear"),
)


def run_reproduce() -> list[tuple[str, str, LemmaReport]]:
    """Each row of `REPRODUCE`: its name, its instance and its check's report."""
    reports = _run_cases(row[2:] for row in REPRODUCE)
    return [(name, instance, r) for (name, instance, *_), r in zip(REPRODUCE, reports)]
