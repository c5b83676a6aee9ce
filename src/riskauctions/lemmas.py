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
whose property it lacks.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, repeat
from operator import methodcaller, sub

import numpy as np

from .distributions import Distribution, RevenueCurveDistribution, make_distribution
from .evaluation import (check_virtual_utility_identity, eval_posted_exact,
                         eval_vcg_exact, myerson_revenue)
from .mechanisms import VcgMechanism, hedge_limited_price, hedge_unlimited_price
from .numerics import PMF_ERR, PMF_ERR_LAMBDA, binom_pmf_rows, order_stat_cdf, quad_target
from .report import LemmaReport, report_from_margin
from .utilities import (capped, check_virtual_utility_monotone, linear,
                        optimal_reserve, parse_utility, power)

__all__ = [
    "MHR_BOUND",
    "gen_regular",
    "check_half_bound",
    "check_half_bound_sweep",
    "check_mhr_bound",
    "check_capped_binomial",
    "check_capped_binomial_grid",
    "check_allocation_bound",
    "check_tail",
    "check_vcg_discount",
    "check_hedge_unlimited",
    "check_hedge_limited",
    "check_vcg_chain",
    "FrontierResult",
    "frontier_search",
    "posted_price_maximin",
    "FLOORS",
    "SELECTIONS",
    "unmet_floors",
    "run_selections",
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
    return RevenueCurveDistribution.from_arrays(
        qs, rs, label=f"gen-regular:seed={seed},breakpoints={m}")


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
    return LemmaReport(name=f"capped-binomial[grid n<={n_max}]",
                       passed=bool(worst_margin >= -1e-12), claimed_bound=0.0,
                       observed=float(worst_margin), margin=float(worst_margin),
                       tolerance=1e-12, instances_checked=instances,
                       worst_instance=worst)


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


def _sum_roundoff(terms: int, ratio: float) -> float:
    """Error bound of ``ratio`` = sum_y w_y pmf_y / B, a float sum of ``terms``
    products with weights 0 <= w_y <= B, divided once.  Its rounding is at most
    gamma_m ratio, gamma_m = m u / (1 - m u), u = 2^-53, m = terms + 3 (Higham,
    Accuracy and Stability, eq. 3.5).  Each pmf is within (PMF_ERR pmf +
    PMF_ERR_LAMBDA / e) u of the true one (`binom_window`), which adds
    PMF_ERR u ratio + terms PMF_ERR_LAMBDA u / e."""
    u = 2.0 ** -53
    m = (terms + 3) * u
    return (m / (1.0 - m) + PMF_ERR * u) * ratio + terms * PMF_ERR_LAMBDA * u / math.e


def check_hedge_unlimited(d: Distribution, n: int) -> LemmaReport:
    """Unlimited supply: the hedged posted price earns at least half of u(B),
    B = n * price, for every concave u; exp(-1/e) for a nondecreasing hazard.
    The tolerance is the error of the n + 1 term binomial sum and the mass
    its window leaves out."""
    price = hedge_unlimited_price(d)
    bench = n * price  # n times the maximal single-bidder revenue
    u = capped(bench)
    res = eval_posted_exact(d, price, n, n, u)
    ratio = res.mean_utility / bench
    claimed = MHR_BOUND if d.is_mhr() else 0.5
    return report_from_margin(f"hedge-unlimited[{d.label}|n={n}]", claimed, ratio,
                              _sum_roundoff(n + 1, ratio) + res.abserr / bench, 1, u.label)


def check_hedge_limited(d: Distribution, n: int, k: int) -> LemmaReport:
    """Limited supply: the supply-aware hedged price earns 1/8 of u(B), B the
    optimal revenue, for every concave u.  Tolerance: the sum's error, as in
    `check_hedge_unlimited`, plus B's quadrature target, as E[min(X, B)] / B
    moves by B's relative error."""
    if not 1 <= k < n:
        raise ValueError("need 1 <= k < n")
    price = hedge_limited_price(d, n, k)
    bench = myerson_revenue(d, n, k)[0]
    u = capped(bench)
    res = eval_posted_exact(d, price, n, k, u)
    ratio = res.mean_utility / bench
    tolerance = (_sum_roundoff(n + 1, ratio) + res.abserr / bench
                 + quad_target(bench) / bench * ratio)
    return report_from_margin(f"hedge-limited[{d.label}|n={n},k={k}]", 0.125, ratio,
                              tolerance, 1, u.label)


def check_vcg_chain(d: Distribution, n: int, k: int,
                    fam=(linear(), power(0.5))) -> LemmaReport:
    """The chain behind the reserve-free VCG guarantees, as normalized slacks:

    for k = 1, its utility is at least (1 - 1/n) times the utility-optimal
    auction's for each (smooth) utility in ``fam``, as that benchmark depends
    on u; for k < n, at least a quarter of u(B) for every concave u, B = k
    E[(k+1)-th highest bid]; and B covers the benchmark with k fewer bidders.
    Every term is exact; the report aggregates the worst slack.  The second
    term's tolerance is abserr plus the targets it and B met; the rest, 1e-9.
    """
    if not 1 <= k < n:
        raise ValueError("need 1 <= k < n")
    items: list[tuple[float, float, str]] = []
    if k == 1:
        for u in fam:
            vick = eval_vcg_exact(d, n, 1, u).mean_utility
            opt = eval_vcg_exact(d, n, 1, u, optimal_reserve(d, u)).mean_utility
            items.append((vick / opt - (1.0 - 1.0 / n), 1e-9,
                          f"vickrey-vs-optimal[{u.label}]"))
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


# -- the table of floors behind `lemmas` --------------------------------------------

# the properties a floor may need of a distribution, by the names `lemmas` prints
PROPERTIES = {"regular": methodcaller("is_regular"), "MHR": methodcaller("is_mhr")}


def _check_identity_at_monopoly(d: Distribution, u, n: int) -> LemmaReport:
    """The virtual-utility identity for one unit sold by VCG at the monopoly price."""
    return check_virtual_utility_identity(d, VcgMechanism(1, d.monopoly_price()[0]), u, n)


@dataclass(frozen=True)
class Floor:
    """A selection of `lemmas`: its check's name in this module, looked up
    when the row runs; the property a distribution needs for it ("" for none);
    the argument tuples a given distribution is run with, or None if the row
    takes no distribution; the argument tuples of its built-in instances, each
    led by a distribution spec, any later string a utility spec; and a check
    that runs after the built-in instances with the seed, if any."""
    name: str
    check: str
    needs: str
    dist_args: tuple | None
    instances: tuple
    seeded: str = ""

    def __call__(self, d: Distribution | None, seed: int) -> list[LemmaReport]:
        check = globals()[self.check]
        if self.dist_args is None:
            cases = self.instances
        elif d is not None:  # a check refuses an input without its property
            cases = [(d, *args) for args in self.dist_args]
        else:  # one distribution per spec, shared by its instances
            dists = {s: make_distribution(s) for s in {c[0] for c in self.instances}}
            cases = [(dists[spec], *args) for spec, *args in self.instances]
        reports = [check(*[parse_utility(a) if isinstance(a, str) else a for a in case])
                   for case in cases]
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
