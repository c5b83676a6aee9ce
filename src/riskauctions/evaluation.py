"""Expected-utility evaluation of mechanisms over i.i.d. bidders.

Both mechanisms are evaluated exactly in quantile space, at any number of
bidders, by one evaluator for a whole utility family: a binomial sum over
the count of bidders at or above the posted price or reserve, plus, for
k-unit VCG with k < n, one order-statistic integral.  The binomial sum is
`numerics.binom_expect`, whose error bound (the window's tail and the
rounding of each pmf, of the sum and of a subnormal sale probability) joins
the quadrature error in ``abserr``.  Both sides of the virtual-utility
identity are quantile-space integrals too.  `eval_mc`, chunked Monte Carlo
whose draws are a pure function of (seed, samples, n), is kept as an
independent cross-check; no evaluation here calls it.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .distributions import Distribution
from .mechanisms import Mechanism, VcgMechanism, _least_bid, _revenue
from .numerics import binom_expect, binom_window, gauss_kronrod, order_stat_pdf, quad_target
from .report import LemmaReport
from .utilities import UtilityFunction, linear, virtual_utility_at_quantile

__all__ = [
    "EvalResult",
    "eval_posted_exact",
    "eval_second_price_exact",
    "eval_vcg_exact",
    "eval_mc",
    "evaluate",
    "myerson_revenue",
    "virtual_utility_identity_stats",
    "check_virtual_utility_identity",
]

MC_CHUNK = 65_536
# uniforms per chunk: fixes a chunk's rows, and so its generator stream
MC_BUDGET = 2 ** 22
MC_TILE = 2 ** 17  # uniforms drawn and ranked at a time: 1 MiB, in cache
MIN_MC_SAMPLES = 1_000
FAMILY_CHUNK = 2 ** 16  # weights per binomial sum of a utility family: bounds the temporaries


@dataclass(frozen=True)
class EvalResult:
    mean_utility: float
    method: str  # "exact" | "monte_carlo"
    ci_halfwidth: float = 0.0
    samples: int = 0
    benchmark: float | None = None
    ratio: float | None = None
    abserr: float = 0.0  # quadrature error estimate plus the binomial sum's error bound

    def against(self, benchmark: float) -> "EvalResult":
        if benchmark <= 0:
            raise ValueError("benchmark must be positive to form a ratio")
        return replace(self, benchmark=benchmark, ratio=self.mean_utility / benchmark)


def _split_points(d: Distribution, u: UtilityFunction, scale: float) -> list[float]:
    """Quantile-space points where the integrand loses smoothness."""
    pts = list(d.breakpoints())
    if u.kink is not None and scale > 0:
        pts.append(d.sale_probability(u.kink / scale))
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
    """E[u(price * min(k, #bidders at or above price))] by binomial summation.
    u is nondecreasing with u(0) = 0, so the largest weight is u(price *
    min(n, k))."""
    return _exact(d, n, k, price, False, (u,))[0]


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
    return _exact(d, n, k, reserve, True, (u,))[0]


def _exact(d: Distribution, n: int, k: int, price: float, auction: bool,
           utilities: Sequence[UtilityFunction]) -> list[EvalResult]:
    """The exact E[u(revenue)] for each utility, in order, of k units sold
    to n bidders at ``price``: a posted price, or a VCG ``auction``'s reserve.
    The sale probability q, the binomial window, the revenue at each count
    and, for an auction of k < n units, the order statistic's density are
    found once; the weights are one row per utility, summed FAMILY_CHUNK
    weights or one row at a time."""
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    if not (math.isfinite(price) and price >= 0):
        raise ValueError(f"the {'reserve' if auction else 'price'} must be finite and nonnegative")
    q = d.sale_probability(price)
    # Y ~ Bin(n, q) bidders reach the price.  A posted offer earns price * min(k, Y);
    # an auction of k < n units earns price * Y if Y <= k, else k times the (k+1)-st bid
    scarce = auction and k < n
    means, errs = [0.0] * len(utilities), [0.0] * len(utilities)
    if q < 1.0 or not scarce:  # else all n > k bidders clear the reserve
        y = binom_window(n, q)[0]  # binom_expect's counts
        revenue = price * (y[:max(k - int(y[0]) + 1, 0)] if scarce else np.minimum(y, k))
        top = price * min(n, k)
        rows = max(FAMILY_CHUNK // len(y), 1)
        for i in range(0, len(utilities), rows):
            group = utilities[i:i + rows]
            mean, err = binom_expect(n, q, lambda _: np.array([u(revenue) for u in group]),
                                     lambda: np.array([u(top) for u in group]))
            means[i:i + rows], errs[i:i + rows] = mean.tolist(), err.tolist()
    if scarce and q > 0.0:
        pdf = order_stat_pdf(k + 1, n)
        peaks = _peak_points(k + 1, n)
        for i, u in enumerate(utilities):
            # x = 0, where the price may be infinite, is a node only when q is subnormal
            val, quad_err = _integrate(lambda x: _weighted(pdf(x), u(k * d.price(x))), 0.0, q,
                                       _split_points(d, u, float(k)) + peaks)
            means[i] += val
            errs[i] += quad_err
    return [EvalResult(mean, "exact", abserr=err) for mean, err in zip(means, errs)]


def _least_uniform(d: Distribution, level: float) -> float:
    """The least float t in [0, 1) with d.quantile(t) >= level, or 1.0 if no
    such float exists.  For a nondecreasing quantile a uniform draw u gives a
    bid at or above level exactly when u >= t.  The search runs over the bit
    patterns of [0, 1), which order as the floats do, and probes 255 of them
    at a time through the quantile kernel that prices the bids: eight calls
    cover the 2^62 patterns."""
    lo, hi = -1, int(np.float64(1.0).view(np.int64))  # quantile(lo) < level <= quantile(hi)
    while hi - lo > 1:
        step = max((hi - lo) // 256, 1)
        probe = np.arange(lo + step, hi, step, dtype=np.int64)
        reached = d.quantile(probe.view(np.float64)) >= level
        i = int(np.argmax(reached)) if reached.any() else len(probe)
        lo = int(probe[i - 1]) if i > 0 else lo
        hi = int(probe[i]) if i < len(probe) else hi
    return float(np.int64(hi).view(np.float64))


def eval_mc(m: Mechanism, d: Distribution, n: int, u: UtilityFunction,
            samples: int = 1_000_000, seed: int = 0) -> EvalResult:
    """Monte Carlo estimate of E[u(revenue)] over `samples` profiles of n
    i.i.d. bids, with its 95% CI halfwidth, for n <= MC_BUDGET.  Chunk j
    holds min(MC_CHUNK, MC_BUDGET // n) rows, the last one fewer, and draws
    its uniforms from SeedSequence(entropy=seed, spawn_key=(j,)), so the
    result is a pure function of (seed, samples, n).

    A chunk is drawn and priced one tile of about MC_TILE uniforms at a
    time; successive draws from one generator continue its stream, so the
    tiles hold the chunk's uniforms.  Every kind's quantile is nondecreasing
    on the floats, so the bid quantile(x) ranks as its uniform x does:
    `mechanisms._revenue` ranks the uniforms, turns only the (k+1)-st
    highest of each row into a bid, and counts the uniforms at or above the
    cut `_least_uniform` of the price or reserve, which gives the bits that
    the bids themselves give.
    """
    if samples < MIN_MC_SAMPLES:
        raise ValueError(f"need at least {MIN_MC_SAMPLES} samples")
    if n < 1:
        raise ValueError("need n >= 1")
    if n > MC_BUDGET:  # a single profile would exceed the chunk budget
        raise ValueError(f"Monte Carlo takes at most {MC_BUDGET} bidders")
    rows = min(MC_CHUNK, MC_BUDGET // n)
    tile_rows = min(max(MC_TILE // n, 2048), rows)
    cut = _least_uniform(d, _least_bid(m))
    buf = np.empty((min(tile_rows, samples), n))
    work: dict = {}
    s = s2 = 0.0
    for idx, start in enumerate(range(0, samples, rows)):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(idx,)))
        size = min(rows, samples - start)
        revs = []
        for lo in range(0, size, tile_rows):
            tile = buf[:min(tile_rows, size - lo)]
            rng.random(out=tile)
            revs.append(_revenue(m, tile, cut, d.quantile, work))
        v = u(revs[0] if len(revs) == 1 else np.concatenate(revs))
        del revs
        s += v.sum()
        s2 += np.multiply(v, v, out=v).sum()
    mean = s / samples
    var = max((s2 - samples * mean * mean) / (samples - 1), 0.0)
    return EvalResult(float(mean), "monte_carlo", float(1.96 * np.sqrt(var / samples)),
                      samples)


def evaluate(m: Mechanism, d: Distribution, n: int,
             utilities: Sequence[UtilityFunction]) -> list[EvalResult]:
    """The exact E[u(revenue)] of a posted-price or VCG mechanism for each
    utility u of a family, in its order: the results of `eval_posted_exact`
    or `eval_vcg_exact`, bit for bit, as all three share one evaluator, which
    sums the whole family over one binomial window."""
    return _exact(d, n, m.k, _least_bid(m), isinstance(m, VcgMechanism), utilities)


# -- revenue benchmark ----------------------------------------------------------


def myerson_revenue(d: Distribution, n: int, k: int) -> tuple[float, float]:
    """Expected revenue of k-unit VCG with the monopoly reserve (Myerson's
    optimal auction), exact, as (revenue, ci_halfwidth).  The halfwidth is
    always 0; the pair keeps the shape of the sampled benchmark it replaced."""
    return eval_vcg_exact(d, n, k, linear(), d.monopoly_price()[0]).mean_utility, 0.0


# -- the virtual utility identity ------------------------------------------------


def virtual_utility_identity_stats(d: Distribution, m: VcgMechanism,
                                   u: UtilityFunction, n: int) -> dict:
    """Exact E[u(Rev)] and E[sum of winners' virtual utilities] (``lhs``,
    ``rhs``), their error estimates (``lhs_abserr``, ``rhs_abserr``) and the
    ``tolerance`` within which they must agree.  Requires single-unit VCG and
    a reserve no lower than the lowest value, below which the lowest type
    keeps a surplus.  Atoms are fine: in quantile space the virtual utility
    on a top atom at p0 is u(p0).

    The left side is `eval_vcg_exact`, whose ``abserr`` adds the binomial
    sum's error bound to the quadrature estimate.  The winner holds the
    lowest of n uniform quantiles, q, if q <= q_r, and the others lie above
    it with probability (1 - q)^(n-1), so the right side is
    n * int_0^q_r phi_u(q) (1 - q)^(n-1) dq, phi_u from
    `virtual_utility_at_quantile`.  Below q = 1/2 it is integrated in
    t = log q, where phi_u grows at most like |t| as q -> 0, from q = 5e-324,
    the least float; above, in q, as exp(t) near q = 1 rounds to floats 2^-53
    apart and would turn the integrand into a step function of t.

    phi_u is the slope of G(q) = q * u(price(q)), so a piece of the right side
    over [x, y] is worth at most n * |G(y) - G(x)| where phi_u keeps its sign.
    The tolerance sums one term for each known error:
    - the two error estimates, which show a quadrature that hit its panel
      budget;
    - the two targets `quad_target(side)`, which each estimate met: an
      error the estimates miss is smaller, such as a capped kink that
      price() crosses a few ulps off its split point, where phi_u jumps by
      1/rate on exponential:rate (3.8e-14 at rate 0.001);
    - the ends of [0, q_r] that no float quantile resolves.  Below 5e-324
      the right side leaves out n * G(5e-324) at most.  Over [q_last, q_r],
      q_last the last float below q_r where phi_u is finite, the integrand
      is held at its value at q_last, as the float nodes near q_r round to
      q_r or beyond, where phi_u may be infinite (power utilities where the
      price reaches 0): the true piece is at most n * |G(q_r) - G(q_last)|,
      and the held one n * |phi_u(q_last)| * (q_r - q_last).
    """
    if not isinstance(m, VcgMechanism) or m.k != 1:
        raise ValueError("the identity applies to single-unit VCG mechanisms")
    if m.reserve < d.support[0]:
        raise ValueError("the identity needs a reserve at or above the lowest value "
                         f"{d.support[0]:g}")
    lhs = eval_vcg_exact(d, n, 1, u, m.reserve)
    q_r = d.sale_probability(m.reserve)
    rhs = rhs_err = ends = 0.0
    if q_r > 5e-324:
        def phi(q: float) -> float:
            return virtual_utility_at_quantile(d, u, q)

        # a float or two below q_r = 1, price() can round to 0 on curves
        # ending at R(1) = 0, where phi_u of a power utility is infinite
        q_last = math.nextafter(q_r, 0.0)
        while q_last > 5e-324 and not math.isfinite(phi(q_last)):
            q_last = math.nextafter(q_last, 0.0)

        def in_t(t):
            q = np.minimum(np.exp(t), q_last)
            return n * virtual_utility_at_quantile(d, u, q) * (-np.expm1(t)) ** (n - 1) * q

        def in_q(q):
            q = np.minimum(q, q_last)
            return n * virtual_utility_at_quantile(d, u, q) * (1.0 - q) ** (n - 1)

        def g(q: float) -> float:
            return q * u(d.price(q))

        # phi_u is unbounded where the price falls to 0 (power utilities,
        # q = 1), 1 - q_r past q_r: edges 2^j s short of 1, s = 1 - q_r or
        # one ulp when q_r = 1, resolve it
        s = max(1.0 - q_r, 2.0 ** -53)
        tail = [1.0 - s * 2.0 ** j for j in range(54)]
        pts = _split_points(d, u, 1.0) + _peak_points(1, n) + tail
        mid = min(q_r, 0.5)
        rhs, rhs_err = _integrate(in_t, math.log(5e-324), math.log(mid),
                                  [math.log(p) for p in pts if 5e-324 < p < mid])
        if q_r > mid:
            val, err = _integrate(in_q, mid, q_r, pts)
            rhs, rhs_err = rhs + val, rhs_err + err
        ends = n * (g(5e-324) + abs(g(q_r) - g(q_last)) + abs(phi(q_last)) * (q_r - q_last))
    tolerance = (lhs.abserr + rhs_err + quad_target(lhs.mean_utility) + quad_target(rhs)
                 + ends)
    return {"lhs": lhs.mean_utility, "lhs_abserr": lhs.abserr,
            "rhs": rhs, "rhs_abserr": rhs_err, "tolerance": tolerance}


def check_virtual_utility_identity(d: Distribution, m: VcgMechanism,
                                   u: UtilityFunction, n: int) -> LemmaReport:
    """Expected utility equals expected winner virtual utility: the two exact
    sides must agree within the tolerance of `virtual_utility_identity_stats`."""
    st = virtual_utility_identity_stats(d, m, u, n)
    return LemmaReport(
        f"virtual-utility-identity[{d.label}|{u.label}|n={n}]", 0.0,
        0.0 - abs(st["lhs"] - st["rhs"]), st["tolerance"], 1,  # +0, not -0, on a tie
        f"lhs={st['lhs']:.9g} rhs={st['rhs']:.9g} "
        f"abserr={st['lhs_abserr'] + st['rhs_abserr']:.3g}")
