"""Exact evaluators, Monte Carlo estimation, benchmarks, and the identity check.

Closed-form oracles used below, all derived by hand for uniform(0,1):
second-highest of two draws has density 2(1-v), so E[u] = int u(v) 2(1-v) dv
(1/3 linear, 8/15 for sqrt); a reserve r adds u(r) n (1-r) r^(n-1); VCG with
k of n units pays k times the (k+1)-st highest value.  The linear virtual
value is 2v - 1, so with r = 1/2 one bidder's winner virtual value integrates
to 1/4 and two bidders' to int_{1/2}^1 (2v - 1) 2v dv = 5/12.
"""
import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import betainc
from scipy.stats import binom

from riskauctions import (
    EvalResult,
    PostedPriceMechanism,
    VcgMechanism,
    batch_revenue,
    capped,
    check_virtual_utility_identity,
    default_family,
    eval_mc,
    eval_posted_exact,
    eval_second_price_exact,
    eval_vcg_exact,
    evaluate,
    exponential,
    gen_regular,
    irregular_example,
    left_triangle,
    linear,
    make_distribution,
    myerson_revenue,
    power,
    uniform,
    virtual_utility_identity_stats,
)
from riskauctions.evaluation import MC_BUDGET, MC_CHUNK, MIN_MC_SAMPLES, _split_points
from riskauctions import evaluation
from riskauctions.numerics import (BINOM_TAIL, GK_MAX_PANELS, PMF_ERR, PMF_ERR_LAMBDA,
                                  binom_expect, binom_window, gauss_kronrod, order_stat_cdf,
                                  quad_target)

U01 = uniform(0.0, 1.0)


def stated_abserr(n, p, terms, value, w_max):
    """The error bound `binom_expect` states for a sum of ``terms`` weights
    at most w_max over the Bin(n, p) window, for a normal p whose window
    keeps every pmf above 2^-1022: the tail times w_max, the pmfs' relative
    error and gamma_(terms+1) times the value, and 2^-1075 per product."""
    ys, pmf, tail = binom_window(n, p)
    assert p >= 2.0 ** -1022 and pmf.min() >= 2.0 ** -1022
    lam = 0.05 - math.log(pmf.min())
    gamma = (terms + 1) * 2.0 ** -53 / (1 - (terms + 1) * 2.0 ** -53)
    return (tail * w_max + ((PMF_ERR + PMF_ERR_LAMBDA * lam) * 2.0 ** -53 + gamma) * value
            + terms * 2.0 ** -1075)


class TestPostedExact:
    def test_uniform_examples(self):
        r = eval_posted_exact(U01, 0.25, 1, 1, linear())
        assert r.mean_utility == pytest.approx(0.1875, abs=1e-14)
        assert r.method == "exact" and r.ci_halfwidth == 0.0
        assert eval_posted_exact(U01, 0.25, 2, 1, linear()).mean_utility == \
            pytest.approx(0.234375, abs=1e-14)
        assert eval_posted_exact(U01, 0.25, 1, 1, capped(0.01)).mean_utility == \
            pytest.approx(0.0075, abs=1e-14)

    def test_atom_counts_as_sale(self):
        # price exactly at the left-triangle atom still sells to the atom
        r = eval_posted_exact(left_triangle(0.01), 1.0, 1, 1, linear())
        assert r.mean_utility == pytest.approx(0.5025125628140703, abs=1e-12)

    def test_matches_direct_binomial_sum(self):
        d, p, n, k = exponential(1.0), 0.8, 7, 3
        q = float(d.sale_probability(p))
        for u in (linear(), power(0.5), capped(0.9)):
            want = sum(math.comb(n, y) * q**y * (1 - q) ** (n - y)
                       * float(u(p * min(y, k))) for y in range(n + 1))
            got = eval_posted_exact(d, p, n, k, u).mean_utility
            assert got == pytest.approx(want, abs=1e-12)


class TestSecondPriceExact:
    def test_uniform_examples(self):
        assert eval_second_price_exact(U01, 0.5, 1, linear()).mean_utility == \
            pytest.approx(0.25, abs=1e-10)
        assert eval_second_price_exact(U01, 0.0, 2, linear()).mean_utility == \
            pytest.approx(1 / 3, abs=1e-10)
        assert eval_second_price_exact(U01, 0.5, 2, linear()).mean_utility == \
            pytest.approx(5 / 12, abs=1e-10)

    def test_uniform_sqrt_utility(self):
        # E[sqrt(min of two)] = int sqrt(v) 2(1-v) dv = 8/15
        assert eval_second_price_exact(U01, 0.0, 2, power(0.5)).mean_utility == \
            pytest.approx(8 / 15, abs=1e-9)

    def test_exponential_min_of_two(self):
        # min of two exponential(1) draws is exponential(2)
        assert eval_second_price_exact(exponential(1.0), 0.0, 2, linear()
                                       ).mean_utility == pytest.approx(0.5, abs=1e-9)

    def test_top_atom_boundary_term(self):
        # both draws on the atom pay 1/eps; the continuous part integrates to
        # E[min] = 1 exactly for the left triangle
        r = eval_second_price_exact(left_triangle(0.01), 0.0, 2, linear())
        assert r.mean_utility == pytest.approx(1.0, abs=1e-8)

    def test_rejects_empty_auction(self):
        with pytest.raises(ValueError):
            eval_second_price_exact(U01, 0.5, 0, linear())


class TestVcgExact:
    def test_uniform_examples(self):
        assert eval_vcg_exact(U01, 2, 1, linear()).mean_utility == \
            pytest.approx(1 / 3, abs=1e-10)
        assert eval_vcg_exact(U01, 3, 2, linear()).mean_utility == \
            pytest.approx(0.5, abs=1e-10)
        assert eval_vcg_exact(U01, 2, 1, capped(10.0)).mean_utility == \
            pytest.approx(1 / 3, abs=1e-10)

    def test_exponential_order_statistic(self):
        # second highest of three exponentials has mean 1/2 + 1/3
        assert eval_vcg_exact(exponential(1.0), 3, 1, linear()).mean_utility == \
            pytest.approx(5 / 6, abs=1e-9)

    def test_capped_kink_is_split_correctly(self):
        # revenue 2(1-q) saturates the 0.3 cap at q = 0.85; direct pieces:
        # 0.3*0.85^3 + int_{0.85}^{1} 3 q^2 2(1-q) dq = 0.238996875
        got = eval_vcg_exact(U01, 3, 2, capped(0.3)).mean_utility
        assert got == pytest.approx(0.238996875, abs=1e-10)

    def test_k_at_or_above_n_is_a_posted_offer(self):
        # no scarcity: everyone at or above the reserve wins and pays it
        for k in (2, 3):
            assert eval_vcg_exact(U01, 2, k, linear(), 0.4).mean_utility == \
                pytest.approx(2 * 0.4 * 0.6, abs=1e-15)
        assert eval_vcg_exact(U01, 2, 2, linear()).mean_utility == 0.0

    def test_rejections(self):
        for n, k, r in ((0, 1, 0.0), (2, 0, 0.0), (2, 1, -0.1)):
            with pytest.raises(ValueError):
                eval_vcg_exact(U01, n, k, linear(), r)

    @pytest.mark.parametrize("n,k,r,rel", [
        (1200, 600, 0.5, 1e-10), (2000, 1000, 0.0, 1e-10), (10_000, 5000, 0.3, 1e-10),
        (10_000, 133, 0.99, 1e-10),
        # an exact density constant; from gammaln it was 1e-11 relative off
        (10_000, 3, 0.0, 1e-12)])
    def test_large_n_closed_form(self, n, k, r, rel):
        # n!/(k!(n-k-1)!) overflows a float in the first three, and the
        # density is a narrow peak in all five.  Uniform, q_r = 1 - r: the
        # j <= k bidders above r pay j r in total, sum = r n q_r P[Bin(n-1,
        # q_r) <= k-1]; otherwise k units sell at 1 - q for the Beta(k+1,
        # n-k) quantile q < q_r, and E[(1-q); q < x] = I_x(k+1, n-k) -
        # (k+1)/(n+1) I_x(k+2, n-k)
        q_r = 1.0 - r
        want = r * n * q_r * binom.cdf(k - 1, n - 1, q_r) + k * (
            betainc(k + 1, n - k, q_r) - (k + 1) / (n + 1) * betainc(k + 2, n - k, q_r))
        got = eval_vcg_exact(U01, n, k, linear(), r).mean_utility
        assert got == pytest.approx(want, rel=rel)

    @pytest.mark.parametrize("k", [1, 3])
    def test_million_bidders_stay_within_the_panel_budget(self, k):
        # the density is a peak 1e-6 wide; at most GK_MAX_PANELS (2,000)
        # panels of 21 nodes, 336 KiB per array of node values, a few arrays
        # at a time
        n = 10 ** 6
        tracemalloc.start()
        try:
            r = eval_vcg_exact(U01, n, k, linear())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert math.isfinite(r.mean_utility) and r.abserr <= 1e-8 * r.mean_utility
        assert r.mean_utility == pytest.approx(k * (n - k) / (n + 1), rel=1e-8)
        assert peak < 16 * 2 ** 20

    def test_reserved_multiunit_closed_form(self):
        # uniform, n = 3, k = 2, r = 1/2: one or two bidders at or above 1/2
        # (probability 3/8 each) pay 1/2 each; when all three are, both
        # winners pay the lowest bid, which has density 3(1-v)^2, so that
        # case adds 2 * int_{1/2}^1 3 v (1-v)^2 dv = 2 * 5/64
        want = (3 * 0.5 + 3 * 1.0) / 8 + 2 * 5 / 64
        assert eval_vcg_exact(U01, 3, 2, linear(), 0.5).mean_utility == \
            pytest.approx(want, abs=1e-14)


def test_order_stat_cdf_is_the_incomplete_beta():
    # P[Bin(n, x) >= t] against scipy's regularized incomplete beta
    xs = [0.0, 1.0, 1e-3, 0.01] + np.linspace(0.05, 0.95, 19).tolist() + [0.99, 0.999]
    for n in range(1, 61):
        for t in range(1, n + 1):
            got = [order_stat_cdf(t, n, x) for x in xs]
            np.testing.assert_allclose(got, betainc(t, n - t + 1, xs), rtol=1e-12, atol=0.0,
                                       err_msg=f"t={t}, n={n}")


def scipy_quad(f, lo, hi, pts) -> tuple[float, float]:
    """QUADPACK's value and error estimate, split at the points inside."""
    inner = sorted({p for p in pts if lo < p < hi})
    return quad(f, lo, hi, points=inner or None, limit=200, epsabs=1e-12, epsrel=1e-8)


def reserve_free_vcg(d, n, k, u) -> tuple[float, float]:
    """The reserve-free k < n integral that eval_vcg_exact used to be, by
    QUADPACK, with its error estimate."""
    coef = n * math.comb(n - 1, k)  # density of the (k+1)-st lowest quantile

    def integrand(q):
        return coef * q ** k * (1.0 - q) ** (n - k - 1) * float(u(k * float(d.price(q))))

    return scipy_quad(integrand, 0.0, 1.0, _split_points(d, u, float(k)))


def second_price(d, reserve, n, u) -> tuple[float, float]:
    """The closed form eval_second_price_exact used to have, by QUADPACK: the
    reserve when exactly one bidder clears it, else price of the
    second-lowest quantile; with the quadrature's error estimate."""
    q_r = float(d.sale_probability(reserve))
    mean = float(u(reserve)) * n * q_r * (1.0 - q_r) ** (n - 1)
    err = 0.0
    if n >= 2 and q_r > 0.0:
        c = n * (n - 1)

        def integrand(q):
            if q == 0.0:  # price may be infinite there; the density is 0
                return 0.0
            return float(u(float(d.price(q)))) * c * q * (1.0 - q) ** (n - 2)

        val, err = scipy_quad(integrand, 0.0, q_r, _split_points(d, u, 1.0))
        mean += val
    return mean, err


REFERENCE_DISTS = (uniform(0.0, 1.0), exponential(1.0), exponential(2.5),
                   left_triangle(0.01), uniform(0.5, 2.0), gen_regular(3, 64))
FAMILY = default_family()


@st.composite
def vcg_instances(draw, dists=REFERENCE_DISTS, utilities=FAMILY, n_max=40):
    """(d, n, k, u, r) with n <= n_max, k <= n + 2 and r = price(q) in the support."""
    d = draw(st.sampled_from(dists))
    n = draw(st.integers(1, n_max))
    k = draw(st.integers(1, n + 2))
    q = draw(st.floats(0.0, 1.0, exclude_min=True))
    return d, n, k, draw(st.sampled_from(utilities)), float(d.price(q))


class TestVcgExactReferences:
    @given(vcg_instances())
    def test_reserve_free_is_the_old_integral(self, case):
        d, n, k, u, _ = case
        assume(k < n)
        got = eval_vcg_exact(d, n, k, u)
        want, want_err = reserve_free_vcg(d, n, k, u)
        # two integrators, each within its own error estimate
        assert abs(got.mean_utility - want) <= got.abserr + want_err

    @given(vcg_instances())
    def test_no_scarcity_is_a_posted_offer(self, case):
        d, n, k, u, r = case
        got = eval_vcg_exact(d, n, max(k, n), u, r).mean_utility
        assert got == eval_posted_exact(d, r, n, n, u).mean_utility

    @given(vcg_instances())
    # q_r = e^-581.7 = 1e-253: the pmf's rounding in log space, 2.9e-263
    # here, is all of the error, and abserr states it
    @example((exponential(1.0), 2, 1, linear(), 581.6803093573603))
    def test_single_unit_is_the_old_second_price(self, case):
        d, n, _, u, r = case
        got = eval_vcg_exact(d, n, 1, u, r)
        want, want_err = second_price(d, r, n, u)
        # two integrators, each within its own error estimate; the reserve
        # term differs in rounding, binom_pmf takes it in log space, which
        # got.abserr bounds
        assert abs(got.mean_utility - want) <= got.abserr + want_err

    @given(vcg_instances(dists=(left_triangle(1e-9), exponential(1e-3), exponential(1e3)),
                         utilities=FAMILY + (power(1e-3),)))
    # q_r is subnormal (5e-324), so quad evaluates q = 0, where price is inf
    @example((exponential(1e-3), 2, 1, linear(), 744440.0719213812))
    # q_r = 5e-324 again: the exact 2.5e-324 rounds to 5e-324 here and to 0
    # in mpmath's conversion
    @example((exponential(1e-3), 5, 1, capped(0.1), 744440.0719213812))
    def test_agrees_with_mpmath(self, case):
        d, n, k, u, r = case
        got = eval_vcg_exact(d, n, k, u, r).mean_utility
        want = mpmath_vcg(d, n, k, u, r)
        # 5e-324, the least subnormal: no float lies nearer an exact value
        # between 0 and it
        assert abs(got - want) <= 1e-8 * abs(want) + 5e-324


def mp_price(d, q):
    """price(q) from the closed forms, in mpmath arithmetic."""
    if d.kind == "exponential":
        return -mpmath.log(q) / mpmath.mpf(d.rate)
    if d.kind == "uniform":
        return d.a + (1 - q) * (mpmath.mpf(d.b) - d.a)
    eps = mpmath.mpf(d.points[1][0])  # left triangle: atom at 1/eps, then R = (1-q)/(1-eps)
    return 1 / eps if q <= eps else (1 - q) / ((1 - eps) * q)


def mp_utility(u, x):
    if u.kind == "linear":
        return x
    if u.kind == "power":
        return x ** mpmath.mpf(u.param)
    return min(x, mpmath.mpf(u.param))


def mpmath_vcg(d, n, k, u, r) -> float:
    """The VCG value at 30 digits: binomial sum plus the order-statistic
    integral, split where the price or the utility kinks."""
    with mpmath.workdps(30):
        q_r = mpmath.mpf(float(d.sale_probability(r)))
        r = mpmath.mpf(r)
        total = mpmath.fsum(mpmath.binomial(n, j) * q_r ** j * (1 - q_r) ** (n - j)
                            * mp_utility(u, j * r) for j in range(min(k, n) + 1))
        if k < n and q_r > 0:
            coef = mpmath.factorial(n) / (mpmath.factorial(k) * mpmath.factorial(n - k - 1))
            pts = [mpmath.mpf(p) for p in _split_points(d, u, float(k))]
            if n >= 1000:  # the density is a narrow peak: split around its mode
                mode = mpmath.mpf(k) / (n - 1)
                sd = mpmath.sqrt(mpmath.mpf((k + 1) * (n - k)) / ((n + 1) ** 2 * (n + 2)))
                pts += [mode + j * sd for j in (-64, -16, -4, -1, 1, 4, 16, 64)]
            pts = [0] + sorted(p for p in pts if 0 < p < q_r) + [q_r]
            total += mpmath.quad(lambda q: coef * q ** k * (1 - q) ** (n - k - 1)
                                 * mp_utility(u, k * mp_price(d, q)), pts)
        return float(total)


MPMATH_EDGES = [
    # exponential's -log q singularity at q = 0, at both rate extremes
    (exponential(1e-3), 5, 1, linear(), 0.0),
    (exponential(1e-3), 3, 2, power(0.5), 0.0),
    (exponential(1e3), 5, 1, linear(), 0.0),
    (exponential(1e3), 4, 1, capped(1e-3), 1e-3),
    # an atom of mass eps at 1/eps, down to eps = 1e-9
    (left_triangle(1e-9), 4, 1, linear(), 0.0),
    (left_triangle(1e-9), 3, 2, power(0.5), 2.0),
    (left_triangle(1e-6), 6, 1, capped(0.1), 0.0),
    # alpha near 0: x^0.001 is nearly a step at 0
    (uniform(0.0, 1.0), 3, 1, power(1e-3), 0.0),
    (exponential(1.0), 6, 2, power(1e-3), 0.5),
    # q_r = 5e-324, the least float
    (exponential(1e-3), 2, 1, linear(), 744440.0719213812),
    # n = 10^6: the order statistic's density is a narrow peak
    (uniform(0.0, 1.0), 10 ** 6, 1, linear(), 0.0),
    (uniform(0.0, 1.0), 10 ** 6, 3, power(0.5), 0.0),
    (exponential(1.0), 10 ** 6, 1, linear(), 0.0),
]


@pytest.mark.parametrize("d,n,k,u,r", MPMATH_EDGES,
                         ids=[f"{c[0].label}-n{c[1]}-k{c[2]}-{c[3].label}-r{c[4]:g}"
                              for c in MPMATH_EDGES])
def test_edges_agree_with_mpmath(d, n, k, u, r):
    got = eval_vcg_exact(d, n, k, u, r)
    want = mpmath_vcg(d, n, k, u, r)
    # the accuracy asked for, and the error estimate bounds the true error
    assert abs(got.mean_utility - want) <= 1e-8 * abs(want)
    assert abs(got.mean_utility - want) <= got.abserr


def one_unit_on_exponential(n, r, posted):
    """E[revenue] of one unit to n bidders on exponential:1 at price or
    reserve r, to 60 digits from the true q_r = e^-r rather than its float.
    Posted, r sells when a bidder clears it; VCG adds the second-highest
    value, -log q at the second-lowest quantile q, whose density is n (n-1)
    q (1-q)^(n-2), when two clear it (the integral is taken in q = q_r t)."""
    with mpmath.workdps(60):
        r = mpmath.mpf(r)
        q_r = mpmath.exp(-r)
        if posted:  # term by term: 1 - (1 - q_r)^n would cancel
            return r * mpmath.fsum(mpmath.binomial(n, j) * q_r ** j * (1 - q_r) ** (n - j)
                                   for j in range(1, n + 1))
        return n * q_r * (1 - q_r) ** (n - 1) * r + n * (n - 1) * q_r ** 2 * mpmath.quad(
            lambda t: t * (1 - q_r * t) ** (n - 2) * (r - mpmath.log(t)), [0, 1])


@pytest.mark.parametrize("r", [100.0, 650.0, 700.0, 740.0])
@pytest.mark.parametrize("n", [2, 37])
def test_reserve_term_within_abserr_far_in_the_tail(n, r):
    # the pmf's relative error grows with -log q_r, 5.7e-15 at r = 100 to
    # 1.04e-13 at r = 700; at r = 740, q_r = 4.2e-322 is subnormal and its
    # own rounding puts the value 2.6e-3 off.  abserr must cover each; at
    # n = 37 the window's tail, 2^-60 of the largest weight, dominates it.
    d = exponential(1.0)
    for got, posted in ((eval_posted_exact(d, r, n, 1, linear()), True),
                        (eval_vcg_exact(d, n, 1, linear(), r), False)):
        want = one_unit_on_exponential(n, r, posted)
        with mpmath.workdps(60):
            assert abs(mpmath.mpf(got.mean_utility) - want) <= got.abserr, posted
        if n == 2:  # a whole window, with no tail term: abserr is 3.5% at most
            assert got.abserr <= 0.05 * want


def bid_space_eval_mc(m, d, n, u, samples, seed):
    """(mean, CI halfwidth) of eval_mc as a loop over bid matrices: each
    chunk's bids by inverse transform of its uniforms, priced by
    `batch_revenue`, then u and the sums chunk by chunk."""
    rows = min(MC_CHUNK, MC_BUDGET // n)
    s = s2 = 0.0
    for idx, start in enumerate(range(0, samples, rows)):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(idx,)))
        v = u(batch_revenue(m, d.quantile(rng.random((min(rows, samples - start), n)))))
        s += v.sum()
        s2 += (v * v).sum()
    mean = s / samples
    var = max((s2 - samples * mean * mean) / (samples - 1), 0.0)
    return float(mean), float(1.96 * np.sqrt(var / samples))


def random_distribution(kind, rng):
    if kind == "uniform":
        a = float(rng.choice([0.0, rng.uniform(0.0, 2.0)]))
        return uniform(a, a + float(rng.uniform(0.1, 3.0)))
    if kind == "exponential":
        return exponential(float(10.0 ** rng.uniform(-2.0, 1.0)))
    if kind == "curve ending at 0":
        return [left_triangle, irregular_example][int(rng.integers(2))](rng.uniform(0.01, 0.3))
    return gen_regular(int(rng.integers(2 ** 31)), int(rng.integers(2, 65)))


def random_level(d, where, rng, seed, count):
    """A price or reserve below the support (its bottom if that is 0), inside
    it, equal to one of the first ``count`` bids that eval_mc draws with
    ``seed`` (its first chunk), or above every bid it can draw."""
    top = d.quantile(math.nextafter(1.0, 0.0))  # the largest bid
    if where == "below":
        return d.support[0] * float(rng.random())
    if where == "inside":
        return float(d.quantile(rng.uniform(0.05, 0.95)))
    if where == "above":
        return math.nextafter(top, math.inf) * float(rng.choice([1.0, 1.5]))
    stream = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0,)))
    return float(d.quantile(stream.random(int(rng.integers(count)) + 1)[-1]))


def random_mechanism(kind, level, n, rng):
    if kind == "posted":
        return PostedPriceMechanism(level, int(rng.integers(1, n + 2)))
    if kind == "vcg" and n > 1:  # k < n: up to 40, or n - 1
        return VcgMechanism(int(rng.choice([rng.integers(1, min(n, 41)), n - 1])), level)
    return VcgMechanism(int(rng.integers(n, n + 3)), level)


def random_utility(rng):
    return [linear(), power(0.5), capped(float(rng.uniform(0.1, 5.0)))][int(rng.integers(3))]


def traced_peak_mib(m, d, n, samples):
    eval_mc(m, d, n, linear(), MIN_MC_SAMPLES, seed=1)  # first-call allocations
    tracemalloc.start()
    try:
        eval_mc(m, d, n, capped(5.0), samples, seed=1)
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


class TestLeastUniform:
    """The cut: the least float t in [0, 1) whose bid reaches a level, found
    with the quantile kernel that prices the tiles."""

    @staticmethod
    def assert_exact(d, cut):
        t = evaluation._least_uniform(d, cut)
        assert 0.0 <= t <= 1.0
        below = math.nextafter(t, 0.0)
        if t < 1.0:
            assert d.quantile(t) >= cut
        if t > 0.0:
            assert d.quantile(below) < cut
        # a uniform counts as a sale exactly when its bid does
        for x in (below, t, math.nextafter(t, 1.0)):
            if 0.0 <= x < 1.0:
                assert (x >= t) == (d.quantile(x) >= cut)
        return t

    DISTS = [uniform(0.0, 1.0), uniform(0.3, 7.0), exponential(1.0), exponential(0.01),
             exponential(9.0), gen_regular(11, 2), left_triangle(0.01), irregular_example(0.05)]

    @given(st.sampled_from(DISTS), st.floats(0.0, 1.0, exclude_max=True),
           st.sampled_from(["at", "ulp below", "ulp above", "scaled"]))
    def test_brackets_drawn_cuts(self, d, x0, how):
        v = d.quantile(x0)
        cut = {"at": v, "ulp below": math.nextafter(v, 0.0),
               "ulp above": math.nextafter(v, math.inf), "scaled": 1.7 * v}[how]
        t = self.assert_exact(d, cut)
        if how == "at":
            assert t <= x0

    @pytest.mark.parametrize("d", DISTS, ids=lambda d: d.label)
    def test_edges(self, d):
        # cut 0 and the lowest value: every uniform is a sale
        assert self.assert_exact(d, 0.0) == 0.0
        assert self.assert_exact(d, d.support[0]) == 0.0
        # the largest bid, then one ulp above it: no uniform reaches it, and
        # quantile(1), which raises on an unbounded support, is never asked for
        top = d.quantile(math.nextafter(1.0, 0.0))
        assert 0.0 < self.assert_exact(d, top) < 1.0
        assert self.assert_exact(d, math.nextafter(top, math.inf)) == 1.0
        if d.support[1] < math.inf:
            assert self.assert_exact(d, d.support[1] + 1.0) == 1.0

    def test_cuts_at_a_junction(self):
        # the uniforms whose bids lie at and around the junction of the two
        # segments of this curve, where the bids once stepped down an ulp
        d = gen_regular(11, 2)
        u0 = 0.6643429071282383
        bits = np.array([u0]).view(np.int64)[0] + np.arange(-40, 41)
        for x in bits.view(np.float64).tolist():
            assert self.assert_exact(d, d.quantile(x)) <= x
        self.assert_exact(d, d.price(d.breakpoints()[0]))

    def test_probes_are_arrays_through_quantile(self):
        probes = []

        class Probed(type(U01)):
            def quantile(self, p):
                probes.append(np.shape(p))
                return super().quantile(p)

        self.assert_exact(Probed(0.0, 1.0), 0.3)
        searched = probes[:-5]  # assert_exact's own checks are the last five
        assert 0 < len(searched) <= 8 and all(len(s) == 1 for s in searched)


class TestMonteCarlo:
    def test_deterministic_for_fixed_seed(self):
        m = VcgMechanism(2, 0.3)
        a = eval_mc(m, U01, 5, linear(), samples=70_000, seed=9)
        b = eval_mc(m, U01, 5, linear(), samples=70_000, seed=9)
        assert a == b
        assert a.method == "monte_carlo" and a.samples == 70_000
        c = eval_mc(m, U01, 5, linear(), samples=70_000, seed=10)
        assert c.mean_utility != a.mean_utility

    def test_minimum_sample_size(self):
        with pytest.raises(ValueError):
            eval_mc(PostedPriceMechanism(0.25, 1), U01, 1, linear(),
                    samples=999, seed=0)

    @pytest.mark.parametrize("m,n,exact", [
        (PostedPriceMechanism(0.25, 1), 1, 0.1875),
        (VcgMechanism(1, 0.0), 2, 1 / 3),
        (VcgMechanism(1, 0.5), 2, 5 / 12),
    ], ids=lambda x: str(x))
    def test_brackets_exact_values(self, m, n, exact):
        r = eval_mc(m, U01, n, linear(), samples=200_000, seed=4)
        assert abs(r.mean_utility - exact) <= 4 * r.ci_halfwidth
        assert r.ci_halfwidth > 0

    @pytest.mark.parametrize("n", [1, 64, 65, 20_000])
    def test_chunks_stay_within_budget(self, n, monkeypatch):
        # each chunk draws its uniforms from a generator of its own, so the
        # rows a generator fills are the chunk's rows
        streams = []

        class ZeroUniforms:
            """A generator that records the rows it fills, with zeros."""
            rows = 0

            def random(self, size=None, dtype=np.float64, out=None):
                self.rows += (out.shape if out is not None else size)[0]
                if out is None:
                    return np.zeros(size)
                out[...] = 0.0
                return out

        def default_rng(seed):
            streams.append(ZeroUniforms())
            return streams[-1]

        monkeypatch.setattr(np.random, "default_rng", default_rng)
        chunk = MC_CHUNK if n <= 64 else MC_BUDGET // n
        samples = max(2 * chunk + 1, MIN_MC_SAMPLES)  # three or more chunks, the last partial
        r = eval_mc(PostedPriceMechanism(0.5, 1), U01, n, linear(), samples, seed=0)
        rows = [g.rows for g in streams]
        assert sum(rows) == samples
        assert max(rows) * n <= MC_BUDGET
        # the chunks, and so the generator streams, of every n <= 64 are unchanged
        assert rows[0] == chunk
        assert r.mean_utility == r.ci_halfwidth == 0.0

    # tracemalloc peaks in MiB of vcg:4,0 on exponential:2 under the former
    # kernel, which drew each chunk's bids as one matrix
    @pytest.mark.parametrize("n,bid_matrix_peak", [(1, 2.57), (2, 3.50), (64, 96.50), (65, 96.49),
                                                   (2048, 96.02), (20_000, 95.68)])
    def test_peak_memory_stays_below_the_bid_matrix(self, n, bid_matrix_peak):
        chunk = min(MC_CHUNK, MC_BUDGET // n)
        samples = max(2 * chunk + 1, MIN_MC_SAMPLES)
        assert traced_peak_mib(VcgMechanism(4, 0.0), exponential(2.0), n, samples) <= bid_matrix_peak

    def test_peak_memory_is_a_few_tiles(self):
        # 48.5 MiB under the bid-matrix kernel
        assert traced_peak_mib(VcgMechanism(4, 0.0), exponential(2.0), 32, 262_144) < 8.0

    @settings(max_examples=60)
    @given(st.sampled_from(["uniform", "exponential", "curve", "curve ending at 0"]),
           st.sampled_from(["posted", "vcg", "vcg k >= n"]),
           st.sampled_from(["below", "inside", "at a drawn bid", "above"]),
           st.sampled_from([1, 2, 64, 65, 3_000]) | st.integers(1, 40),
           st.integers(0, 2 ** 32 - 1), st.data())
    def test_matches_the_bid_space_loop(self, kind, mech, level_kind, n, seed, data):
        rng = np.random.default_rng(seed)
        d = random_distribution(kind, rng)
        # up to about 400,000 uniforms; n = 3,000 takes np.partition
        samples = data.draw(st.integers(MIN_MC_SAMPLES, max(MIN_MC_SAMPLES, 400_000 // n)),
                            label="samples")
        mc_seed = int(rng.integers(2 ** 32))
        first_chunk = min(samples, MC_CHUNK, MC_BUDGET // n)
        level = random_level(d, level_kind, rng, mc_seed, first_chunk * n)
        m = random_mechanism(mech, level, n, rng)
        u = random_utility(rng)
        r = eval_mc(m, d, n, u, samples, mc_seed)
        assert (r.mean_utility, r.ci_halfwidth) == bid_space_eval_mc(m, d, n, u, samples, mc_seed)

    @pytest.mark.parametrize("n,samples", [
        (2, 140_000),  # chunks of 65,536, 65,536 and 8,928 rows, each one tile
        (65, 70_000),  # chunks of 64,527 and 5,473 rows in tiles of 2,048: both end partial
        (3_000, 1_500),  # chunks of 1,398 and 102 rows: np.partition
    ])
    @pytest.mark.parametrize("kind", ["uniform", "exponential", "curve"])
    def test_partial_chunks_and_tiles_match_the_bid_space_loop(self, n, samples, kind):
        rng = np.random.default_rng(n)
        d = random_distribution(kind, rng)
        level = random_level(d, "at a drawn bid", rng, 5, min(MC_CHUNK, MC_BUDGET // n) * n)
        for mech in ("posted", "vcg", "vcg k >= n"):
            m = random_mechanism(mech, level, n, rng)
            r = eval_mc(m, d, n, capped(2.0), samples, seed=5)
            assert (r.mean_utility, r.ci_halfwidth) == bid_space_eval_mc(
                m, d, n, capped(2.0), samples, 5)

    def test_profile_over_the_budget_is_rejected_before_drawing(self):
        class NoDraws:
            def quantile(self, u):
                raise AssertionError(f"drew {np.shape(u)}")

        with pytest.raises(ValueError, match="at most"):
            eval_mc(PostedPriceMechanism(0.5, 1), NoDraws(), MC_BUDGET + 1, linear(),
                    MIN_MC_SAMPLES, seed=0)


class TestEvaluateDispatch:
    def test_exact_paths(self):
        assert evaluate(PostedPriceMechanism(0.3, 2), U01, 5, (linear(),))[0].method == "exact"
        assert evaluate(VcgMechanism(1, 0.0), U01, 3, (linear(),))[0].method == "exact"
        assert evaluate(VcgMechanism(1, 0.4), U01, 3, (linear(),))[0].method == "exact"
        # supply covering all bidders is a posted offer at the reserve
        r = evaluate(VcgMechanism(4, 0.4), U01, 3, (linear(),))[0]
        assert r.method == "exact"
        assert r.mean_utility == pytest.approx(
            eval_posted_exact(U01, 0.4, 3, 3, linear()).mean_utility, abs=1e-12)

    def test_mc_fallback_for_reserved_multiunit(self):
        # there is no Monte Carlo fallback: reserved multi-unit VCG, posted
        # prices and k >= n are exact past the 10,000 bidders that once sampled
        r = evaluate(VcgMechanism(2, 0.3), U01, 5, (linear(),))[0]
        assert r.method == "exact" and r.samples == 0
        assert r == eval_vcg_exact(U01, 5, 2, linear(), 0.3)
        n = 10_001
        for m in (VcgMechanism(2, 0.3), PostedPriceMechanism(0.3, 2), VcgMechanism(n, 0.0)):
            r = evaluate(m, U01, n, (linear(),))[0]
            assert r.method == "exact" and r.samples == 0 and r.ci_halfwidth == 0.0
        # all n bidders clear a reserve of 0: k >= n units earn the reserve, 0
        assert evaluate(VcgMechanism(n, 0.0), U01, n, (linear(),))[0].mean_utility == 0.0
        # 0.3 sells to each of n bidders w.p. 0.7, and 2 units nearly surely go
        r = evaluate(PostedPriceMechanism(0.3, 2), U01, n, (linear(),))[0]
        assert r.mean_utility == pytest.approx(0.6, rel=1e-15)

    @pytest.mark.parametrize("n", [10_001, 50_000, 10 ** 6])
    def test_scarce_units_above_a_cleared_reserve_stay_exact(self, n):
        # every bidder clears the reserve and k < n: no binomial sum, so
        # any n is exact; E of the second highest of n uniforms is
        # (n-1)/(n+1), and k units at the (k+1)-st highest earn k(n-k)/(n+1)
        for m, d, want in ((VcgMechanism(1, 0.0), U01, (n - 1) / (n + 1)),
                           (VcgMechanism(n // 2, 0.0), U01, n // 2 * (n - n // 2) / (n + 1)),
                           (VcgMechanism(1, 0.4), uniform(0.5, 2.0),
                            0.5 + 1.5 * (n - 1) / (n + 1))):
            r = evaluate(m, d, n, (linear(),))[0]
            assert r.method == "exact"
            assert r.mean_utility == pytest.approx(want, rel=1e-8)

    @pytest.mark.parametrize("m, d, n", [
        (PostedPriceMechanism(0.6, 1), U01, 5),
        (PostedPriceMechanism(0.6, 7), U01, 5),  # k >= n
        (PostedPriceMechanism(0.3, 2), U01, 200),  # the window leaves out a tail
        (PostedPriceMechanism(0.3, 2), U01, 10 ** 6),  # in groups of FAMILY_CHUNK weights
        (PostedPriceMechanism(0.8, 400), exponential(1.0), 300),
        (PostedPriceMechanism(740.0, 1), exponential(1.0), 37),  # subnormal sale probability
        (VcgMechanism(1, 0.0), U01, 4),
        (VcgMechanism(1, 0.3), U01, 4),
    ])
    def test_a_family_gets_each_members_bits(self, m, d, n):
        # a posted price sums the whole family over one binomial window, yet
        # each member gets its own evaluator's result, and the 1-d sum's bits
        fam = default_family() + (power(0.25), capped(5e-324))
        got = evaluate(m, d, n, fam)
        assert len(got) == len(fam)
        for u, r in zip(fam, got):
            assert type(r.mean_utility) is float and type(r.abserr) is float
            if isinstance(m, VcgMechanism):
                want = eval_vcg_exact(d, n, m.k, u, m.reserve)
                assert (r.mean_utility, r.abserr) == (want.mean_utility, want.abserr)
                continue
            q = d.sale_probability(m.price)
            want = eval_posted_exact(d, m.price, n, m.k, u)
            alone = binom_expect(n, q, lambda y: u(m.price * np.minimum(y, m.k)),
                                 lambda: u(m.price * min(n, m.k)))
            assert (r.mean_utility, r.abserr) == (want.mean_utility, want.abserr) == alone
            y, pmf, _ = binom_window(n, q)
            assert r.mean_utility == float(np.sum(u(m.price * np.minimum(y, m.k)) * pmf))

    def test_the_family_cases_reach_their_edges(self):
        assert binom_window(200, 0.7)[2] > 0.0
        terms = len(binom_window(10 ** 6, 0.7)[0])
        assert 1 < evaluation.FAMILY_CHUNK // terms < len(default_family()) + 2
        assert binom_window(300, exponential(1.0).sale_probability(0.8))[2] > 0.0
        assert 0.0 < exponential(1.0).sale_probability(740.0) < 2.0 ** -1022

    def test_agreement_between_paths(self):
        exact = evaluate(VcgMechanism(1, 0.4), U01, 3, (linear(),))[0]
        mc = eval_mc(VcgMechanism(1, 0.4), U01, 3, linear(),
                     samples=300_000, seed=1)
        assert abs(mc.mean_utility - exact.mean_utility) <= 4 * mc.ci_halfwidth


class TestManyBidders:
    """Closed forms past the 10,000 bidders where evaluation once sampled."""

    @pytest.mark.parametrize("n", [10_001, 10 ** 5, 10 ** 6, 10 ** 8])
    def test_reserve_free_second_price(self, n):
        # E of the second highest of n uniforms
        r = evaluate(VcgMechanism(1, 0.0), U01, n, (linear(),))[0]
        assert r.method == "exact"
        assert r.mean_utility == pytest.approx((n - 1) / (n + 1), rel=1e-8)

    @pytest.mark.parametrize("n", [10 ** 9, 10 ** 12, 10 ** 15])
    def test_second_price_within_its_error_estimate_up_to_2_to_53(self, n):
        # a polynomial density would round 1 - q, an error that (1 - q)^(n-2)
        # grows to n 2^-53: 1.1e-8 at 10^9, and a revenue above 1 at 10^13;
        # as in test_edges_agree_with_mpmath, the quadrature converges and its
        # error estimate bounds the true error
        for d, want in ((U01, (n - 1) / (n + 1)),
                        (uniform(0.5, 1.0), 0.5 + 0.5 * (n - 1) / (n + 1))):
            r = eval_vcg_exact(d, n, 1, linear())
            assert r.abserr <= quad_target(want)
            assert abs(r.mean_utility - want) <= r.abserr
            assert r.mean_utility <= 1.0

    def test_refuses_2_to_53_bidders(self):
        # n is split into two 26-bit halves for the binomial kernel's mean
        with pytest.raises(ValueError, match="below 2"):
            eval_vcg_exact(U01, 2 ** 53, 1, linear())
        assert eval_vcg_exact(U01, 2 ** 53 - 1, 1, linear()).mean_utility <= 1.0

    @pytest.mark.parametrize("n", [10_001, 10 ** 5, 10 ** 6, 10 ** 8])
    @pytest.mark.parametrize("k_extra", [0, 3])
    def test_posted_price_with_supply_for_all(self, n, k_extra):
        # k >= n: each of n bidders pays 0.3 w.p. 0.7; the window leaves out
        # mass, which abserr states at its largest weight, u(0.3 n), and adds
        # the rounding of the pmfs and of their sum
        r = evaluate(PostedPriceMechanism(0.3, n + k_extra), U01, n, (linear(),))[0]
        want = 0.3 * n * 0.7
        terms = len(binom_window(n, 0.7)[0])
        assert r.method == "exact"
        assert r.abserr == pytest.approx(stated_abserr(n, 0.7, terms, r.mean_utility, 0.3 * n),
                                         rel=1e-12, abs=0.0)
        assert r.abserr > BINOM_TAIL * 0.3 * n
        assert abs(r.mean_utility - want) <= r.abserr

    def test_monte_carlo_agrees_at_20000_bidders(self):
        m, n = VcgMechanism(2, 0.3), 20_000
        exact = evaluate(m, U01, n, (linear(),))[0]
        mc = eval_mc(m, U01, n, linear(), samples=1000, seed=11)
        assert mc.ci_halfwidth > 0
        assert abs(mc.mean_utility - exact.mean_utility) <= 4 * mc.ci_halfwidth


class TestEvalResult:
    def test_against_fills_benchmark_and_ratio(self):
        r = EvalResult(mean_utility=0.3, method="exact")
        s = r.against(0.6)
        assert s.benchmark == 0.6
        assert s.ratio == pytest.approx(0.5)
        assert r.benchmark is None


class TestBenchmark:
    def test_known_values(self):
        # u of the benchmark revenue bounds every truthful mechanism's utility
        def bench(d, n, k, u):
            return float(u(myerson_revenue(d, n, k)[0]))

        assert bench(U01, 1, 1, linear()) == pytest.approx(0.25, abs=1e-9)
        assert bench(U01, 3, 3, linear()) == pytest.approx(0.75, abs=1e-9)
        assert bench(U01, 2, 1, linear()) == pytest.approx(5 / 12, abs=1e-9)
        assert bench(U01, 2, 1, power(0.5)) == pytest.approx(math.sqrt(5 / 12), abs=1e-9)

    def test_myerson_revenue_exact_branches(self):
        assert myerson_revenue(U01, 3, 3) == (0.75, 0.0)
        rev, ci = myerson_revenue(U01, 2, 1)
        assert rev == pytest.approx(5 / 12, abs=1e-10) and ci == 0.0
        # uniform, 3 bidders, 2 units, reserve 1/2: 23/32 (see
        # TestVcgExact.test_reserved_multiunit_closed_form)
        assert myerson_revenue(U01, 3, 2) == (pytest.approx(23 / 32, abs=1e-14), 0.0)

    def test_myerson_revenue_mc_branch(self):
        # the exact benchmark against a plain-NumPy Monte Carlo estimate
        rev, ci = myerson_revenue(U01, 3, 2)
        assert ci == 0.0
        # independent plain-numpy estimate of vcg(2, 0.5) revenue on 3 bidders:
        # min(2, #{bids >= 1/2}) winners each pay max(1/2, lowest bid)
        rng = np.random.default_rng(123)
        vals = rng.random((200_000, 3))
        third = np.sort(vals, axis=1)[:, 0]
        revs = np.minimum(2, (vals >= 0.5).sum(axis=1)) * np.maximum(0.5, third)
        want = float(revs.mean())
        w_ci = 1.96 * float(revs.std(ddof=1)) / math.sqrt(len(revs))
        assert abs(rev - want) <= 4 * w_ci
        # past 10,000 bidders the benchmark is exact too: 2 units at the 3rd
        # highest of n uniforms, all above the reserve 1/2 but for 2^-n
        n = 10_001
        big = myerson_revenue(U01, n, 2)
        assert big == (pytest.approx(2 * (n - 2) / (n + 1), rel=1e-12), 0.0)


def worst_ratio(m, d, n, k, fam) -> float:
    """min over the family of E[u(Rev(m))] / u(benchmark revenue)."""
    rev, _ = myerson_revenue(d, n, k)
    return min(r.mean_utility / float(u(rev)) for u, r in zip(fam, evaluate(m, d, n, fam)))


class TestUniversalRatio:
    def test_uniform_single_bidder(self):
        m = PostedPriceMechanism(0.25, 1)
        fam = [linear(), capped(1e-4)]
        assert worst_ratio(m, U01, 1, 1, fam) == pytest.approx(0.75, abs=1e-9)

    def test_exponential_mhr_floor(self):
        m = PostedPriceMechanism(math.exp(-1.0), 1)
        assert worst_ratio(m, exponential(1.0), 1, 1, default_family()) == \
            pytest.approx(math.exp(-math.exp(-1.0)), abs=1e-9)

    def test_left_triangle_tight_half(self):
        m = PostedPriceMechanism(1.0, 1)
        assert worst_ratio(m, left_triangle(0.01), 1, 1, default_family()) == \
            pytest.approx(1 / 1.99, abs=1e-9)


class TestConcavityProperties:
    def test_jensen_ordering_exact(self):
        for make in (lambda u: eval_posted_exact(U01, 0.25, 3, 2, u),
                     lambda u: eval_vcg_exact(U01, 3, 1, u)):
            base = make(linear()).mean_utility
            for u in default_family():
                assert make(u).mean_utility <= float(u(base)) + 1e-9, u.label

    def test_posted_price_monotone_below_monopoly(self):
        # with supply for everyone, raising the price toward p* only helps
        prices = np.linspace(0.05, 0.5, 12)
        vals = [eval_posted_exact(U01, float(p), 2, 2, linear()).mean_utility
                for p in prices]
        assert all(a <= b + 1e-9 for a, b in zip(vals, vals[1:]))


IDENTITY_DISTS = st.one_of(
    st.sampled_from((U01, uniform(0.5, 2.0))),
    st.floats(-3.0, 3.0).map(lambda e: exponential(10.0 ** e)),
    st.builds(gen_regular, st.integers(0, 2 ** 31 - 1), st.integers(2, 64)))


class TestIdentity:
    def test_stats_agree_with_closed_form(self):
        for n, want in ((1, 0.25), (2, 5 / 12)):
            st_ = virtual_utility_identity_stats(U01, VcgMechanism(1, 0.5), linear(), n)
            for side in ("lhs", "rhs"):
                # the estimate, plus the rounding of the value itself
                assert abs(st_[side] - want) <= st_[side + "_abserr"] + 2.0 ** -53 * want
        assert st_["lhs_abserr"] > 0.0
        one = virtual_utility_identity_stats(U01, VcgMechanism(1, 0.5), linear(), 1)
        # binomial only: Bin(1, 1/2) sums both counts, each pmf 1/2
        assert one["lhs"] == 0.25
        assert one["lhs_abserr"] == pytest.approx(stated_abserr(1, 0.5, 2, 0.25, 0.5),
                                                  rel=1e-12, abs=0.0)

    @given(IDENTITY_DISTS, st.sampled_from(FAMILY), st.integers(1, 40),
           st.floats(0.0, 1.0, exclude_min=True))
    def test_exact_sides_agree(self, d, u, n, q):
        # gen_regular curves carry a top atom: in quantile space the identity
        # holds there too
        sides = virtual_utility_identity_stats(d, VcgMechanism(1, float(d.price(q))), u, n)
        assert abs(sides["lhs"] - sides["rhs"]) <= sides["tolerance"]

    def test_stats_deterministic(self):
        a = virtual_utility_identity_stats(U01, VcgMechanism(1, 0.0), power(0.5), 2)
        b = virtual_utility_identity_stats(U01, VcgMechanism(1, 0.0), power(0.5), 2)
        assert a == b
        assert set(a) == {"lhs", "lhs_abserr", "rhs", "rhs_abserr", "tolerance"}

    def test_report_wrapper(self):
        rep = check_virtual_utility_identity(U01, VcgMechanism(1, 0.5), linear(), 2)
        assert rep.passed
        assert rep.claimed_bound == 0.0
        assert 0 < rep.tolerance < 1e-8
        assert rep.worst_instance.startswith("lhs=0.416666667 rhs=0.416666667 ")

    def test_unbounded_virtual_utility_warns_nothing(self):
        # one bidder, no reserve: phi_u of power(0.5) on uniform(0, 1) is
        # unbounded at q = 1, where no float quantile resolves the last ulps
        m, u = VcgMechanism(1, 0.0), power(0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = check_virtual_utility_identity(U01, m, u, 1)
            st_ = virtual_utility_identity_stats(U01, m, u, 1)
        assert rep.passed and rep.tolerance == st_["tolerance"]
        assert st_["tolerance"] >= st_["lhs_abserr"] + st_["rhs_abserr"]
        assert st_["lhs"] == 0.0  # one bidder pays the reserve, 0

    @pytest.mark.parametrize("u,log_q_abserr", [(power(0.5), 3.6e-5),
                                                (power(1 / 3), 4.0e-5)])
    def test_right_side_converges_up_to_q_r_one(self, monkeypatch, u, log_q_abserr):
        # integrated in t = log q all the way to q_r = 1, the right side spent
        # its whole panel budget (3,946 panels) and ended at log_q_abserr:
        # exp(t) near q = 1 rounds to floats 2^-53 apart, a step function of t
        panels = []

        def counting_quad(f, edges):
            def g(x):
                panels.append(len(x) // 21)
                return f(x)
            return gauss_kronrod(g, edges)

        monkeypatch.setattr(evaluation, "quad", counting_quad)
        st_ = virtual_utility_identity_stats(U01, VcgMechanism(1, 0.0), u, 1)
        assert st_["rhs_abserr"] <= log_q_abserr / 1000
        assert sum(panels) <= GK_MAX_PANELS // 4
        assert abs(st_["lhs"] - st_["rhs"]) <= st_["tolerance"]

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_price_rounding_to_zero_below_the_reserve_quantile(self, n):
        # on irregular-example:0.07 (R(1) = 0) price() is 0 one float below
        # q = 1, where phi_u of power(0.5) is infinite; the tolerance was inf
        d = make_distribution("irregular-example:0.07")
        assert d.price(math.nextafter(1.0, 0.0)) == 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            st_ = virtual_utility_identity_stats(d, VcgMechanism(1, 0.0), power(0.5), n)
        assert all(math.isfinite(v) for v in st_.values())
        assert abs(st_["lhs"] - st_["rhs"]) <= st_["tolerance"] < 1e-4

    def test_preconditions(self):
        with pytest.raises(ValueError):
            virtual_utility_identity_stats(U01, VcgMechanism(2, 0.0), linear(), 3)
        with pytest.raises(ValueError):
            virtual_utility_identity_stats(U01, PostedPriceMechanism(0.5, 1), linear(), 2)
        # below the lowest value 0.8 the lowest type keeps a surplus: lhs 0
        # and rhs 0.8 at n = 1
        curve = make_distribution("revenue-curve:0:0;0.3:0.6;1:0.8")
        for d, r in ((curve, 0.0), (curve, 0.79), (uniform(0.5, 2.0), 0.4)):
            with pytest.raises(ValueError, match="lowest value"):
                virtual_utility_identity_stats(d, VcgMechanism(1, r), linear(), 1)
        # price(1) is support[0], the lowest value, exactly
        d = gen_regular(3, 8)
        assert float(d.price(1.0)) == d.support[0]
        sides = virtual_utility_identity_stats(d, VcgMechanism(1, float(d.price(1.0))),
                                               linear(), 2)
        assert abs(sides["lhs"] - sides["rhs"]) <= sides["tolerance"]
        # atoms are accepted: phi_u on a top atom at p0 is u(p0)
        for spec in ("revenue-curve:0:0;0.3:0.6;1:0.8", "left-triangle:0.01",
                     "left-triangle:1e-6", "irregular-example:0.01",
                     "revenue-curve:0:0;1:1", "revenue-curve:0:0;0.5:0.5;1:1"):
            d = make_distribution(spec)
            m = VcgMechanism(1, d.monopoly_price()[0])
            for u in (linear(), power(0.5)):
                rep = check_virtual_utility_identity(d, m, u, 2)
                assert rep.passed, rep
                assert rep.csv_row()[3] != "-0"  # exact agreement reads 0


def test_no_scipy_quadrature_in_the_package():
    # nor any other part of SciPy: the binomial kernel was its last use
    code = ("import sys, riskauctions, riskauctions.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env).stdout
    assert out.strip() == "[]"
