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
from hypothesis import assume, example, given
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import betainc
from scipy.stats import binom

from riskauctions import (
    EvalResult,
    PostedPriceMechanism,
    VcgMechanism,
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
    left_triangle,
    linear,
    make_distribution,
    myerson_revenue,
    power,
    uniform,
    virtual_utility_identity_stats,
)
from riskauctions.evaluation import (MC_BUDGET, MC_CHUNK, MIN_MC_SAMPLES, QUAD_EPSABS,
                                     QUAD_EPSREL, _split_points)
from riskauctions.numerics import MAX_EXACT_N, order_stat_cdf

U01 = uniform(0.0, 1.0)


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
FAMILY = default_family().members


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
    def test_single_unit_is_the_old_second_price(self, case):
        d, n, _, u, r = case
        got = eval_vcg_exact(d, n, 1, u, r)
        want, want_err = second_price(d, r, n, u)
        # two integrators, each within its own error estimate; the reserve
        # term differs in rounding: binom_pmf takes it in log space (2.7e-14
        # relative off n q (1-q)^(n-1) at n = 37)
        assert abs(got.mean_utility - want) <= got.abserr + want_err + 1e-13 * abs(want)

    @given(vcg_instances(dists=(left_triangle(1e-9), exponential(1e-3), exponential(1e3)),
                         utilities=FAMILY + (power(1e-3),)))
    # q_r is subnormal (5e-324), so quad evaluates q = 0, where price is inf
    @example((exponential(1e-3), 2, 1, linear(), 744440.0719213812))
    def test_agrees_with_mpmath(self, case):
        d, n, k, u, r = case
        got = eval_vcg_exact(d, n, k, u, r).mean_utility
        want = mpmath_vcg(d, n, k, u, r)
        assert abs(got - want) <= 1e-8 * abs(want)


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
    # up to the rounding of the binomial sum
    assert abs(got.mean_utility - want) <= 1e-8 * abs(want)
    assert abs(got.mean_utility - want) <= got.abserr + 1e-13 * abs(want)


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
    def test_chunks_stay_within_budget(self, n):
        rows = []

        class ZeroBids:
            """Read-only zero chunks: a broadcast view, nothing allocated."""
            def draw(self, rng, shape):
                rows.append(shape[0])
                return np.broadcast_to(0.0, shape)

        chunk = MC_CHUNK if n <= 64 else MC_BUDGET // n
        samples = max(2 * chunk + 1, MIN_MC_SAMPLES)  # three or more chunks, the last partial
        r = eval_mc(PostedPriceMechanism(0.5, 1), ZeroBids(), n, linear(), samples, seed=0)
        assert sum(rows) == samples
        assert max(rows) * n <= MC_BUDGET
        # the chunks, and so the generator streams, of every n <= 64 are unchanged
        assert rows[0] == chunk
        assert r.mean_utility == r.ci_halfwidth == 0.0


class TestEvaluateDispatch:
    def test_exact_paths(self):
        assert evaluate(PostedPriceMechanism(0.3, 2), U01, 5, linear(),
                        samples=2000, seed=0).method == "exact"
        assert evaluate(VcgMechanism(1, 0.0), U01, 3, linear(),
                        samples=2000, seed=0).method == "exact"
        assert evaluate(VcgMechanism(1, 0.4), U01, 3, linear(),
                        samples=2000, seed=0).method == "exact"
        # supply covering all bidders is a posted offer at the reserve
        r = evaluate(VcgMechanism(4, 0.4), U01, 3, linear(), samples=2000, seed=0)
        assert r.method == "exact"
        assert r.mean_utility == pytest.approx(
            eval_posted_exact(U01, 0.4, 3, 3, linear()).mean_utility, abs=1e-12)

    def test_mc_fallback_for_reserved_multiunit(self):
        # reserved multi-unit VCG is exact; MC only takes binomial sums over
        # more than MAX_EXACT_N bidders
        r = evaluate(VcgMechanism(2, 0.3), U01, 5, linear(), samples=2000, seed=0)
        assert r.method == "exact" and r.samples == 0
        assert r == eval_vcg_exact(U01, 5, 2, linear(), 0.3)
        for m in (VcgMechanism(2, 0.3), PostedPriceMechanism(0.3, 2),
                  VcgMechanism(MAX_EXACT_N + 1, 0.0)):
            r = evaluate(m, U01, MAX_EXACT_N + 1, linear(), samples=1000, seed=0)
            assert r.method == "monte_carlo" and r.samples == 1000

    @pytest.mark.parametrize("n", [MAX_EXACT_N + 1, 50_000, 10 ** 6])
    def test_scarce_units_above_a_cleared_reserve_stay_exact(self, n):
        # every bidder clears the reserve and k < n: no binomial sum, so
        # any n is exact; E of the second highest of n uniforms is
        # (n-1)/(n+1), and k units at the (k+1)-st highest earn k(n-k)/(n+1)
        for m, d, want in ((VcgMechanism(1, 0.0), U01, (n - 1) / (n + 1)),
                           (VcgMechanism(n // 2, 0.0), U01, n // 2 * (n - n // 2) / (n + 1)),
                           (VcgMechanism(1, 0.4), uniform(0.5, 2.0),
                            0.5 + 1.5 * (n - 1) / (n + 1))):
            r = evaluate(m, d, n, linear(), samples=1000, seed=0)
            assert r.method == "exact"
            assert r.mean_utility == pytest.approx(want, rel=1e-8)

    def test_agreement_between_paths(self):
        exact = evaluate(VcgMechanism(1, 0.4), U01, 3, linear(),
                         samples=2000, seed=0)
        mc = eval_mc(VcgMechanism(1, 0.4), U01, 3, linear(),
                     samples=300_000, seed=1)
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
        rev, ci = myerson_revenue(U01, 3, 2, seed=0, samples=200_000)
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
        # beyond MAX_EXACT_N bidders the benchmark is Monte Carlo
        n = MAX_EXACT_N + 1
        big = myerson_revenue(U01, n, 2, seed=0, samples=1000)
        assert big[1] > 0
        assert big == myerson_revenue(U01, n, 2, seed=0, samples=1000)


def worst_ratio(m, d, n, k, fam) -> float:
    """min over the family of E[u(Rev(m))] / u(benchmark revenue)."""
    rev, _ = myerson_revenue(d, n, k)
    return min(evaluate(m, d, n, u).mean_utility / float(u(rev)) for u in fam)


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
        assert one["lhs"] == 0.25 and one["lhs_abserr"] == 0.0  # binomial only

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
        # the right side hit its panel budget: its estimate says so, and the
        # tolerance carries it
        assert st_["rhs_abserr"] > max(QUAD_EPSABS, QUAD_EPSREL * abs(st_["rhs"]))
        assert st_["tolerance"] >= st_["lhs_abserr"] + st_["rhs_abserr"]
        assert st_["lhs"] == 0.0  # one bidder pays the reserve, 0

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
    code = ("import sys, riskauctions, riskauctions.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.integrate')))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env).stdout
    assert out.strip() == "[]"
