"""Exact evaluators, Monte Carlo estimation, benchmarks, and the identity check.

Closed-form oracles used below, all derived by hand for uniform(0,1):
second-highest of two draws has density 2(1-v), so E[u] = int u(v) 2(1-v) dv
(1/3 linear, 8/15 for sqrt); a reserve r adds u(r) n (1-r) r^(n-1); VCG with
k of n units pays k times the (k+1)-st highest value.
"""
import math

import numpy as np
import pytest
import scipy.integrate

from riskauctions import (
    EvalResult,
    PostedPriceMechanism,
    VcgMechanism,
    benchmark_ub,
    capped,
    check_virtual_utility_identity,
    default_family,
    eval_mc,
    eval_posted_exact,
    eval_second_price_exact,
    eval_vcg_exact,
    evaluate,
    exponential,
    left_triangle,
    linear,
    mc_moments,
    myerson_revenue,
    power,
    uniform,
    universal_ratio,
    virtual_utility_identity_stats,
)
from riskauctions.evaluation import MC_BUDGET, MC_CHUNK

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

    def test_rejects_k_at_or_above_n(self):
        with pytest.raises(ValueError):
            eval_vcg_exact(U01, 2, 2, linear())
        with pytest.raises(ValueError):
            eval_vcg_exact(U01, 2, 3, linear())


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
        class ZeroBids:
            """Read-only zero chunks: a broadcast view, nothing allocated."""
            def draw(self, rng, shape):
                return np.broadcast_to(0.0, shape)

        rows = []

        def stat(bids):
            rows.append(bids.shape[0])
            return (np.zeros(bids.shape[0]),)

        samples = 2 * MC_CHUNK + 1
        mean, ci = mc_moments(ZeroBids(), n, stat, samples, seed=0)
        assert sum(rows) == samples
        assert max(rows) * n <= MC_BUDGET
        # the chunks, and so the generator streams, of every n <= 64 are unchanged
        assert rows[0] == (MC_CHUNK if n <= 64 else MC_BUDGET // n)
        assert mean.tolist() == ci.tolist() == [0.0]


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
        r = evaluate(VcgMechanism(2, 0.3), U01, 5, linear(), samples=2000, seed=0)
        assert r.method == "monte_carlo" and r.samples == 2000

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
        assert benchmark_ub(U01, 1, 1, linear()) == pytest.approx(0.25, abs=1e-9)
        assert benchmark_ub(U01, 3, 3, linear()) == pytest.approx(0.75, abs=1e-9)
        assert benchmark_ub(U01, 2, 1, linear()) == pytest.approx(5 / 12, abs=1e-9)
        assert benchmark_ub(U01, 2, 1, power(0.5)) == pytest.approx(
            math.sqrt(5 / 12), abs=1e-9)

    def test_myerson_revenue_exact_branches(self):
        assert myerson_revenue(U01, 3, 3) == (0.75, 0.0)
        rev, ci = myerson_revenue(U01, 2, 1)
        assert rev == pytest.approx(5 / 12, abs=1e-10) and ci == 0.0

    def test_myerson_revenue_mc_branch(self):
        rev, ci = myerson_revenue(U01, 3, 2, seed=0, samples=200_000)
        assert ci > 0
        again = myerson_revenue(U01, 3, 2, seed=0, samples=200_000)
        assert (rev, ci) == again
        # independent plain-numpy estimate of vcg(2, 0.5) revenue on 3 bidders:
        # min(2, #{bids >= 1/2}) winners each pay max(1/2, lowest bid)
        rng = np.random.default_rng(123)
        vals = rng.random((200_000, 3))
        third = np.sort(vals, axis=1)[:, 0]
        revs = np.minimum(2, (vals >= 0.5).sum(axis=1)) * np.maximum(0.5, third)
        want = float(revs.mean())
        w_ci = 1.96 * float(revs.std(ddof=1)) / math.sqrt(len(revs))
        assert abs(rev - want) <= 4 * (ci + w_ci)


class TestUniversalRatio:
    def test_uniform_single_bidder(self):
        m = PostedPriceMechanism(0.25, 1)
        rho, worst = universal_ratio(m, U01, 1, 1, [linear(), capped(1e-4)], seed=0)
        assert rho == pytest.approx(0.75, abs=1e-9)
        assert worst in ("linear", "capped:0.0001")

    def test_exponential_mhr_floor(self):
        m = PostedPriceMechanism(math.exp(-1.0), 1)
        rho, _ = universal_ratio(m, exponential(1.0), 1, 1, default_family(), seed=0)
        assert rho == pytest.approx(math.exp(-math.exp(-1.0)), abs=1e-9)

    def test_left_triangle_tight_half(self):
        m = PostedPriceMechanism(1.0, 1)
        rho, _ = universal_ratio(m, left_triangle(0.01), 1, 1, default_family(), seed=0)
        assert rho == pytest.approx(1 / 1.99, abs=1e-9)


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


class TestIdentity:
    def test_stats_agree_with_closed_form(self):
        stats = virtual_utility_identity_stats(U01, VcgMechanism(1, 0.5),
                                               linear(), n=1,
                                               samples=200_000, seed=3)
        assert abs(stats["lhs_mean"] - 0.25) <= 4 * stats["lhs_ci"]
        assert abs(stats["rhs_mean"] - 0.25) <= 4 * stats["rhs_ci"]
        assert abs(stats["diff_mean"]) <= 4 * stats["diff_ci"] + 1e-12

    def test_stats_deterministic(self):
        kw = dict(n=2, samples=50_000, seed=11)
        a = virtual_utility_identity_stats(U01, VcgMechanism(1, 0.0), power(0.5), **kw)
        b = virtual_utility_identity_stats(U01, VcgMechanism(1, 0.0), power(0.5), **kw)
        assert a == b

    def test_report_wrapper(self):
        rep = check_virtual_utility_identity(U01, VcgMechanism(1, 0.5), linear(),
                                             n=2, samples=50_000, seed=5)
        assert rep.passed
        assert rep.claimed_bound == 0.0
        assert rep.tolerance > 0

    def test_preconditions(self):
        with pytest.raises(ValueError):
            virtual_utility_identity_stats(U01, VcgMechanism(2, 0.0), linear(),
                                           n=3, samples=2000, seed=0)
        with pytest.raises(ValueError):
            virtual_utility_identity_stats(U01, PostedPriceMechanism(0.5, 1),
                                           linear(), n=2, samples=2000, seed=0)
        with pytest.raises(ValueError):
            virtual_utility_identity_stats(left_triangle(0.01), VcgMechanism(1, 0.0),
                                           linear(), n=2, samples=2000, seed=0)
