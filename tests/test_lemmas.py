"""Bound-verification oracles: reports, margins, generators, and the frontier.

Hand-derived anchors: sale probability at the discounted monopoly price is
3/4 for uniform(0,1), e^(-1/e) for any exponential, and 1/(2-eps) for the
left triangle; the capped-binomial expectation at n=1, q=1/2 is 1/4.
"""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from riskauctions import (
    MHR_BOUND,
    check_allocation_bound,
    check_capped_binomial,
    check_capped_binomial_grid,
    check_half_bound,
    check_half_bound_sweep,
    check_hedge_limited,
    check_hedge_unlimited,
    check_mhr_bound,
    check_tail,
    check_vcg_chain,
    check_vcg_discount,
    capped,
    default_family,
    eval_posted_exact,
    eval_vcg_exact,
    exponential,
    frontier_search,
    gen_regular,
    hedge_limited_price,
    hedge_unlimited_price,
    irregular_example,
    left_triangle,
    linear,
    make_distribution,
    myerson_revenue,
    posted_price_maximin,
    power,
    run_selections,
    uniform,
)
from riskauctions import lemmas
from riskauctions.lemmas import FLOORS, SELECTIONS, unmet_floors
from riskauctions.numerics import binom_pmf, quad_target
from riskauctions.report import LemmaReport
from test_acceptance import rational_allocations

U01 = uniform(0.0, 1.0)


def test_mhr_bound_constant():
    assert MHR_BOUND == pytest.approx(math.exp(-math.exp(-1.0)), abs=1e-15)


class TestHalfBound:
    def test_builtins(self):
        rep = check_half_bound(U01)
        assert rep.passed and rep.claimed_bound == 0.5
        assert rep.observed == pytest.approx(0.75, abs=1e-9)
        rep = check_half_bound(exponential(1.0))
        assert rep.observed == pytest.approx(MHR_BOUND, abs=1e-9)

    @pytest.mark.parametrize("eps", [0.1, 0.01, 0.001])
    def test_left_triangle_is_tight(self, eps):
        rep = check_half_bound(left_triangle(eps))
        assert rep.passed
        assert rep.observed == pytest.approx(1.0 / (2.0 - eps), abs=1e-12)
        assert rep.margin <= eps

    def test_rejects_irregular(self):
        with pytest.raises(ValueError):
            check_half_bound(irregular_example(0.01))

    def test_sweep(self):
        rep = check_half_bound_sweep(count=50, seed=0)
        assert rep.passed
        assert rep.instances_checked == 50
        assert rep.observed >= 0.5

    @pytest.mark.parametrize("seed", [0, 7, 42])
    def test_sweep_matches_array_path_loop(self, seed):
        # each curve's sale probability through the array path, and the
        # first strict minimum
        observed, worst = np.inf, ""
        for i in range(200):
            d = gen_regular(seed + i)
            p_star, q_star = d.monopoly_price()
            s = float(d.sale_probability(np.array([p_star * q_star]))[0])
            if s < observed:
                observed, worst = s, d.label
        assert check_half_bound_sweep(200, seed) == LemmaReport(
            "half-bound[gen-regular x200]", 0.5, observed, 1e-9, 200, worst)


class TestMhrBound:
    def test_exponential_sits_at_equality(self):
        for rate in (1.0, 2.0):
            rep = check_mhr_bound(exponential(rate))
            assert rep.passed
            assert rep.observed == pytest.approx(MHR_BOUND, abs=1e-9)
        assert check_mhr_bound(U01).observed == pytest.approx(0.75, abs=1e-9)

    def test_rejects_non_mhr(self):
        with pytest.raises(ValueError):
            check_mhr_bound(left_triangle(0.01))


def loop_capped_binomial_grid(n_max, q_step):
    """Reference: the capped-binomial sweep with one pmf per (n, q) and a
    running strict minimum, as the grid check computed it before it worked
    on pmf rows."""
    steps = round(1.0 / q_step)
    worst_margin, worst, instances = np.inf, "", 0
    for n in range(1, n_max + 1):
        y = np.arange(n + 1)
        for j in range(1, steps + 1):
            q = j / steps
            qn = q * n
            k_max = min(n, int(np.floor(2.0 * qn + 1e-9)))
            if k_max < 1:
                continue
            e = float(np.sum(np.minimum(y, qn) * binom_pmf(n, q)))
            margin = e - 0.25 * qn
            instances += k_max
            if margin < worst_margin:
                worst_margin = margin
                worst = f"n={n},q={q:g}: E={e:.9g} vs {0.25 * qn:.9g}"
    return LemmaReport(f"capped-binomial[grid n<={n_max}]", 0.0, float(worst_margin),
                       1e-12, instances, worst)


def rational_allocation_bound(n_max):
    """Reference: the allocation bracket over the exact rational allocation
    probabilities of the acceptance suite's mirror, one (n, q_r, k) at a
    time, with a running strict minimum; and whether the bracket holds,
    decided on the rationals."""
    worst_margin, worst, instances = None, "", 0
    for n in range(1, n_max + 1):
        for j in range(10, 21):
            for k, a in enumerate(rational_allocations(n, j), 1):
                margin = min(a - Fraction(k, 2 * n), Fraction(k, n) - a)
                instances += 1
                if worst_margin is None or margin < worst_margin:
                    worst_margin = margin
                    worst = f"n={n},k={k},q_r={j / 20:g}: a={float(a):.9g}"
    return (LemmaReport(f"allocation-bound[grid n<={n_max}]", 0.0, float(worst_margin),
                        0.0, instances, worst), worst_margin >= 0)


class TestGridChecksMatchPerInstanceLoops:
    """The row-wise grid checks must report exactly what the per-instance
    loops report, worst instance and count included."""

    @pytest.mark.parametrize("n_max,q_step", [(60, 0.01), (25, 0.05), (30, 0.003),
                                              (3, 0.25), (1, 0.5)])
    def test_capped_binomial_grid(self, n_max, q_step):
        assert check_capped_binomial_grid(n_max, q_step) == \
            loop_capped_binomial_grid(n_max, q_step)

    @pytest.mark.parametrize("n_max", [60, 30, 17, 5, 2, 1])
    def test_allocation_bound(self, n_max):
        rep = check_allocation_bound(n_max)
        assert (rep, rep.passed) == rational_allocation_bound(n_max)

    @pytest.mark.parametrize("n,q,k", [(10, 0.3, 2), (7, 1.0, 3), (5, 0.5, 5),
                                       (60, 0.9, 4), (1, 0.5, 1)])
    def test_single_capped_binomial(self, n, q, k):
        qn = q * n
        e = float(np.sum(np.minimum(np.arange(n + 1), qn) * binom_pmf(n, q)))
        assert check_capped_binomial(n, q, k) == LemmaReport(
            f"capped-binomial[n={n},q={q:g},k={k}]", 0.25 * qn, e, 1e-12, 1,
            f"n={n},q={q:g},k={k}")


class TestCappedBinomial:
    def test_single_flip(self):
        rep = check_capped_binomial(1, 0.5, 1)
        assert rep.passed
        assert rep.observed == pytest.approx(0.25, abs=1e-15)
        assert rep.claimed_bound == pytest.approx(0.125, abs=1e-15)

    def test_two_flips(self):
        rep = check_capped_binomial(2, 0.5, 1)
        assert rep.observed == pytest.approx(0.75, abs=1e-12)

    @pytest.mark.parametrize("n,q,k", [(3, Fraction(1, 2), 1), (6, Fraction(3, 4), 4),
                                       (9, Fraction(2, 5), 7)])
    def test_matches_rational_oracle(self, n, q, k):
        qn = q * n
        assert qn >= Fraction(k, 2)
        pmf = [math.comb(n, x) * q**x * (1 - q) ** (n - x) for x in range(n + 1)]
        want = float(sum(min(Fraction(x), qn) * w for x, w in enumerate(pmf)))
        rep = check_capped_binomial(n, float(q), k)
        assert rep.observed == pytest.approx(want, abs=1e-12)

    def test_precondition(self):
        with pytest.raises(ValueError):
            check_capped_binomial(4, 0.1, 3)

    def test_small_grid(self):
        rep = check_capped_binomial_grid(n_max=25, q_step=0.05)
        assert rep.passed
        assert rep.margin >= 0.0
        assert rep.instances_checked > 100


class TestAllocationBound:
    def test_exhaustive_grid(self):
        rep = check_allocation_bound(n_max=60)
        assert rep.passed and rep.tolerance == 0.0
        assert rep.instances_checked == 20_130
        # exactly on the lower edge: one bidder sells with probability 1/2
        assert rep.margin == 0.0
        assert rep.worst_instance == "n=1,k=1,q_r=0.5: a=0.5"


class TestTail:
    def test_uniform_two_of_two(self):
        rep = check_tail(U01, 2, 2)
        assert rep.passed
        assert rep.observed == pytest.approx(4 / 9, abs=1e-9)
        assert "0.333333" in rep.worst_instance

    def test_near_linear_curve_is_tight(self):
        rep = check_tail(left_triangle(1e-4), 2, 2)
        assert rep.passed
        # closed form: sale prob at E[Y] squared, E[Y] = 1/(2 - eps) ... wait,
        # the frozen value comes from (1/(2-eps))^2 up to quadrature error
        assert rep.observed == pytest.approx(0.25002500187512505, abs=1e-9)
        assert 0.25 <= rep.observed <= 0.26

    def test_more_bidders(self):
        assert check_tail(exponential(1.0), 3, 6).passed
        assert check_tail(U01, 5, 10).passed

    def test_rejections(self):
        with pytest.raises(ValueError):
            check_tail(U01, 1, 2)
        with pytest.raises(ValueError):
            check_tail(irregular_example(0.01), 2, 2)


class TestOrderStatisticMean:
    """The mean t-th highest of n bids, as the tail and chain checks take it:
    what (t-1)-unit VCG earns, per unit."""

    def test_uniform_closed_forms(self):
        # Q_{2,2} ~ Beta(2,1) so E[1-Q] = 1/3; Q_{3,3} ~ Beta(3,1) so 1/4
        assert eval_vcg_exact(U01, 2, 1, linear()).mean_utility == \
            pytest.approx(1 / 3, abs=1e-9)
        assert eval_vcg_exact(U01, 3, 2, linear()).mean_utility / 2 == \
            pytest.approx(0.25, abs=1e-9)

    def test_exponential_min_of_two(self):
        assert eval_vcg_exact(exponential(1.0), 2, 1, linear()).mean_utility == \
            pytest.approx(0.5, abs=1e-8)

    def test_requires_t_above_one(self):
        # VCG selling every unit earns 0, so the tail check guards t itself
        assert eval_vcg_exact(U01, 3, 3, linear()).mean_utility == 0.0
        for t, n in ((1, 3), (4, 3)):
            with pytest.raises(ValueError, match="1 < t <= n"):
                check_tail(U01, t, n)


class TestVcgDiscount:
    def test_uniform_cases(self):
        # uniform, 3 bidders, 1 unit: second price with reserve 1/4 earns
        # 261/512 and with reserve 1/2 earns 17/32
        rep = check_vcg_discount(U01, 3, 1)
        assert rep.passed
        assert rep.observed == pytest.approx(261 / 512 - 17 / 64, abs=1e-12)
        assert rep.worst_instance == "hedged=0.509765625 monopoly=0.53125"
        # no scarcity: revenue 2 * r * 1/2 at either reserve
        rep = check_vcg_discount(U01, 2, 2)
        assert rep.passed
        assert rep.observed == pytest.approx(0.375 - 0.25, abs=1e-12)

    def test_deterministic(self):
        d = exponential(1.0)
        a = check_vcg_discount(d, 5, 2)
        assert a == check_vcg_discount(d, 5, 2)
        p_star, q_star = d.monopoly_price()
        hedged = eval_vcg_exact(d, 5, 2, linear(), p_star * q_star).mean_utility
        monopoly = eval_vcg_exact(d, 5, 2, linear(), p_star).mean_utility
        assert a.observed == hedged - 0.5 * monopoly
        assert (a.instances_checked, a.tolerance) == (1, 1e-9)


class TestHedgeUnlimited:
    def test_uniform_sells_three_quarters(self):
        rep = check_hedge_unlimited(U01, 5)
        assert rep.passed
        assert rep.claimed_bound == pytest.approx(MHR_BOUND, abs=1e-15)
        assert rep.observed == pytest.approx(0.75, abs=1e-9)
        assert (rep.instances_checked, rep.worst_instance) == (1, "capped:1.25")

    def test_exponential_achieves_floor(self):
        # e^(-1/e) to within the error of a 6-term binomial sum: the floor is
        # attained, so the margin's sign is the rounding's (0 with today's pmf)
        rep = check_hedge_unlimited(exponential(1.0), 5)
        assert rep.passed
        assert rep.observed == pytest.approx(MHR_BOUND, abs=1e-9)
        assert abs(rep.margin) <= rep.tolerance < 1e-13

    def test_left_triangle_near_half(self):
        rep = check_hedge_unlimited(left_triangle(0.001), 1)
        assert rep.passed
        assert rep.claimed_bound == 0.5
        assert rep.observed == pytest.approx(0.5002501250625313, abs=1e-9)


class TestHedgeLimited:
    def test_uniform_exact_benchmark(self):
        rep = check_hedge_limited(U01, 2, 1)
        assert rep.passed
        assert rep.observed >= 0.125

    def test_capped_benchmark_is_the_one_evaluation(self):
        # the margin is the capped(B) ratio minus the claimed 1/8
        rep = check_hedge_limited(U01, 10, 3)
        assert rep.passed
        price = hedge_limited_price(U01, 10, 3)
        rev = myerson_revenue(U01, 10, 3)[0]
        want = eval_posted_exact(U01, price, 10, 3, capped(rev)).mean_utility / rev
        assert (rep.observed, rep.margin) == (want, want - 0.125)
        assert (rep.instances_checked, rep.worst_instance) == (1, capped(rev).label)
        assert rep.observed == pytest.approx(0.831832017066, abs=1e-12)


class TestVcgChain:
    def test_uniform_single_unit(self):
        rep = check_vcg_chain(U01, 2, 1)
        assert rep.passed
        assert rep.margin >= -1e-9
        # two vickrey-vs-optimal terms, utility of revenue, bidder augmentation
        assert rep.instances_checked == 4
        assert rep.worst_instance == "vickrey-vs-optimal[linear]"

    def test_uniform_two_units(self):
        rep = check_vcg_chain(U01, 6, 2)
        assert rep.passed
        assert rep.instances_checked == 2
        # the worst slack is bidder augmentation: 2 E[3rd highest of 6] = 8/7
        # against the benchmark with 4 bidders, 2 units, reserve 1/2
        assert rep.worst_instance == "bidder-augmentation"
        rev = myerson_revenue(U01, 4, 2)[0]
        assert rep.observed == pytest.approx((8 / 7) / rev - 1.0, abs=1e-12)

    def test_utility_of_revenue_is_capped_at_the_revenue(self):
        # the certificate term E[min(2 * 3rd highest of 6, B)] / B - 1/4,
        # B = 8/7, stays above the bidder augmentation the chain reports
        rep = check_vcg_chain(U01, 6, 2)
        rev = eval_vcg_exact(U01, 6, 2, linear()).mean_utility
        want = eval_vcg_exact(U01, 6, 2, capped(rev)).mean_utility / rev - 0.25
        assert want == pytest.approx(0.874104934411 - 0.25, abs=1e-12)
        assert want > rep.margin


# -- every concave utility at once: E[u(X)] / u(B) >= E[min(X, B)] / B -------------

CERT_DISTS = (U01, exponential(1.0), left_triangle(0.01), gen_regular(3, 16),
              irregular_example(0.05))


@st.composite
def revenue_instances(draw):
    """(evaluate, B): u -> exact EvalResult of E[u(revenue)] for a posted
    price or VCG with a reserve, and a benchmark B > 0 around its revenue."""
    d = draw(st.sampled_from(CERT_DISTS))
    n = draw(st.integers(1, 12))
    k = draw(st.integers(1, n + 1))
    p = float(d.price(draw(st.floats(0.01, 1.0))))
    if draw(st.booleans()):
        def evaluate(u):
            return eval_posted_exact(d, p, n, k, u)
    else:
        p = p if draw(st.booleans()) else 0.0

        def evaluate(u):
            return eval_vcg_exact(d, n, k, u, p)
    mean = evaluate(linear()).mean_utility
    assume(mean > 1e-6)
    return evaluate, mean * 10.0 ** draw(st.floats(-2.0, 2.0))


def _err(res) -> float:
    """Error bound of an exact value: its estimate plus the target it met
    (binomial-only values are exact to far below the target)."""
    return res.abserr + quad_target(res.mean_utility)


class TestConcaveCertificate:
    @given(revenue_instances(), st.floats(0.0, 1.0),
           st.lists(st.tuples(st.floats(0.01, 1.0), st.floats(-3.0, 3.0)),
                    min_size=1, max_size=4))
    def test_mixtures_never_beat_the_certificate(self, case, a, terms):
        # u = a x + sum w_i min(x, c_i), by linearity of E over linear and
        # capped(c_i)
        evaluate, bench = case
        cert_res = evaluate(capped(bench))
        cert = cert_res.mean_utility / bench
        lin = evaluate(linear())
        num, err, den = a * lin.mean_utility, a * _err(lin), a * bench
        for w, e in terms:
            c = bench * 10.0 ** e
            res = evaluate(capped(c))
            num, err, den = num + w * res.mean_utility, err + w * _err(res), \
                den + w * min(bench, c)
        assert num / den >= cert - err / den - _err(cert_res) / bench

    @given(revenue_instances(), st.floats(0.05, 1.0))
    def test_powers_never_beat_the_certificate(self, case, alpha):
        evaluate, bench = case
        cert_res = evaluate(capped(bench))
        res = evaluate(power(alpha))
        ratio = res.mean_utility / bench ** alpha
        assert ratio >= (cert_res.mean_utility - _err(cert_res)) / bench \
            - _err(res) / bench ** alpha

    @pytest.mark.parametrize("check,args", [
        (check_hedge_unlimited, (U01, 5)), (check_hedge_unlimited, (exponential(1.0), 5)),
        (check_hedge_unlimited, (left_triangle(0.001), 1)),
        (check_hedge_limited, (U01, 2, 1)), (check_hedge_limited, (U01, 10, 3)),
        (check_hedge_limited, (exponential(1.0), 8, 2))],
        ids=lambda x: x.__name__ if callable(x)
        else "-".join(getattr(a, "label", str(a)) for a in x))
    def test_capped_benchmark_attains_it_and_the_old_family_stays_above(self, check, args):
        d, n = args[0], args[1]
        k = args[2] if len(args) > 2 else n
        price = hedge_limited_price(d, n, k) if k < n else hedge_unlimited_price(d)
        bench = myerson_revenue(d, n, k)[0] if k < n else n * price
        rep = check(*args)
        assert rep.worst_instance == capped(bench).label
        # capped(B) is a concave utility, and the report's value is its ratio
        assert rep.observed == eval_posted_exact(d, price, n, k, capped(bench)) \
            .mean_utility / float(capped(bench)(bench))
        # the eleven utilities the check used to search never go below it
        fam_min = min(eval_posted_exact(d, price, n, k, u).mean_utility / float(u(bench))
                      for u in default_family())
        assert fam_min >= rep.observed - rep.tolerance


class TestPostedPriceMaximin:
    @pytest.mark.parametrize("d,want", [
        (U01, 0.75), (exponential(1.0), MHR_BOUND),
        (left_triangle(0.001), 1 / 1.999), (irregular_example(0.01), 0.0199),
        # irregular: a breakpoint above q(B) = 0.2 sells more than q(B)
        (make_distribution("revenue-curve:0:0;0.1:1;0.2:0.2;0.8:0.79;1:0"), 0.79)])
    def test_values(self, d, want):
        assert posted_price_maximin(d) == pytest.approx(want, rel=4 * 2.0 ** -52)

    @pytest.mark.parametrize("d", CERT_DISTS + (
        make_distribution("revenue-curve:0:0;0.1:1;0.2:0.2;0.8:0.79;1:0"),))
    def test_no_grid_price_beats_it(self, d):
        # at capped(B) a price earns its certificate; the worst over
        # {linear, capped(B)} is that certificate
        p_star, q_star = d.monopoly_price()
        res = frontier_search(d, [linear(), capped(p_star * q_star)], grid=2000)
        best = posted_price_maximin(d)
        assert best - 1.0 / 2000 <= res.best_min_ratio <= best * (1 + 4 * 2.0 ** -52)


class TestFrontier:
    def test_uniform_peak(self):
        res = frontier_search(U01, default_family(), grid=1000)
        assert res.best_price == pytest.approx(0.25, abs=1e-12)
        assert res.best_min_ratio == pytest.approx(0.75, abs=1e-12)

    def test_exponential_peak(self):
        res = frontier_search(exponential(1.0), default_family(), grid=1000)
        assert res.best_price == pytest.approx(math.exp(-1.0), abs=1e-9)
        assert res.best_min_ratio == pytest.approx(MHR_BOUND, abs=1e-9)

    def test_left_triangle_tightness(self):
        res = frontier_search(left_triangle(0.001), [linear(), capped(1e-5)],
                              grid=1000)
        assert res.best_price == pytest.approx(1.0, abs=1e-9)
        assert res.best_min_ratio == pytest.approx(0.5002501250625313, abs=1e-9)

    def test_irregular_collapse(self):
        res = frontier_search(irregular_example(0.01), default_family(), grid=1000)
        assert res.best_min_ratio <= 0.05

    def test_table_consistency(self):
        fam = default_family()
        res = frontier_search(U01, fam, grid=200)
        assert res.ratios.shape == (len(fam), len(res.prices))
        assert len(res.sale_probs) == len(res.prices)
        assert list(res.utility_labels) == [u.label for u in fam]
        assert np.all(np.diff(res.prices) >= 0)
        mins = res.ratios.min(axis=0)
        i = int(np.argmax(mins))
        assert res.best_min_ratio == pytest.approx(float(mins[i]), abs=1e-15)
        assert res.best_price == pytest.approx(float(res.prices[i]), abs=1e-15)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_maximin_bracketed_on_random_regulars(self, seed):
        d = gen_regular(seed)
        res = frontier_search(d, default_family(), grid=400)
        assert res.best_min_ratio >= 0.5 - 1e-6
        p_star, q_star = d.monopoly_price()
        ceiling = float(d.sale_probability(p_star * q_star))
        assert res.best_min_ratio <= ceiling + 1.0 / 400 + 1e-9


def masked_gen_regular(seed, breakpoints=None):
    """Reference: gen_regular's points, its negative slopes picked by a
    boolean mask and its prefix sums by concatenation."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 65)) if breakpoints is None else breakpoints
    lengths = rng.uniform(0.2, 1.0, m)
    lengths /= lengths.sum()
    slopes = rng.uniform(0.5, 3.0) - np.concatenate(
        [[0.0], np.cumsum(rng.uniform(0.05, 1.0, m - 1))])
    neg = slopes < 0
    gain = float(np.sum(slopes[~neg] * lengths[~neg]))
    loss = float(-np.sum(slopes[neg] * lengths[neg]))
    if loss > 0.0:
        slopes[neg] *= rng.uniform(0.05, 0.95) * gain / loss
    qs = np.concatenate([[0.0], np.cumsum(lengths)])
    qs[-1] = 1.0
    rs = np.concatenate([[0.0], np.cumsum(slopes * lengths)])
    rs /= rs.max()
    return tuple(zip(qs.tolist(), rs.tolist()))


class TestGenRegular:
    @pytest.mark.parametrize("breakpoints", [None, 2, 64])
    def test_matches_masked_construction(self, breakpoints):
        for seed in range(300):
            assert gen_regular(seed, breakpoints).points == \
                masked_gen_regular(seed, breakpoints), seed

    def test_deterministic(self):
        a = gen_regular(9)
        b = gen_regular(9)
        assert a.points == b.points
        assert a.label == b.label

    def test_breakpoints_respected(self):
        d = gen_regular(3, breakpoints=7)
        assert len(d.points) == 8
        assert d.label == "gen-regular:seed=3,breakpoints=7"

    @pytest.mark.parametrize("seed", range(8))
    def test_validity(self, seed):
        d = gen_regular(seed)
        assert d.is_regular()
        qs, rs = zip(*d.points)
        assert qs[0] == 0.0 and qs[-1] == 1.0
        assert max(rs) == pytest.approx(1.0, abs=1e-12)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="^seed must be a nonnegative integer$"):
            gen_regular(-1)

    def test_breakpoint_range_enforced(self):
        for bad in (1, 65, 0):
            with pytest.raises(ValueError):
                gen_regular(0, breakpoints=bad)


class TestSelections:
    def test_registry_names(self):
        assert set(SELECTIONS) == {
            "virtual-utility-monotone", "half-bound", "mhr-bound",
            "capped-binomial", "allocation-bound", "tail", "vcg-discount",
            "hedge-unlimited", "hedge-limited", "vcg-chain",
            "virtual-utility-identity",
        }

    def test_unknown_selection_rejected(self):
        with pytest.raises(KeyError, match="choose from: allocation-bound, .*, all"):
            run_selections(["nope"], None, 1)

    def test_table_properties(self):
        needs = {floor.name: floor.needs for floor in FLOORS}
        assert list(SELECTIONS) == list(needs)
        assert {name for name, need in needs.items() if need == "regular"} == {
            "half-bound", "tail", "vcg-discount", "hedge-unlimited", "hedge-limited",
            "vcg-chain"}
        assert {name for name, need in needs.items() if need == "MHR"} == {"mhr-bound"}
        assert {floor.name for floor in FLOORS if floor.dist_args is None} == {
            "capped-binomial", "allocation-bound"}
        assert unmet_floors(None) == {}
        assert unmet_floors(exponential(3.0)) == {}
        assert unmet_floors(left_triangle(0.01)) == {"mhr-bound": "MHR"}

    def test_table_properties_match_the_checks(self):
        # a check refuses on its own an input that lacks its floor's property,
        # and a floor that needs none runs on an irregular input
        irregular = irregular_example(0.05)
        for floor in FLOORS:
            if floor.needs:
                d = irregular if floor.needs == "regular" else left_triangle(0.01)
                for args in floor.dist_args:
                    with pytest.raises(ValueError):
                        getattr(lemmas, floor.check)(d, *args)
            elif floor.dist_args is not None:
                assert floor(irregular, 1)
        # the chain's k >= 2 terms use no reserve, so only its own guard refuses
        with pytest.raises(ValueError, match="VCG chain applies to regular"):
            lemmas.check_vcg_chain(irregular, 6, 2)

    def test_table_holds_specs_not_objects(self):
        # the table builds no distribution or utility when the module loads
        for floor in FLOORS:
            for case in floor.instances + (floor.dist_args or ()):
                assert all(isinstance(a, (str, int)) for a in case), floor.name

    def test_rows_look_up_their_checks_when_run(self, monkeypatch):
        # a tracer that patches module attributes must see every call
        calls = []
        original = lemmas.check_virtual_utility_monotone

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(lemmas, "check_virtual_utility_monotone", counted)
        assert len(run_selections(["virtual-utility-monotone"], None, 1)) == len(calls) == 9

    def test_selections_are_called_through_the_dict(self, monkeypatch):
        monkeypatch.setitem(SELECTIONS, "tail", lambda d, seed: ["tail", seed])
        assert run_selections(["tail"], None, 5) == ["tail", 5]

    def test_all_skips_the_floors_a_distribution_lacks_the_property_for(self):
        d = left_triangle(0.01)
        got = run_selections(["all"], d, 1)
        want = [r for name in SELECTIONS if name != "mhr-bound"
                for r in run_selections([name], d, 1)]
        assert got == want
        with pytest.raises(ValueError, match="nondecreasing hazard"):
            run_selections(["mhr-bound"], d, 1)

    def test_only_the_sweep_depends_on_the_seed(self):
        a, b = run_selections(["all"], None, 1), run_selections(["all"], None, 500)
        differ = [x.name for x, y in zip(a, b) if x != y]
        assert differ == ["half-bound[gen-regular x200]"]
        assert run_selections(["half-bound"], U01, 1) == run_selections(["half-bound"], U01, 2)

    def test_full_suite_passes_at_small_samples(self):
        reports = run_selections(["all"], None, seed=1)
        assert len(reports) >= len(SELECTIONS)
        bad = [r.name for r in reports if not r.passed]
        assert bad == []

    def test_single_selection_with_custom_distribution(self):
        reports = run_selections(["half-bound"], uniform(0.0, 2.0), 1)
        assert len(reports) == 1
        assert reports[0].passed


class TestReproduceTable:
    def test_rows_hold_specs_not_objects(self):
        for name, instance, check, *args in lemmas.REPRODUCE:
            assert callable(getattr(lemmas, check)), name
            assert all(isinstance(a, (str, int, float)) for a in args), (name, instance)

    def test_every_row_passes(self):
        rows = lemmas.run_reproduce()
        assert [(name, instance) for name, instance, _ in rows] == [
            tuple(row[:2]) for row in lemmas.REPRODUCE]
        assert [name for name, _, r in rows if not r.passed] == []

    def test_one_reserve_search_per_utility(self, monkeypatch):
        # the three vickrey-vs-optimal rows share their distribution's reserves
        calls = []
        original = lemmas.optimal_reserve

        def counted(d, u):
            calls.append(u.label)
            return original(d, u)

        monkeypatch.setattr(lemmas, "optimal_reserve", counted)
        lemmas.run_reproduce()
        assert calls == ["linear", "power:0.5"]

    @pytest.mark.parametrize("row, passing, failing", [
        # left-triangle: at least 1/2 less 4 ulp
        (2, [0.5 - 4 * math.ulp(0.5), 0.75, math.inf],
         [math.nextafter(0.5 - 4 * math.ulp(0.5), 0.0), math.nan]),
        # exponential: within 4 ulp of exp(-1/e), either side
        (3, [MHR_BOUND, MHR_BOUND - 4 * math.ulp(MHR_BOUND), MHR_BOUND + 4 * math.ulp(MHR_BOUND)],
         [MHR_BOUND - 5 * math.ulp(MHR_BOUND), MHR_BOUND + 5 * math.ulp(MHR_BOUND), 0.75]),
        # irregular: at most 0.05, exactly
        (4, [0.05, 0.0199, 0.0], [math.nextafter(0.05, 1.0), 0.5]),
    ])
    def test_frontier_rules(self, monkeypatch, row, passing, failing):
        _, _, check, spec, *args = lemmas.REPRODUCE[row]
        d = make_distribution(spec)
        for m in passing + failing:
            monkeypatch.setattr(lemmas, "posted_price_maximin", lambda _, m=m: m)
            r = getattr(lemmas, check)(d, *args)
            assert r.passed is (m in passing), m
            assert (r.margin >= 0) is r.passed
            assert r.observed is m

    def test_tail_tight_adds_a_ceiling(self):
        assert lemmas.check_tail_tight(left_triangle(1e-4), 2, 2).passed
        loose = check_tail(U01, 2, 2)
        assert loose.passed and loose.observed > 0.26
        # the same row, failing by how far it is above the ceiling
        assert lemmas.check_tail_tight(U01, 2, 2) == LemmaReport(
            loose.name, 0.25, loose.observed, 0.0, 1, loose.worst_instance,
            0.26 - loose.observed)
        assert not lemmas.check_tail_tight(U01, 2, 2).passed

    @pytest.mark.parametrize("observed, passed", [
        (0.26, True), (math.nextafter(0.26, 1.0), False), (0.25, True),
        # 0.25 - 1e-6 rounds below the floor; the next float up is the least passing
        (0.25 - 1e-6, False), (math.nextafter(0.25 - 1e-6, 1.0), True), (0.0, False),
        (math.nan, False),
    ])
    def test_tail_tight_edges(self, monkeypatch, observed, passed):
        # each verdict is the one `observed - 0.25 >= -1e-6 and observed <= 0.26` gives
        assert (observed - 0.25 >= -1e-6 and observed <= 0.26) is passed
        monkeypatch.setattr(lemmas, "order_stat_cdf", lambda *_: observed)
        r = lemmas.check_tail_tight(U01, 2, 2)
        assert r.passed is passed and r.tolerance == 0.0
        assert (r.margin >= 0) is passed

    @pytest.mark.parametrize("m, low, high", [
        (0.5, 0.5, 0.5), (math.nextafter(0.5, 0.0), 0.5, 1.0),
        (math.nextafter(1.0, 2.0), 0.5, 1.0), (5e-324, 0.0, 1.0), (0.0, 5e-324, 1.0),
        (-5e-324, -math.inf, 0.0), (5e-324, -math.inf, 0.0), (math.inf, 0.5, math.inf),
        (math.inf, 0.5, 1.0), (math.nan, 0.0, 1.0),
    ])
    def test_maximin_edges(self, monkeypatch, m, low, high):
        monkeypatch.setattr(lemmas, "posted_price_maximin", lambda _: m)
        r = lemmas.check_maximin(U01, 0.5, low, high)
        assert r.passed is (low <= m <= high)

    def test_vickrey_ratio_is_shared(self):
        ratios = lemmas.vickrey_ratios(U01, 2)
        assert [label for _, label in ratios] == [
            "vickrey-vs-optimal[linear]", "vickrey-vs-optimal[power:0.5]"]
        worst = min(ratio for ratio, _ in ratios)
        r = lemmas.check_vickrey_vs_optimal(U01, 2)
        assert (r.passed, r.claimed_bound, r.observed) == (True, 0.5, worst)
        assert worst == pytest.approx(0.8, abs=1e-12)
        chain = check_vcg_chain(U01, 2, 1)
        assert (chain.worst_instance, chain.observed) == (ratios[0][1], ratios[0][0] - 0.5)

    def test_identity_one_bidder(self):
        r = lemmas.check_identity_one_bidder(U01, linear())
        assert (r.passed, r.claimed_bound) == (True, 0.25)
        assert r.observed == pytest.approx(0.25, abs=1e-12)
        d = exponential(2.0)
        r = lemmas.check_identity_one_bidder(d, power(0.5))
        p_star, q_star = d.monopoly_price()
        assert r.passed and r.claimed_bound == pytest.approx(p_star ** 0.5 * q_star)


def _defaults(fn):
    yield from fn.__defaults__ or ()
    yield from (fn.__kwdefaults__ or {}).values()


def test_no_default_is_a_built_utility_or_distribution():
    # a default is built once, when its module loads, and shared by every call
    import inspect
    import riskauctions
    from riskauctions import Distribution, UtilityFunction

    def built(value):
        if isinstance(value, (tuple, list)):
            return any(built(v) for v in value)
        return isinstance(value, (Distribution, UtilityFunction))

    bad = []
    for mod in (getattr(riskauctions, m) for m in (
            "cli", "distributions", "evaluation", "lemmas", "mechanisms", "numerics",
            "report", "utilities")):
        for name, obj in vars(mod).items():
            fns = [obj] if inspect.isfunction(obj) else (
                [f for f in vars(obj).values() if inspect.isfunction(f)]
                if inspect.isclass(obj) else [])
            bad += [f"{mod.__name__}.{name}" for f in fns
                    if getattr(f, "__module__", "") == mod.__name__
                    and any(built(v) for v in _defaults(f))]
    assert bad == []


def _every_report():
    """The reports of `lemmas all`, of `reproduce`, and of `lemmas all --dist`
    on built-ins and random curves, then a row that fails by its ceiling."""
    yield from run_selections(["all"], None, 42)
    yield from (r for _, _, r in lemmas.run_reproduce())
    specs = ("uniform:0,1", "exponential:1", "left-triangle:0.01", "irregular-example:0.05",
             "exponential:1e-300", "uniform:1e300,1.5e300")
    for d in [*map(make_distribution, specs), *map(gen_regular, range(4))]:
        yield from run_selections(["all"], d, 42)
    yield lemmas.check_tail_tight(U01, 2, 2)


def test_every_verdict_is_the_margin_against_the_tolerance():
    reports = list(_every_report())
    assert not reports[-1].passed and any(not r.passed for r in reports[:-1])
    for r in reports:
        assert r.passed is bool(r.margin >= -r.tolerance), r


class TestReportPlumbing:
    def test_failure_path(self):
        rep = LemmaReport("demo", 0.9, 0.5, 1e-9, 3, "x")
        assert not rep.passed
        assert rep.margin == pytest.approx(-0.4)
        row = rep.csv_row()
        assert row[1] == "false"

    def test_margin_defaults_to_observed_less_claimed(self):
        rep = LemmaReport("demo", 0.25, 0.75, 0.0, 1, "x")
        assert rep.margin == 0.5 and rep.passed
        assert LemmaReport("demo", 0.25, 0.75, 0.0, 1, "x", -0.5) != rep
        nan = LemmaReport("demo", 0.0, math.nan, math.inf, 1, "x")
        assert nan.passed is False

    def test_csv_row_formatting(self):
        rep = check_capped_binomial(1, 0.5, 1)
        row = rep.csv_row()
        assert row == ["capped-binomial[n=1,q=0.5,k=1]", "true", "0.125",
                       "0.25", "0.125", "1", "n=1,q=0.5,k=1"]
