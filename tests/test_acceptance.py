"""Acceptance suite: one test per advertised guarantee.

Each test prints a single PASS/FAIL line naming the guarantee it verifies,
then asserts.  Tolerances are fixed here and nowhere loosened: closed forms
at 1e-6 or tighter, exact-vs-exact comparisons at 1e-9 or tighter,
Monte Carlo brackets at four confidence-interval halfwidths.
"""
import math
from fractions import Fraction

import numpy as np

from riskauctions import (
    MHR_BOUND,
    PostedPriceMechanism,
    VcgMechanism,
    allocation_probability,
    batch_outcomes,
    batch_revenue,
    capped,
    check_capped_binomial_grid,
    check_half_bound,
    check_mhr_bound,
    check_hedge_unlimited,
    check_tail,
    default_family,
    eval_posted_exact,
    eval_second_price_exact,
    eval_vcg_exact,
    exponential,
    frontier_search,
    gen_regular,
    hedge_limited_price,
    hedge_unlimited_price,
    irregular_example,
    left_triangle,
    linear,
    myerson_revenue,
    optimal_reserve,
    power,
    uniform,
    virtual_utility_identity_stats,
)
from riskauctions.cli import main as cli_main

U01 = uniform(0.0, 1.0)
EXP = exponential(1.0)


def verdict(label, failures):
    ok = not failures
    print(("PASS: " if ok else "FAIL: ") + label)
    assert ok, label + " | " + "; ".join(str(f) for f in failures[:8])


def test_monopoly_prices_match_closed_forms():
    cases = [
        (U01, 0.5, 0.5),
        (EXP, 1.0, math.exp(-1.0)),
        (left_triangle(0.01), 100.0, 0.01),
        (uniform(2.0, 3.0), 2.0, 1.0),
        (uniform(0.0, 4.0), 2.0, 0.5),
    ]
    failures = []
    for d, want_p, want_q in cases:
        p, q = d.monopoly_price()
        if abs(p - want_p) > 1e-6 or abs(q - want_q) > 1e-6:
            failures.append((d.spec_string, p, q))
    verdict("monopoly prices match closed forms", failures)


def test_utility_optimal_reserves_match_closed_forms():
    cases = [(linear(), 0.5), (power(0.5), 1 / 3), (power(1 / 3), 0.25)]
    failures = []
    for u, want in cases:
        r = optimal_reserve(U01, u)
        if abs(r - want) > 1e-6:
            failures.append((u.label, r, want))
    verdict("utility-optimal reserves match closed forms", failures)


def test_discounted_price_sells_with_probability_at_least_half():
    failures = []
    for d in (U01, EXP, uniform(0.0, 4.0), uniform(2.0, 3.0)):
        rep = check_half_bound(d)
        if not rep.passed:
            failures.append(rep.name)
    for eps in (0.1, 0.01, 0.001):
        rep = check_half_bound(left_triangle(eps))
        want_margin = 1.0 / (2.0 - eps) - 0.5
        if not rep.passed or abs(rep.margin - want_margin) > 1e-3:
            failures.append((eps, rep.margin, want_margin))
    for seed in range(1000):
        rep = check_half_bound(gen_regular(seed))
        if not rep.passed:
            failures.append(rep.name)
    verdict("sale probability at the discounted monopoly price is >= 1/2 "
            "(builtins, tight family, 1000 random regular curves)", failures)


def test_nondecreasing_hazard_gives_the_stronger_floor():
    failures = []
    rep = check_mhr_bound(EXP)
    if not rep.passed or abs(rep.observed - MHR_BOUND) > 1e-9:
        failures.append(("exponential:1", rep.observed))
    rep = check_mhr_bound(exponential(2.0))
    if not rep.passed or abs(rep.observed - MHR_BOUND) > 1e-9:
        failures.append(("exponential:2", rep.observed))
    for d in (U01, uniform(0.0, 4.0)):
        rep = check_mhr_bound(d)
        if not rep.passed or rep.observed < MHR_BOUND - 1e-9:
            failures.append((d.spec_string, rep.observed))
    verdict("hazard-monotone distributions reach the e^(-1/e) floor, "
            "exponential exactly", failures)


def test_unlimited_hedge_guarantee_holds_on_an_exact_grid():
    failures = []
    for d, floor in ((U01, MHR_BOUND), (EXP, MHR_BOUND),
                     (left_triangle(0.01), 0.5)):
        for n in (1, 2, 5, 20):
            rep = check_hedge_unlimited(d, n)
            if not rep.passed or rep.observed < floor - 1e-9 \
                    or abs(rep.claimed_bound - floor) > 1e-12:
                failures.append((d.spec_string, n, rep.observed))
    verdict("unlimited-supply hedge price guarantees its floor for every "
            "concave utility (exact evaluation at the capped benchmark)", failures)


def test_posted_price_frontier_maximin_values():
    failures = []
    res = frontier_search(left_triangle(0.001), [linear(), capped(1e-5)],
                          grid=1000)
    if not 0.499 <= res.best_min_ratio <= 0.502:
        failures.append(("left-triangle", res.best_min_ratio))
    res = frontier_search(EXP, default_family(), grid=1000)
    if abs(res.best_min_ratio - MHR_BOUND) > 1e-3:
        failures.append(("exponential", res.best_min_ratio))
    res = frontier_search(irregular_example(0.01), default_family(), grid=1000)
    if res.best_min_ratio > 0.05:
        failures.append(("irregular", res.best_min_ratio))
    verdict("posted-price maximin frontier: ~1/2 on the tight family, "
            "e^(-1/e) for exponential, collapse on the irregular example",
            failures)


def rational_allocations(n, j):
    """E[min(k, X)]/n for X ~ Binomial(n, j/20) and k = 1..n: an independent
    rational-arithmetic mirror of the allocation pipeline."""
    q_r = Fraction(j, 20)
    pmf = [Fraction(math.comb(n, x)) * q_r**x * (1 - q_r) ** (n - x)
           for x in range(n + 1)]
    cdf, wsum = [], []
    c = w = Fraction(0)
    for x, m in enumerate(pmf):
        c += m
        w += x * m
        cdf.append(c)
        wsum.append(w)
    return [(wsum[k - 1] + k * (1 - cdf[k - 1])) / n for k in range(1, n + 1)]


def test_capped_allocation_stays_in_the_half_bracket_exhaustively():
    failures = []
    checked = 0
    for n in range(1, 61):
        for j in range(10, 21):
            q_r = Fraction(j, 20)
            for k, q in enumerate(rational_allocations(n, j), 1):
                checked += 1
                if not Fraction(k, 2 * n) <= q <= Fraction(k, n):
                    failures.append((n, k, j, float(q)))
                got = allocation_probability(n, k, float(q_r))
                if abs(got - float(q)) > 1e-12:
                    failures.append((n, k, j, got, float(q)))
    assert checked == 20_130
    verdict("capped allocation probability sits in [k/2n, k/n] for all "
            "n <= 60 (exact rational oracle, float agreement 1e-12)",
            failures)


def test_capped_binomial_floor_on_a_dense_grid():
    rep = check_capped_binomial_grid(n_max=60, q_step=0.01)
    failures = []
    if not rep.passed or rep.margin < 0:
        failures.append(rep.margin)
    if rep.instances_checked != 136_776:
        failures.append(("instances", rep.instances_checked))
    if abs(rep.observed - 0.07249696643123257) > 1e-9:
        failures.append(("worst", rep.observed))
    verdict("E[min(k, Binomial(n, q))] >= qn/2 on the full qn >= k/2 grid "
            "up to n = 60", failures)


def test_limited_hedge_keeps_an_eighth_of_the_optimal_revenue():
    fam = default_family()
    failures = []
    for n, k in ((2, 1), (5, 2), (10, 3)):
        for d in (U01, EXP):
            price = hedge_limited_price(d, n, k)
            rev, ci = myerson_revenue(d, n, k)
            floor_rev = max(rev - 4.0 * ci, 0.0)
            for u in fam:
                val = eval_posted_exact(d, price, n, k, u).mean_utility
                if val < 0.125 * float(u(floor_rev)) - 1e-12:
                    failures.append((d.spec_string, n, k, u.label, val))
    verdict("limited-supply hedge price keeps 1/8 of the optimal revenue "
            "in utility terms (exact vs benchmark)", failures)


def test_tail_price_keeps_a_quarter_of_the_sale_probability():
    failures = []
    for d, t, n in ((U01, 2, 2), (U01, 2, 4), (U01, 3, 5), (U01, 4, 8),
                    (U01, 5, 10), (EXP, 2, 3), (EXP, 3, 6)):
        rep = check_tail(d, t, n)
        if not rep.passed:
            failures.append((d.spec_string, t, n))
    rep = check_tail(left_triangle(1e-4), 2, 2)
    if not rep.passed or not 0.25 <= rep.observed <= 0.26:
        failures.append(("left-triangle", rep.observed))
    rng = np.random.default_rng(0)
    for _ in range(200):
        d = gen_regular(int(rng.integers(0, 10_000)))
        n = int(rng.integers(2, 21))
        t = int(rng.integers(2, n + 1))
        rep = check_tail(d, t, n)
        if not rep.passed:
            failures.append((d.label, t, n, rep.margin))
    verdict("expected t-th order-statistic price sells with probability "
            ">= 1/4 per unit (grids plus 200 random regular curves)",
            failures)


def test_vcg_chain_floors_hold_exactly():
    failures = []
    for n in (2, 3, 5):
        for u in (linear(), power(0.5)):
            lhs = eval_vcg_exact(U01, n, 1, u).mean_utility
            r_u = optimal_reserve(U01, u)
            rhs = eval_second_price_exact(U01, r_u, n, u).mean_utility
            if lhs < (1.0 - 1.0 / n) * rhs - 1e-9:
                failures.append(("single-unit", n, u.label, lhs, rhs))
    lhs2 = eval_vcg_exact(U01, 2, 1, linear()).mean_utility
    rhs2 = eval_second_price_exact(U01, 0.5, 2, linear()).mean_utility
    if abs(lhs2 - 1 / 3) > 1e-9 or abs(rhs2 - 5 / 12) > 1e-9:
        failures.append(("anchor", lhs2, rhs2))
    fam = default_family()
    for n, k in ((4, 1), (6, 2), (12, 3)):
        for d in (U01, EXP):
            rev = eval_vcg_exact(d, n, k, linear()).mean_utility
            for u in fam:
                val = eval_vcg_exact(d, n, k, u).mean_utility
                if val < 0.25 * float(u(rev)) - 1e-8:
                    failures.append((d.spec_string, n, k, u.label, val))
    verdict("reserve-free VCG retains (1 - k/n) of the optimal utility and "
            "1/4 of the order-statistic revenue floor", failures)


def test_expected_utility_equals_expected_winner_virtual_utility():
    # Monte Carlo cross-check of the exact identity: both sides estimated
    # from one set of draws, the left through batch_outcomes payments, the
    # right through the value-space virtual utility u(v) - u'(v)(1-F(v))/f(v)
    # of each winner
    samples = 1_000_000
    failures = []
    rng = np.random.default_rng(2024)
    for mech in (VcgMechanism(1, 0.5), VcgMechanism(1, 0.0)):
        for u in (linear(), power(0.5)):
            for n in (1, 2, 3):
                exact = virtual_utility_identity_stats(U01, mech, u, n)
                sums, sqs = np.zeros(2), np.zeros(2)
                for start in range(0, samples, 65_536):
                    bids = U01.quantile(rng.random((min(65_536, samples - start), n)))
                    win, pay = batch_outcomes(mech, bids)
                    with np.errstate(divide="ignore", invalid="ignore"):
                        phi = u(bids) - u.derivative(bids) * U01.inverse_hazard(bids)
                    sides = (u(pay.sum(axis=1)), np.where(win, phi, 0.0).sum(axis=1))
                    for i, v in enumerate(sides):
                        sums[i] += v.sum()
                        sqs[i] += (v * v).sum()
                for i, side in enumerate(("lhs", "rhs")):
                    mean = sums[i] / samples
                    ci = 1.96 * math.sqrt(max(sqs[i] / samples - mean * mean, 0.0) / samples)
                    if abs(mean - exact[side]) > 4.0 * ci:
                        failures.append((mech.label, u.label, n, side, mean, exact[side]))
    exact = virtual_utility_identity_stats(U01, VcgMechanism(1, 0.5), linear(), 1)
    if exact["lhs"] != 0.25 or abs(exact["rhs"] - 0.25) > exact["tolerance"]:
        failures.append(("anchor", exact))
    verdict("independent Monte Carlo brackets both exact sides of E[u(revenue)] = "
            "E[winner virtual utility] for single-unit VCG", failures)


def _mc_bracket_cases():
    """(distribution, n, mechanism, k) grids whose exact evaluations the
    cross-validation test re-derives by simulation."""
    cases = []
    for d in (U01, EXP, left_triangle(0.01)):
        p = hedge_unlimited_price(d)
        for n in (1, 2, 5, 20):
            cases.append((d, n, PostedPriceMechanism(p, n), n))
    for n, k in ((2, 1), (5, 2), (10, 3)):
        for d in (U01, EXP):
            cases.append((d, n,
                          PostedPriceMechanism(hedge_limited_price(d, n, k), k),
                          k))
    for n, k in ((4, 1), (6, 2), (12, 3)):
        for d in (U01, EXP):
            cases.append((d, n, VcgMechanism(k, 0.0), k))
    # reserved VCG: the Myerson benchmark shapes, a discounted reserve, and
    # more units than bidders
    for n, k, share in ((4, 1, 1.0), (6, 2, 0.3), (12, 3, 1.0), (5, 6, 1.0)):
        for d in (U01, EXP):
            cases.append((d, n, VcgMechanism(k, share * d.monopoly_price()[0]), k))
    return cases


def test_exact_evaluations_are_bracketed_by_monte_carlo():
    fam = default_family()
    failures = []
    samples = 1_000_000
    for case_idx, (d, n, mech, k) in enumerate(_mc_bracket_cases()):
        if isinstance(mech, PostedPriceMechanism):
            exact = [eval_posted_exact(d, mech.price, n, k, u).mean_utility
                     for u in fam]
        else:
            exact = [eval_vcg_exact(d, n, k, u, mech.reserve).mean_utility
                     for u in fam]
        sums = np.zeros(len(fam))
        sqs = np.zeros(len(fam))
        rng = np.random.default_rng(1000 + case_idx)
        left = samples
        while left:
            size = min(65_536, left)
            rev = batch_revenue(mech, d.quantile(rng.random((size, n))))
            for i, u in enumerate(fam):
                vals = np.asarray(u(rev), dtype=float)
                sums[i] += vals.sum()
                sqs[i] += (vals * vals).sum()
            left -= size
        for i, u in enumerate(fam):
            mean = sums[i] / samples
            var = max((sqs[i] - samples * mean * mean) / (samples - 1), 0.0)
            ci = 1.96 * math.sqrt(var / samples)
            # the 1e-6 floor covers revenue events of probability < 1/samples
            # that leave the sample variance at zero while shifting the exact
            # value by up to gap/samples
            if abs(exact[i] - mean) > 4.0 * ci + 1e-6:
                failures.append((d.spec_string, n, mech.label, u.label,
                                 exact[i], mean, ci))
    verdict("every exact evaluation in the hedge and VCG grids, reserves "
            "included, is bracketed by independent Monte Carlo at four sigma",
            failures)


def test_full_verification_run_is_deterministic(tmp_path):
    outs = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        code = cli_main(["lemmas", "all", "--seed", "7", "--out", str(path)])
        assert code == 0
        outs.append(path.read_bytes())
    failures = [] if outs[0] == outs[1] and len(outs[0]) > 200 else ["differ"]
    verdict("the full verification suite is byte-identical across reruns "
            "at one million samples", failures)
